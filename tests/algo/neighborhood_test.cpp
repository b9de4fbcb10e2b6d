#include "algo/neighborhood.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/scheduler.h"
#include "mec/scenario_builder.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::size_t users = 8, std::size_t servers = 3,
                            std::size_t subchannels = 2,
                            std::uint64_t seed = 42) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TEST(NeighborhoodTest, StepsPreserveFeasibility) {
  // Core property: any number of neighborhood steps keeps the assignment
  // consistent and the constraints (12b)-(12d) intact (check_consistency
  // verifies the bijection between users and slots).
  const mec::Scenario scenario = make_scenario();
  const Neighborhood neighborhood(scenario);
  Rng rng(1);
  jtora::Assignment x = random_feasible_assignment(scenario, rng);
  for (int i = 0; i < 5000; ++i) {
    neighborhood.step(x, rng);
    x.check_consistency();
  }
}

TEST(NeighborhoodTest, ExploresTheWholeDecisionSpace) {
  // Ergodicity: starting from all-local, repeated steps must eventually
  // place some user on every server and sub-channel, and also return users
  // to local state.
  const mec::Scenario scenario = make_scenario(6, 3, 2, 7);
  const Neighborhood neighborhood(scenario);
  Rng rng(2);
  jtora::Assignment x(scenario);
  Matrix2<int> slot_used(3, 2, 0);
  std::vector<bool> user_offloaded(6, false);
  std::vector<bool> user_back_local(6, false);
  for (int i = 0; i < 20000; ++i) {
    neighborhood.step(x, rng);
    for (std::size_t s = 0; s < 3; ++s) {
      for (std::size_t j = 0; j < 2; ++j) {
        if (x.occupant(s, j).has_value()) slot_used(s, j) = 1;
      }
    }
    for (std::size_t u = 0; u < 6; ++u) {
      if (x.is_offloaded(u)) {
        user_offloaded[u] = true;
      } else if (user_offloaded[u]) {
        user_back_local[u] = true;
      }
    }
  }
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(slot_used(s, j), 1) << "slot (" << s << "," << j << ")";
    }
  }
  // Every user both offloads and later returns to local at least once.
  for (std::size_t u = 0; u < 6; ++u) {
    EXPECT_TRUE(user_offloaded[u]) << "user " << u;
    EXPECT_TRUE(user_back_local[u]) << "user " << u;
  }
}

TEST(NeighborhoodTest, SingleServerMoveDegradesGracefully) {
  // With S = 1 and N = 1, only toggle/swap can do anything; steps must not
  // throw and must keep feasibility.
  const mec::Scenario scenario = make_scenario(4, 1, 1, 9);
  const Neighborhood neighborhood(scenario);
  Rng rng(3);
  jtora::Assignment x(scenario);
  for (int i = 0; i < 2000; ++i) {
    neighborhood.step(x, rng);
    x.check_consistency();
    EXPECT_LE(x.num_offloaded(), 1u);
  }
}

TEST(NeighborhoodTest, EvictionKeepsSlotCountStable) {
  // When all slots are full, a move evicts exactly one occupant, so the
  // number of offloaded users can drop by at most one per step.
  const mec::Scenario scenario = make_scenario(10, 2, 2, 11);
  const Neighborhood neighborhood(scenario);
  Rng rng(4);
  // Fill every slot.
  jtora::Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.offload(2, 1, 0);
  x.offload(3, 1, 1);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t before = x.num_offloaded();
    neighborhood.step(x, rng);
    x.check_consistency();
    EXPECT_GE(x.num_offloaded() + 1, before);
  }
}

TEST(NeighborhoodTest, ToggleOnlyConfigFlipsStates) {
  // Filtered from the paper's mix: a kOffload or kMakeLocal move changes the
  // slot of its own user only, and one that flips the user's offloading
  // state changes the offload count by exactly one.
  using Kind = Neighborhood::Move::Kind;
  const mec::Scenario scenario = make_scenario(3, 2, 2, 13);
  const Neighborhood neighborhood(scenario);
  Rng rng(5);
  jtora::Assignment x(scenario);
  std::size_t flips = 0;
  for (int i = 0; i < 500; ++i) {
    const Neighborhood::Move move = neighborhood.propose(x, rng);
    const jtora::Assignment before = x;
    neighborhood.apply_move(x, move);
    if (move.kind != Kind::kOffload && move.kind != Kind::kMakeLocal) continue;
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      if (u != move.user) {
        EXPECT_EQ(x.slot_of(u), before.slot_of(u));
      }
    }
    if (move.kind == Kind::kOffload) {
      EXPECT_EQ(x.slot_of(move.user),
                (jtora::Slot{move.server, move.subchannel}));
    } else {
      EXPECT_FALSE(x.is_offloaded(move.user));
    }
    if (x.is_offloaded(move.user) != before.is_offloaded(move.user)) {
      ++flips;
      EXPECT_EQ(std::max(x.num_offloaded(), before.num_offloaded()) -
                    std::min(x.num_offloaded(), before.num_offloaded()),
                1u);
    }
  }
  EXPECT_GT(flips, 0u);
}

TEST(NeighborhoodTest, SwapOnlyConfigPreservesOffloadCount) {
  // Filtered from the paper's mix: a kSwap move exchanges two users' slots
  // and keeps the offload count.
  const mec::Scenario scenario = make_scenario(6, 3, 2, 17);
  const Neighborhood neighborhood(scenario);
  Rng rng(6);
  jtora::Assignment x = random_feasible_assignment(scenario, rng, 0.5);
  std::size_t swaps = 0;
  for (int i = 0; i < 2000; ++i) {
    const Neighborhood::Move move = neighborhood.propose(x, rng);
    const jtora::Assignment before = x;
    neighborhood.apply_move(x, move);
    x.check_consistency();
    if (move.kind != Neighborhood::Move::Kind::kSwap) continue;
    ++swaps;
    EXPECT_EQ(x.num_offloaded(), before.num_offloaded());
    EXPECT_EQ(x.slot_of(move.user), before.slot_of(move.other));
    EXPECT_EQ(x.slot_of(move.other), before.slot_of(move.user));
  }
  EXPECT_GT(swaps, 0u);
}

}  // namespace
}  // namespace tsajs::algo
