#include "jtora/assignment.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::size_t users = 6, std::size_t servers = 3,
                            std::size_t subchannels = 2) {
  Rng rng(42);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TEST(AssignmentTest, StartsAllLocal) {
  const mec::Scenario scenario = make_scenario();
  const Assignment x(scenario);
  EXPECT_EQ(x.num_offloaded(), 0u);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_FALSE(x.is_offloaded(u));
    EXPECT_FALSE(x.slot_of(u).has_value());
  }
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    EXPECT_EQ(x.num_free_subchannels(s), scenario.num_subchannels());
  }
}

TEST(AssignmentTest, OffloadSetsBothMaps) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(2, 1, 0);
  EXPECT_TRUE(x.is_offloaded(2));
  EXPECT_EQ(x.slot_of(2), (Slot{1, 0}));
  EXPECT_EQ(x.occupant(1, 0), 2u);
  EXPECT_EQ(x.num_offloaded(), 1u);
  x.check_consistency();
}

TEST(AssignmentTest, OffloadMovesUserReleasingOldSlot) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(0, 2, 1);
  EXPECT_EQ(x.slot_of(0), (Slot{2, 1}));
  EXPECT_FALSE(x.occupant(0, 0).has_value());
  EXPECT_EQ(x.num_offloaded(), 1u);
  x.check_consistency();
}

TEST(AssignmentTest, Constraint12dEnforced) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 1, 1);
  EXPECT_THROW(x.offload(3, 1, 1), InvalidArgumentError);
  // Re-offloading the same user to its own slot is a no-op, not a violation.
  EXPECT_NO_THROW(x.offload(0, 1, 1));
  x.check_consistency();
}

TEST(AssignmentTest, MakeLocalFreesSlot) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(4, 2, 0);
  x.make_local(4);
  EXPECT_FALSE(x.is_offloaded(4));
  EXPECT_FALSE(x.occupant(2, 0).has_value());
  EXPECT_EQ(x.num_offloaded(), 0u);
  // Idempotent.
  EXPECT_NO_THROW(x.make_local(4));
  x.check_consistency();
}

TEST(AssignmentTest, SwapBothOffloaded) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 2, 1);
  x.swap(0, 1);
  EXPECT_EQ(x.slot_of(0), (Slot{2, 1}));
  EXPECT_EQ(x.slot_of(1), (Slot{0, 0}));
  x.check_consistency();
}

TEST(AssignmentTest, SwapWithLocalUserTransfersSlot) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 1, 0);
  x.swap(0, 5);
  EXPECT_FALSE(x.is_offloaded(0));
  EXPECT_EQ(x.slot_of(5), (Slot{1, 0}));
  EXPECT_EQ(x.num_offloaded(), 1u);
  x.check_consistency();
}

TEST(AssignmentTest, SwapTwoLocalsIsNoop) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.swap(0, 1);
  EXPECT_EQ(x.num_offloaded(), 0u);
  x.check_consistency();
}

TEST(AssignmentTest, SwapSelfIsNoop) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 1);
  x.swap(0, 0);
  EXPECT_EQ(x.slot_of(0), (Slot{0, 1}));
  x.check_consistency();
}

TEST(AssignmentTest, ClearResetsEverything) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 1, 1);
  x.clear();
  EXPECT_EQ(x.num_offloaded(), 0u);
  EXPECT_FALSE(x.occupant(0, 0).has_value());
  x.check_consistency();
}

TEST(AssignmentTest, UsersOnServerSorted) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(5, 1, 1);
  x.offload(2, 1, 0);
  EXPECT_EQ(x.users_on_server(1), (std::vector<std::size_t>{2, 5}));
  EXPECT_TRUE(x.users_on_server(0).empty());
}

TEST(AssignmentTest, OffloadedUsersAscending) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(4, 0, 0);
  x.offload(1, 2, 0);
  EXPECT_EQ(x.offloaded_users(), (std::vector<std::size_t>{1, 4}));
}

TEST(AssignmentTest, FreeSubchannelsTracksOccupancy) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 1);
  EXPECT_EQ(x.num_free_subchannels(0), 1u);
  EXPECT_FALSE(x.occupant(0, 0).has_value());  // the free one is 0
  EXPECT_EQ(x.num_free_subchannels(1), 2u);
  x.offload(1, 0, 0);
  EXPECT_EQ(x.num_free_subchannels(0), 0u);
}

TEST(AssignmentTest, RandomFreeSubchannelRespectsOccupancy) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const auto j = x.random_free_subchannel(0, rng);
    ASSERT_TRUE(j.has_value());
    EXPECT_EQ(*j, 1u);
  }
  x.offload(1, 0, 1);
  EXPECT_FALSE(x.random_free_subchannel(0, rng).has_value());
}

TEST(AssignmentTest, IndexBoundsChecked) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  EXPECT_THROW((void)x.is_offloaded(99), InvalidArgumentError);
  EXPECT_THROW(x.offload(0, 99, 0), InvalidArgumentError);
  EXPECT_THROW(x.offload(0, 0, 99), InvalidArgumentError);
  EXPECT_THROW((void)x.occupant(99, 0), InvalidArgumentError);
}

TEST(AssignmentTest, EqualityComparesDecisions) {
  const mec::Scenario scenario = make_scenario();
  Assignment a(scenario);
  Assignment b(scenario);
  EXPECT_EQ(a, b);
  a.offload(0, 0, 0);
  EXPECT_NE(a, b);
  b.offload(0, 0, 0);
  EXPECT_EQ(a, b);
}

TEST(AssignmentTest, RandomizedOperationSequenceStaysConsistent) {
  // Property: any sequence of valid mutations keeps both maps in sync.
  const mec::Scenario scenario = make_scenario(10, 4, 3);
  Assignment x(scenario);
  Rng rng(2024);
  for (int step = 0; step < 3000; ++step) {
    const auto u = static_cast<std::size_t>(rng.uniform_index(10));
    switch (rng.uniform_index(3)) {
      case 0: {
        const auto s = static_cast<std::size_t>(rng.uniform_index(4));
        if (const auto j = x.random_free_subchannel(s, rng); j.has_value()) {
          x.offload(u, s, *j);
        }
        break;
      }
      case 1:
        x.make_local(u);
        break;
      default:
        x.swap(u, static_cast<std::size_t>(rng.uniform_index(10)));
    }
    x.check_consistency();
  }
}

}  // namespace
}  // namespace tsajs::jtora
