#include "jtora/assignment.h"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.h"
#include "mec/availability.h"
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

// --- the free-slot queries against the slot scan they replaced -----------

/// The draw the free-slot queries made before the per-server bit words:
/// count the indices in [0, n) that satisfy `pred`, draw one
/// rng.uniform_index(count) and return the k-th of them in ascending order;
/// nullopt, with no draw, when none does.
template <typename Pred>
std::optional<std::size_t> uniform_index_where(Rng& rng, std::size_t n,
                                               Pred&& pred) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(i)) ++count;
  }
  if (count == 0) return std::nullopt;
  std::uint64_t k = rng.uniform_index(count);
  for (std::size_t i = 0; i < n; ++i) {
    if (!pred(i)) continue;
    if (k == 0) return i;
    --k;
  }
  return std::nullopt;
}

bool scanned_free(const Assignment& x, std::size_t s, std::size_t j) {
  return !x.occupant(s, j).has_value() && x.slot_available(s, j);
}

std::size_t scanned_num_free(const Assignment& x, std::size_t s) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < x.num_subchannels(); ++j) {
    if (scanned_free(x, s, j)) ++count;
  }
  return count;
}

std::optional<std::size_t> scanned_random_free_subchannel(const Assignment& x,
                                                          std::size_t s,
                                                          Rng& rng) {
  return uniform_index_where(rng, x.num_subchannels(), [&](std::size_t j) {
    return scanned_free(x, s, j);
  });
}

std::optional<Slot> scanned_random_free_slot(const Assignment& x, Rng& rng) {
  const auto s = uniform_index_where(rng, x.num_servers(), [&](std::size_t i) {
    return scanned_num_free(x, i) > 0;
  });
  if (!s.has_value()) return std::nullopt;
  return Slot{*s, *scanned_random_free_subchannel(x, *s, rng)};
}

/// Every free-slot query against its scan: the same answer from the same
/// generator, and the same generator state afterwards.
void expect_queries_match_scan(const Assignment& x, std::uint64_t seed) {
  for (std::size_t s = 0; s < x.num_servers(); ++s) {
    ASSERT_EQ(x.num_free_subchannels(s), scanned_num_free(x, s));
    Rng words(seed + s);
    Rng scan(seed + s);
    ASSERT_EQ(x.random_free_subchannel(s, words),
              scanned_random_free_subchannel(x, s, scan));
    ASSERT_EQ(words.next_u64(), scan.next_u64());
  }
  Rng words(seed);
  Rng scan(seed);
  ASSERT_EQ(x.random_free_slot(words), scanned_random_free_slot(x, scan));
  ASSERT_EQ(words.next_u64(), scan.next_u64());
}

/// A drop of 2-6 servers with 1-10 sub-channels (64 in one trial in eight,
/// a full word), a cloud tier half the time and a fault mask half the time.
mec::Scenario random_drop(Rng& rng, bool full_word) {
  const std::size_t servers = 2 + rng.uniform_index(5);
  const std::size_t subchannels = full_word ? 64 : 1 + rng.uniform_index(10);
  const std::size_t users = 1 + rng.uniform_index(servers * subchannels + 4);
  const bool cloud = rng.bernoulli(0.5);
  mec::ScenarioBuilder builder;
  builder.num_users(users).num_servers(servers).num_subchannels(subchannels);
  if (cloud) builder.cloud(80e9, 120e6, 0.015, rng.bernoulli(0.5) ? 3 : 0);
  const mec::Scenario base = builder.build(rng);
  if (rng.bernoulli(0.5)) return base;
  mec::Availability mask(servers, subchannels);
  for (int k = 0; k < 3; ++k) {
    mask.block_slot(rng.uniform_index(servers), rng.uniform_index(subchannels));
  }
  if (rng.bernoulli(0.5)) mask.fail_server(rng.uniform_index(servers));
  if (cloud) mask.fail_backhaul(rng.uniform_index(servers));
  return base.with_availability(mask);
}

TEST(AssignmentProperty, FreeSlotQueriesMatchTheSlotScan) {
  Rng rng(2027);
  std::size_t full_servers = 0;
  std::size_t masked_drops = 0;
  std::size_t clears = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const mec::Scenario scenario = random_drop(rng, trial % 8 == 7);
    if (!scenario.fully_available()) ++masked_drops;
    Assignment x(scenario);
    const std::size_t users = scenario.num_users();
    for (int step = 0; step < 300; ++step) {
      const auto u = static_cast<std::size_t>(rng.uniform_index(users));
      const std::uint64_t op = rng.uniform_index(100);
      if (op < 45) {
        const auto s = static_cast<std::size_t>(
            rng.uniform_index(scenario.num_servers()));
        const auto j = static_cast<std::size_t>(
            rng.uniform_index(scenario.num_subchannels()));
        if (scanned_free(x, s, j)) x.offload(u, s, j);
      } else if (op < 70) {
        x.make_local(u);
      } else if (op < 90) {
        x.swap(u, static_cast<std::size_t>(rng.uniform_index(users)));
      } else if (op < 99) {
        if (x.can_forward(u)) x.set_forwarded(u, true);
      } else {
        x = Assignment(scenario);
        ++clears;
      }
      x.check_consistency();
      expect_queries_match_scan(x, rng.next_u64());
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "trial " << trial << " step " << step;
      }
      for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
        if (scenario.server_available(s) && x.num_free_subchannels(s) == 0) {
          ++full_servers;
        }
      }
    }
  }
  // The chains reach what the words must get right: full servers, masked
  // slots and resets.
  EXPECT_GT(full_servers, 1000u);
  EXPECT_GT(masked_drops, 10u);
  EXPECT_GT(clears, 50u);
}

TEST(AssignmentTest, SixtyFourSubchannelsFillOneWord) {
  const mec::Scenario scenario = make_scenario(70, 2, 64);
  Assignment x(scenario);
  for (std::size_t j = 0; j < 64; ++j) x.offload(j, 1, j);
  EXPECT_EQ(x.num_free_subchannels(0), 64u);
  EXPECT_EQ(x.num_free_subchannels(1), 0u);
  Rng rng(3);
  EXPECT_FALSE(x.random_free_subchannel(1, rng).has_value());
  x.make_local(63);
  EXPECT_EQ(x.random_free_subchannel(1, rng), std::optional<std::size_t>{63});
  x.check_consistency();
}

}  // namespace
}  // namespace tsajs::jtora
