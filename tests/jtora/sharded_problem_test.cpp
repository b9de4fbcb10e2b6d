#include "jtora/sharded_problem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/scheduler.h"
#include "common/error.h"
#include "common/rng.h"
#include "geo/partition.h"
#include "geo/point.h"
#include "jtora/compiled_problem.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "support/nearest_server.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 40,
                            std::size_t servers = 9,
                            std::size_t subchannels = 3) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

std::vector<geo::Point> sites_of(const mec::Scenario& scenario) {
  std::vector<geo::Point> sites;
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    sites.push_back(scenario.server(s).position);
  }
  return sites;
}

TEST(ShardedProblemTest, PartitionsEveryUserExactlyOnce) {
  const mec::Scenario scenario = make_scenario(1);
  const CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const ShardedProblem sharded(problem, partition);
  ASSERT_GT(sharded.num_shards(), 1u);

  std::vector<std::size_t> seen(scenario.num_users(), 0);
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    EXPECT_EQ(shard.servers, partition.cells(k));
    for (std::size_t i = 0; i < shard.users.size(); ++i) {
      const std::size_t u = shard.users[i];
      ++seen[u];
      // The user's shard holds its nearest server, its home cell.
      EXPECT_EQ(partition.shard_of(test::nearest_server(scenario, u)), k);
      if (i > 0) {
        EXPECT_LT(shard.users[i - 1], u);  // ascending
      }
    }
    if (!shard.users.empty()) {
      ASSERT_NE(shard.scenario, nullptr);
      ASSERT_NE(shard.problem, nullptr);
      EXPECT_EQ(shard.scenario->num_users(), shard.users.size());
      EXPECT_EQ(shard.scenario->num_servers(), shard.servers.size());
    } else {
      EXPECT_EQ(shard.scenario, nullptr);
    }
  }
  for (const std::size_t n : seen) EXPECT_EQ(n, 1u);
}

// Each user's shard holds a server no farther from the user than any other
// server: the user is homed at its nearest cell. Checked against raw
// distances, so it also pins the test-side nearest_server oracle.
TEST(ShardedProblemTest, HomeServerIsNearest) {
  const mec::Scenario scenario = make_scenario(2, 25);
  const CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const ShardedProblem sharded(problem, partition);
  std::size_t checked = 0;
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    for (const std::size_t u : shard.users) {
      const geo::Point pos = scenario.user(u).position;
      const std::size_t oracle = test::nearest_server(scenario, u);
      double home_sq = geo::distance_squared(
          pos, scenario.server(shard.servers[0]).position);
      for (const std::size_t s : shard.servers) {
        home_sq = std::min(
            home_sq, geo::distance_squared(pos, scenario.server(s).position));
      }
      for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
        const double d_sq =
            geo::distance_squared(pos, scenario.server(s).position);
        EXPECT_LE(home_sq, d_sq);
        EXPECT_LE(geo::distance_squared(pos, scenario.server(oracle).position),
                  d_sq);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, scenario.num_users());
}

TEST(ShardedProblemTest, SignalTableSlicesBitwise) {
  const mec::Scenario scenario = make_scenario(3);
  const CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const ShardedProblem sharded(problem, partition);
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.problem == nullptr) continue;
    for (std::size_t lu = 0; lu < shard.users.size(); ++lu) {
      for (std::size_t ls = 0; ls < shard.servers.size(); ++ls) {
        EXPECT_EQ(shard.problem->signal(lu, ls),
                  problem.signal(shard.users[lu], shard.servers[ls]));
      }
    }
  }
}

TEST(ShardedProblemTest, SingleShardReproducesParentBitwise) {
  const mec::Scenario scenario = make_scenario(4, 20);
  const CompiledProblem problem(scenario);
  // A reach wider than the deployment puts every cell in one tile.
  const geo::InterferencePartition partition(sites_of(scenario), 1e7);
  ASSERT_EQ(partition.num_shards(), 1u);
  const ShardedProblem sharded(problem, partition);
  const ShardedProblem::Shard& shard = sharded.shard(0);
  ASSERT_NE(shard.problem, nullptr);
  EXPECT_TRUE(shard.problem->bitwise_equal(problem));
  EXPECT_TRUE(sharded.boundary_users_of(0).empty());
}

TEST(ShardedProblemTest, CarriesAvailabilityMasks) {
  const mec::Scenario base = make_scenario(5, 30);
  mec::Availability availability(base.num_servers(), base.num_subchannels());
  availability.fail_server(0);
  availability.block_slot(4, 1);
  const mec::Scenario scenario = base.with_availability(availability);
  const CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const ShardedProblem sharded(problem, partition);
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.scenario == nullptr) continue;
    for (std::size_t ls = 0; ls < shard.servers.size(); ++ls) {
      const std::size_t gs = shard.servers[ls];
      EXPECT_EQ(shard.scenario->server_available(ls),
                scenario.server_available(gs));
      for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
        EXPECT_EQ(shard.scenario->slot_available(ls, j),
                  scenario.slot_available(gs, j));
      }
    }
  }
}

TEST(ShardedProblemTest, MergePreservesSlotsAndStaysFeasible) {
  const mec::Scenario scenario = make_scenario(6);
  const CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const ShardedProblem sharded(problem, partition);

  Assignment merged(scenario);
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.scenario == nullptr) continue;
    Rng rng(900 + k);
    const Assignment local =
        algo::random_feasible_assignment(*shard.scenario, rng, 0.8);
    sharded.merge_into(k, local, merged);
    for (std::size_t lu = 0; lu < shard.users.size(); ++lu) {
      const auto slot = local.slot_of(lu);
      const auto global_slot = merged.slot_of(shard.users[lu]);
      ASSERT_EQ(slot.has_value(), global_slot.has_value());
      if (slot.has_value()) {
        EXPECT_EQ(global_slot->server, shard.servers[slot->server]);
        EXPECT_EQ(global_slot->subchannel, slot->subchannel);
      }
    }
  }
  merged.check_consistency();
}

// The decomposition's accounting identity: a user's global co-channel
// interference equals its in-shard interference plus the signals of the
// out-of-shard occupants of its sub-channel. This is exactly the term the
// shard solve neglects and the boundary fixup re-prices.
TEST(ShardedProblemTest, CrossShardInterferenceAccounting) {
  const mec::Scenario scenario = make_scenario(7, 60);
  const CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const ShardedProblem sharded(problem, partition);
  ASSERT_GT(sharded.num_shards(), 1u);

  // Merge one random in-shard solution per shard.
  Assignment merged(scenario);
  std::vector<Assignment> locals;
  std::vector<std::size_t> local_shard;
  std::vector<std::size_t> shard_of_user(scenario.num_users());
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.scenario == nullptr) continue;
    for (const std::size_t u : shard.users) shard_of_user[u] = k;
    Rng rng(70 + k);
    locals.push_back(
        algo::random_feasible_assignment(*shard.scenario, rng, 0.9));
    local_shard.push_back(k);
    sharded.merge_into(k, locals.back(), merged);
  }

  std::size_t checked = 0;
  for (const std::size_t u : merged.offloaded_users()) {
    const std::size_t k = shard_of_user[u];
    const auto slot = merged.slot_of(u);
    ASSERT_TRUE(slot.has_value());
    // Global interference: every other occupant of u's sub-channel, walked
    // server by server in ascending order.
    double global = 0.0;
    for (std::size_t r = 0; r < problem.num_servers(); ++r) {
      if (r == slot->server) continue;
      const auto occupant = merged.occupant(r, slot->subchannel);
      if (!occupant.has_value()) continue;
      global += problem.signal(*occupant, slot->server);
    }
    // In-shard part: interference the shard solve could see.
    double in_shard = 0.0;
    double foreign = 0.0;
    for (const std::size_t v : merged.offloaded_users()) {
      if (v == u) continue;
      const auto vslot = merged.slot_of(v);
      if (vslot->subchannel != slot->subchannel) continue;
      if (vslot->server == slot->server) continue;
      const double signal = problem.signal(v, slot->server);
      if (shard_of_user[v] == k) {
        in_shard += signal;
      } else {
        foreign += signal;
      }
    }
    const double tol = 1e-12 * std::max(std::fabs(global), 1e-300);
    EXPECT_NEAR(global, in_shard + foreign, tol);
    if (foreign > 0.0) ++checked;
  }
  // The drop is dense enough that cross-shard interference actually occurs.
  EXPECT_GT(checked, 0u);
}

TEST(ShardedProblemTest, RejectsMismatchedPartition) {
  const mec::Scenario scenario = make_scenario(8, 10, 4, 2);
  const CompiledProblem problem(scenario);
  const std::vector<geo::Point> too_few{{0.0, 0.0}, {5000.0, 0.0}};
  const geo::InterferencePartition partition(too_few, 1000.0);
  EXPECT_THROW(ShardedProblem(problem, partition), InvalidArgumentError);
}

TEST(ShardedProblemTest, BoundaryUsersOfPartitionsBoundaryUsers) {
  const mec::Scenario scenario = make_scenario(12, 60);
  const CompiledProblem problem(scenario);
  const std::vector<geo::Point> sites = sites_of(scenario);
  const geo::InterferencePartition partition(
      sites, geo::InterferencePartition::auto_reach(sites));
  const ShardedProblem sharded(problem, partition);

  std::vector<std::size_t> collected;
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const std::vector<std::size_t>& list = sharded.boundary_users_of(k);
    const std::vector<std::size_t>& users = sharded.shard(k).users;
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    for (const std::size_t u : list) {
      EXPECT_TRUE(std::binary_search(users.begin(), users.end(), u));
      collected.push_back(u);
    }
  }
  std::sort(collected.begin(), collected.end());
  // Together the lists hold exactly the users homed in a boundary cell.
  std::vector<std::size_t> homed_on_boundary;
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (partition.is_boundary(test::nearest_server(scenario, u))) {
      homed_on_boundary.push_back(u);
    }
  }
  EXPECT_FALSE(homed_on_boundary.empty());
  EXPECT_EQ(collected, homed_on_boundary);
  EXPECT_THROW((void)sharded.boundary_users_of(sharded.num_shards()),
               InvalidArgumentError);
}

TEST(ShardedProblemTest, ServerIndexMapsRoundTrip) {
  const mec::Scenario scenario = make_scenario(13, 30);
  const CompiledProblem problem(scenario);
  const std::vector<geo::Point> sites = sites_of(scenario);
  const geo::InterferencePartition partition(
      sites, geo::InterferencePartition::auto_reach(sites));
  const ShardedProblem sharded(problem, partition);
  // A slot on each server of each populated shard merges onto its global
  // server and slices back to the same local one: merge_into reads the
  // shard's server list, shard_hint the global -> (shard, index) maps.
  std::size_t round_trips = 0;
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.scenario == nullptr) continue;
    for (std::size_t ls = 0; ls < shard.servers.size(); ++ls) {
      const std::size_t s = shard.servers[ls];
      EXPECT_EQ(partition.shard_of(s), k);
      Assignment local(*shard.scenario);
      local.offload(0, ls, 0);
      Assignment global(scenario);
      sharded.merge_into(k, local, global);
      EXPECT_EQ(global.slot_of(shard.users[0]), (Slot{s, 0}));
      EXPECT_EQ(sharded.shard_hint(k, global).slot_of(0), (Slot{ls, 0}));
      ++round_trips;
    }
  }
  // More round trips than shards: local indices past 0 are covered too.
  EXPECT_GT(round_trips, sharded.num_shards());
}

// shard_hint slices a feasible global assignment into a shard's local
// frame: in-shard slots survive (translated), out-of-shard placements
// start local.
TEST(ShardedProblemTest, ShardHintSlicesGlobalAssignment) {
  const mec::Scenario scenario = make_scenario(17, 40);
  const CompiledProblem problem(scenario);
  const std::vector<geo::Point> sites = sites_of(scenario);
  const geo::InterferencePartition partition(
      sites, geo::InterferencePartition::auto_reach(sites));
  const ShardedProblem sharded(problem, partition);

  Rng rng(5);
  const Assignment global =
      algo::random_feasible_assignment(scenario, rng, 0.6);
  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.problem == nullptr) continue;
    const Assignment local = sharded.shard_hint(k, global);
    ASSERT_EQ(local.num_users(), shard.users.size());
    for (std::size_t lu = 0; lu < shard.users.size(); ++lu) {
      const auto global_slot = global.slot_of(shard.users[lu]);
      const auto local_slot = local.slot_of(lu);
      const bool in_shard =
          global_slot.has_value() &&
          partition.shard_of(global_slot->server) == k;
      if (in_shard) {
        ASSERT_TRUE(local_slot.has_value());
        EXPECT_EQ(shard.servers[local_slot->server], global_slot->server);
        EXPECT_EQ(local_slot->subchannel, global_slot->subchannel);
      } else {
        EXPECT_FALSE(local_slot.has_value());
      }
    }
    local.check_consistency();
  }
}

}  // namespace
}  // namespace tsajs::jtora
