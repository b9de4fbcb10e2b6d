// Every registered scheme on cloud-enabled scenarios, warm-start repair of
// stranded forwarding, and warm-hint slicing under cross-shard churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "common/rng.h"
#include "geo/partition.h"
#include "geo/point.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/sharded_problem.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/cloud.h"
#include "mec/scenario_builder.h"
#include "support/nearest_server.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_cloud_scenario(std::uint64_t seed, std::size_t users = 6,
                                  std::size_t servers = 2,
                                  std::size_t subchannels = 2,
                                  double edge_cpu_hz = 4e9) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .server_cpu_hz(edge_cpu_hz)
      .cloud(/*cpu_hz=*/100e9, /*backhaul_bps=*/200e6,
             /*backhaul_latency_s=*/0.01)
      .build(rng);
}

std::vector<geo::Point> sites_of(const mec::Scenario& scenario) {
  std::vector<geo::Point> sites;
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    sites.push_back(scenario.server(s).position);
  }
  return sites;
}

TEST(CloudSchedulersTest, EveryRegisteredSchemeSolvesACloudScenario) {
  // Tiny on purpose: exhaustive is in the list. run_and_validate audits
  // feasibility including the forwarding invariants (offloaded, live
  // backhaul, admission cap), so a pass here means every scheme is
  // cloud-safe.
  const mec::Scenario scenario = make_cloud_scenario(211, 5, 2, 2);
  std::vector<std::string> names = scheduler_names();
  names.push_back("sharded:tsajs");
  for (const auto& name : names) {
    const auto scheduler = make_scheduler(name);
    Rng rng(7);
    const ScheduleResult result = test::validated(*scheduler, scenario, rng);
    result.assignment.check_consistency();
    EXPECT_TRUE(result.assignment.cloud_enabled()) << name;
  }
}

TEST(CloudSchedulersTest, ForwardingRaisesUtilityUnderEdgeOverload) {
  // Same drop (with_cloud shares gains), starved edge CPUs: the schemes
  // that place the tier explicitly must beat their own two-tier result,
  // and actually use the cloud to do it.
  Rng rng(223);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(12)
                                 .num_servers(3)
                                 .num_subchannels(4)
                                 .server_cpu_hz(2e9)
                                 .build(rng);
  const mec::Scenario cloudy =
      base.with_cloud(mec::CloudTier{100e9, 200e6, 0.005});
  for (const char* name : {"greedy", "hjtora", "tsajs"}) {
    const auto scheduler = make_scheduler(name);
    Rng rng_off(31);
    Rng rng_on(31);
    const ScheduleResult off = test::validated(*scheduler, base, rng_off);
    const ScheduleResult on = test::validated(*scheduler, cloudy, rng_on);
    EXPECT_GT(on.system_utility, off.system_utility) << name;
    EXPECT_GT(on.assignment.num_forwarded(), 0u) << name;
  }
}

TEST(CloudSchedulersTest, RepairHintRecallsUsersStrandedOnDeadBackhaul) {
  const mec::Scenario base = make_cloud_scenario(227, 8, 3, 3);
  jtora::Assignment hint(base);
  hint.offload(0, 0, 0);
  hint.offload(1, 1, 0);
  hint.offload(2, 1, 1);
  hint.set_forwarded(0, true);
  hint.set_forwarded(1, true);
  hint.set_forwarded(2, true);

  mec::Availability mask(base.num_servers(), base.num_subchannels());
  mask.fail_backhaul(1);
  const mec::Scenario faulted = base.with_availability(mask);
  const jtora::Assignment repaired = repair_hint(faulted, hint);
  repaired.check_consistency();
  // Server 0's backhaul is alive: the placement survives intact.
  EXPECT_TRUE(repaired.is_forwarded(0));
  // Server 1's is dead: the slots are kept (radio is fine) but the cloud
  // placement is recalled to the edge.
  ASSERT_TRUE(repaired.slot_of(1).has_value());
  ASSERT_TRUE(repaired.slot_of(2).has_value());
  EXPECT_FALSE(repaired.is_forwarded(1));
  EXPECT_FALSE(repaired.is_forwarded(2));
  EXPECT_EQ(repaired.num_forwarded(), 1u);
}

TEST(CloudSchedulersTest, RepairHintDropsForwardingWhenCloudDisappears) {
  const mec::Scenario cloudy = make_cloud_scenario(229, 6, 2, 2);
  jtora::Assignment hint(cloudy);
  hint.offload(0, 0, 0);
  hint.set_forwarded(0, true);
  Rng rng(3);
  const mec::Scenario plain = mec::ScenarioBuilder()
                                  .num_users(6)
                                  .num_servers(2)
                                  .num_subchannels(2)
                                  .build(rng);
  const jtora::Assignment repaired = repair_hint(plain, hint);
  repaired.check_consistency();
  EXPECT_FALSE(repaired.cloud_enabled());
  EXPECT_TRUE(repaired.slot_of(0).has_value());
  EXPECT_EQ(repaired.num_forwarded(), 0u);
}

// --- warm-hint slicing under cross-shard churn ----------------------------

TEST(CloudShardHintTest, SlicingKeepsInShardForwardingOnly) {
  Rng rng(233);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(40)
                                     .num_servers(9)
                                     .num_subchannels(3)
                                     .cloud(100e9, 200e6, 0.01)
                                     .build(rng);
  const jtora::CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const jtora::ShardedProblem sharded(problem, partition);
  ASSERT_GT(sharded.num_shards(), 1u);

  // Global hint: every user offloaded onto its home server's first free
  // sub-channel (some won't fit; fine), forwarded where admitted.
  jtora::Assignment global(scenario);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    const std::size_t s = test::nearest_server(scenario, u);
    if (global.num_free_subchannels(s) == 0) continue;
    std::size_t j = 0;
    while (global.occupant(s, j).has_value()) ++j;
    global.offload(u, s, j);
    global.set_forwarded(u, true);
  }
  ASSERT_GT(global.num_forwarded(), 0u);

  for (std::size_t k = 0; k < sharded.num_shards(); ++k) {
    const jtora::ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.scenario == nullptr) continue;
    const jtora::Assignment local = sharded.shard_hint(k, global);
    local.check_consistency();
    for (std::size_t i = 0; i < shard.users.size(); ++i) {
      const std::size_t gu = shard.users[i];
      EXPECT_EQ(local.is_forwarded(i), global.is_forwarded(gu))
          << "shard " << k << " user " << gu;
      if (global.slot_of(gu).has_value()) {
        ASSERT_TRUE(local.slot_of(i).has_value());
        EXPECT_EQ(shard.servers[local.slot_of(i)->server],
                  global.slot_of(gu)->server);
      }
    }
  }
}

TEST(CloudShardHintTest, ChurnedUserEntersItsNewShardLocal) {
  // A user whose global slot sits on a server *outside* its current shard
  // (it moved between epochs, its slice changed) must enter the per-shard
  // solve local — with no stale forwarding bit riding along.
  Rng rng(239);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(40)
                                     .num_servers(9)
                                     .num_subchannels(3)
                                     .cloud(100e9, 200e6, 0.01)
                                     .build(rng);
  const jtora::CompiledProblem problem(scenario);
  const geo::InterferencePartition partition(sites_of(scenario), 2000.0);
  const jtora::ShardedProblem sharded(problem, partition);
  ASSERT_GT(sharded.num_shards(), 1u);

  // Pick a user and a server in a *different* shard than its home shard —
  // that is exactly the state a stale hint has after cross-shard churn.
  const std::size_t user = 0;
  const std::size_t home_shard =
      partition.shard_of(test::nearest_server(scenario, user));
  std::size_t foreign_server = 0;
  while (foreign_server < scenario.num_servers() &&
         partition.shard_of(foreign_server) == home_shard) {
    ++foreign_server;
  }
  ASSERT_LT(foreign_server, scenario.num_servers());

  jtora::Assignment global(scenario);
  global.offload(user, foreign_server, 0);
  global.set_forwarded(user, true);

  const jtora::Assignment local =
      sharded.shard_hint(home_shard, global);
  local.check_consistency();
  const jtora::ShardedProblem::Shard& shard = sharded.shard(home_shard);
  std::size_t li = shard.users.size();
  for (std::size_t i = 0; i < shard.users.size(); ++i) {
    if (shard.users[i] == user) li = i;
  }
  ASSERT_LT(li, shard.users.size());
  EXPECT_FALSE(local.slot_of(li).has_value());
  EXPECT_FALSE(local.is_forwarded(li));
  EXPECT_EQ(local.num_forwarded(), 0u);
}

TEST(CloudShardHintTest, ShardedWarmSolveSurvivesCrossShardChurn) {
  // End-to-end satellite check: solve epoch 1, rebuild the drop with every
  // user in a new position (many change home shard), and hand epoch 1's
  // assignment to sharded:tsajs as the warm hint. The hinted solve must
  // stay audited-feasible and keep the hint's quality floor semantics.
  const std::size_t users = 40;
  Rng rng_a(241);
  const mec::Scenario epoch1 = mec::ScenarioBuilder()
                                   .num_users(users)
                                   .num_servers(9)
                                   .num_subchannels(3)
                                   .cloud(100e9, 200e6, 0.01)
                                   .build(rng_a);
  Rng rng_b(251);  // fresh drop: positions (and thus shards) reshuffle
  const mec::Scenario epoch2 = mec::ScenarioBuilder()
                                   .num_users(users)
                                   .num_servers(9)
                                   .num_subchannels(3)
                                   .cloud(100e9, 200e6, 0.01)
                                   .build(rng_b);

  const auto scheduler = make_scheduler("sharded:tsajs");
  Rng rng1(61);
  const ScheduleResult first = test::validated(*scheduler, epoch1, rng1);
  first.assignment.check_consistency();

  Rng rng2(62);
  const ScheduleResult warm =
      test::validated(*scheduler, epoch2, rng2, &first.assignment);
  warm.assignment.check_consistency();
  EXPECT_EQ(warm.assignment.num_users(), users);

  // Determinism of the warm path under churn.
  Rng rng3(62);
  const ScheduleResult again =
      test::validated(*scheduler, epoch2, rng3, &first.assignment);
  EXPECT_DOUBLE_EQ(warm.system_utility, again.system_utility);
  for (std::size_t u = 0; u < users; ++u) {
    EXPECT_EQ(warm.assignment.slot_of(u), again.assignment.slot_of(u));
    EXPECT_EQ(warm.assignment.is_forwarded(u), again.assignment.is_forwarded(u));
  }
}

}  // namespace
}  // namespace tsajs::algo
