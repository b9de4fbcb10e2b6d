// Chaos harness: randomized fault schedules (server outages and sub-channel
// blackouts) against every registered scheme, warm and cold.
// Every epoch's solve goes through run_and_validate, so one timeline is a
// few dozen full release-mode constraint audits; the harness additionally
// checks the degradation telemetry invariants epoch by epoch and that no
// scheme ever places a user on a masked resource.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <string>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "common/rng.h"
#include "geo/hex_layout.h"
#include "geo/partition.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "sim/dynamic.h"
#include "support/solve.h"

namespace tsajs::sim {
namespace {

// Small grid so even the exhaustive scheme stays fast, with fault rates
// aggressive enough that most epochs carry at least one active fault.
DynamicConfig chaos_config() {
  DynamicConfig config;
  config.epochs = 40;
  config.activity_prob = 0.7;
  config.fault.server_mtbf_epochs = 6.0;
  config.fault.server_mttr_epochs = 3.0;
  config.fault.subchannel_blackout_prob = 0.05;
  return config;
}

constexpr std::size_t kPopulation = 6;
constexpr std::size_t kServers = 3;
constexpr std::size_t kSubchannels = 2;

void check_report_invariants(const std::string& scheme,
                             const DynamicReport& report,
                             std::size_t epochs) {
  SCOPED_TRACE("scheme: " + scheme);
  ASSERT_EQ(report.epochs.size(), epochs);
  std::size_t faulted = 0;
  std::size_t evictions = 0;
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const EpochStats& stats = report.epochs[e];
    EXPECT_TRUE(std::isfinite(stats.utility));
    EXPECT_LE(stats.servers_down, kServers);
    EXPECT_LE(stats.slots_unavailable, kServers * kSubchannels);
    // Down servers contribute all their slots to the unavailable count.
    EXPECT_GE(stats.slots_unavailable, stats.servers_down * kSubchannels);
    EXPECT_LE(stats.evictions, stats.active_users);
    if (!stats.faulted) {
      EXPECT_EQ(stats.servers_down, 0u);
      EXPECT_EQ(stats.slots_unavailable, 0u);
      EXPECT_EQ(stats.evictions, 0u);
    }
    if (stats.faulted) ++faulted;
    evictions += stats.evictions;
  }
  EXPECT_EQ(report.faulted_epochs, faulted);
  EXPECT_EQ(report.total_evictions, evictions);
  // Scheduled-epoch samples split cleanly by fault state.
  EXPECT_EQ(report.healthy_utility.count() + report.faulted_utility.count(),
            report.utility.count());
}

// Every registered scheme x {cold, warm} on its own randomized fault
// timeline. Feasibility is asserted on every single solve: the simulator
// routes each epoch through run_and_validate, which throws ValidationError
// on any 12b-12d breach, masked-slot assignment, or non-finite outcome.
// Across the matrix this exceeds 200 fault-injected epochs.
TEST(ChaosTest, AllSchemesSurviveRandomizedFaultTimelines) {
  const DynamicConfig config = chaos_config();
  const DynamicSimulator simulator(kPopulation, kServers, kSubchannels,
                                   config);
  std::size_t faulted_epochs_total = 0;
  std::size_t seed = 1000;
  for (const std::string& scheme : algo::scheduler_names()) {
    const auto scheduler = algo::make_scheduler(scheme);
    for (const WarmStart warm : {WarmStart::kCold, WarmStart::kWarm}) {
      // Distinct seed per run -> a distinct randomized fault schedule.
      Rng rng(++seed);
      const DynamicReport report = simulator.run(*scheduler, rng, warm);
      check_report_invariants(scheme, report, config.epochs);
      faulted_epochs_total += report.faulted_epochs;
    }
  }
  EXPECT_GE(faulted_epochs_total, 200u);
}

// The parallel sharded wrapper under the same chaos harness, with worker
// threads on and a reach small enough that the 3-server hex grid really
// splits into shards (hex sites are 1000 m apart, so 400 m tiles isolate
// every site). Exercises the multicore shard solves on fault-mutated
// scenarios, one scheduler instance across all epochs, and — with the
// wider reach — the colored boundary fixup, all under TSan in the
// sanitizer CI job.
TEST(ChaosTest, ShardedSchedulerSurvivesFaultsWithWorkerThreads) {
  const DynamicConfig config = chaos_config();
  const DynamicSimulator simulator(kPopulation, kServers, kSubchannels,
                                   config);
  std::size_t seed = 3000;
  // 400 m isolates every site; 1000 m splits the grid into two shards whose
  // sites lie within reach of each other, so the fixup sweep and its commit
  // path run too (any longer reach puts all three sites in one tile).
  const geo::HexLayout layout(kServers, mec::kInterSiteDistanceM);
  const geo::InterferencePartition fixup_partition(layout.sites(), 1000.0);
  ASSERT_GT(fixup_partition.num_shards(), 1u);
  ASSERT_FALSE(fixup_partition.boundary_cells().empty());
  for (const double reach : {400.0, 1000.0}) {
    algo::RegistryOptions options;
    options.shard_reach_m = reach;
    options.shard_threads = 2;
    const auto scheduler = algo::make_scheduler("sharded:tsajs", options);
    for (const WarmStart warm : {WarmStart::kCold, WarmStart::kWarm}) {
      SCOPED_TRACE("reach " + std::to_string(reach));
      Rng rng(++seed);
      const DynamicReport report = simulator.run(*scheduler, rng, warm);
      check_report_invariants("sharded:tsajs", report, config.epochs);
      EXPECT_GE(report.faulted_epochs, 1u);
    }
  }
}

// Static cross-check of the same property without the simulator in the
// loop: on a scenario with a failed server and a blacked-out slot, every
// registered scheme must produce an assignment that leaves the masked
// resources untouched (and pass the full audit doing it).
TEST(ChaosTest, NoSchemeAssignsToMaskedResources) {
  Rng env(77);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(kPopulation)
                                 .num_servers(kServers)
                                 .num_subchannels(kSubchannels)
                                 .build(env);
  mec::Availability mask(kServers, kSubchannels);
  mask.fail_server(1);
  mask.block_slot(2, 0);
  const mec::Scenario scenario = base.with_availability(mask);

  for (const std::string& scheme : algo::scheduler_names()) {
    SCOPED_TRACE("scheme: " + scheme);
    const auto scheduler = algo::make_scheduler(scheme);
    Rng rng(123);
    const algo::ScheduleResult result =
        test::validated(*scheduler, scenario, rng);
    for (std::size_t u = 0; u < kPopulation; ++u) {
      const auto slot = result.assignment.slot_of(u);
      if (!slot.has_value()) continue;
      EXPECT_NE(slot->server, 1u);
      EXPECT_FALSE(slot->server == 2 && slot->subchannel == 0);
      EXPECT_TRUE(scenario.slot_available(slot->server, slot->subchannel));
    }
  }
}

// With every server down, all schemes must degrade to the all-local
// fallback (utility exactly zero) rather than fail.
TEST(ChaosTest, TotalOutageDegradesToAllLocal) {
  Rng env(78);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(kPopulation)
                                 .num_servers(kServers)
                                 .num_subchannels(kSubchannels)
                                 .build(env);
  mec::Availability mask(kServers, kSubchannels);
  for (std::size_t s = 0; s < kServers; ++s) mask.fail_server(s);
  const mec::Scenario scenario = base.with_availability(mask);

  for (const std::string& scheme : algo::scheduler_names()) {
    SCOPED_TRACE("scheme: " + scheme);
    const auto scheduler = algo::make_scheduler(scheme);
    Rng rng(9);
    const algo::ScheduleResult result =
        test::validated(*scheduler, scenario, rng);
    EXPECT_EQ(result.assignment.num_offloaded(), 0u);
    EXPECT_EQ(result.system_utility, 0.0);
  }
}

// Disabled faults leave the degradation telemetry empty — the fault plumbing
// must be invisible on healthy timelines.
TEST(ChaosTest, DisabledFaultsReportNoDegradationTelemetry) {
  DynamicConfig config;
  config.epochs = 10;
  const DynamicSimulator simulator(kPopulation, kServers, kSubchannels,
                                   config);
  const auto scheduler = algo::make_scheduler("greedy");
  Rng rng(4);
  const DynamicReport report = simulator.run(*scheduler, rng);
  EXPECT_EQ(report.faulted_epochs, 0u);
  EXPECT_EQ(report.total_evictions, 0u);
  EXPECT_EQ(report.healthy_utility.count(), 0u);
  EXPECT_EQ(report.faulted_utility.count(), 0u);
  EXPECT_EQ(report.epochs_to_recover.count(), 0u);
  for (const EpochStats& stats : report.epochs) {
    EXPECT_FALSE(stats.faulted);
    EXPECT_EQ(stats.servers_down, 0u);
  }
}

}  // namespace
}  // namespace tsajs::sim
