#include "sim/dynamic.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/greedy.h"
#include "algo/hjtora.h"
#include "algo/registry.h"
#include "algo/tsajs.h"
#include "common/error.h"

namespace tsajs::sim {
namespace {

DynamicConfig quick_config() {
  DynamicConfig config;
  config.epochs = 10;
  return config;
}

TEST(DynamicConfigTest, Validation) {
  DynamicConfig config;
  config.epochs = 0;
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config = DynamicConfig{};
  config.activity_prob = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  EXPECT_NO_THROW(DynamicConfig{}.validate());
}

TEST(DynamicSimulatorTest, RunsAllEpochs) {
  const DynamicSimulator simulator(20, 4, 2, quick_config());
  Rng rng(1);
  const algo::GreedyScheduler scheduler;
  const DynamicReport report = simulator.run(scheduler, rng);
  EXPECT_EQ(report.epochs.size(), 10u);
  EXPECT_EQ(report.utility.count(), 10u);
}

TEST(DynamicSimulatorTest, ActiveUsersTrackActivityProbability) {
  DynamicConfig config = quick_config();
  config.epochs = 40;
  config.activity_prob = 0.5;
  const DynamicSimulator simulator(30, 4, 2, config);
  Rng rng(2);
  const algo::GreedyScheduler scheduler;
  const DynamicReport report = simulator.run(scheduler, rng);
  Accumulator active;
  for (const auto& epoch : report.epochs) {
    active.add(static_cast<double>(epoch.active_users));
    EXPECT_LE(epoch.active_users, 30u);
    EXPECT_LE(epoch.offloaded, epoch.active_users);
  }
  EXPECT_NEAR(active.mean(), 15.0, 2.5);
}

TEST(DynamicSimulatorTest, DeterministicPerSeed) {
  const DynamicSimulator simulator(15, 4, 2, quick_config());
  const algo::GreedyScheduler scheduler;
  Rng rng_a(7);
  Rng rng_b(7);
  const DynamicReport a = simulator.run(scheduler, rng_a);
  const DynamicReport b = simulator.run(scheduler, rng_b);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epochs[e].utility, b.epochs[e].utility);
    EXPECT_EQ(a.epochs[e].offloaded, b.epochs[e].offloaded);
  }
}

TEST(DynamicSimulatorTest, UtilityNonNegativeWithGreedy) {
  // Greedy keeps only beneficial offloads, so every epoch's utility >= 0.
  const DynamicSimulator simulator(20, 4, 2, quick_config());
  Rng rng(3);
  const algo::GreedyScheduler scheduler;
  const DynamicReport report = simulator.run(scheduler, rng);
  for (const auto& epoch : report.epochs) {
    EXPECT_GE(epoch.utility, -1e-12);
  }
}

TEST(DynamicSimulatorTest, TsajsBeatsGreedyOverTimeline) {
  DynamicConfig config = quick_config();
  config.epochs = 12;
  const DynamicSimulator simulator(25, 4, 2, config);
  Rng rng_a(11);
  Rng rng_b(11);
  algo::TsajsConfig tsajs_config;
  tsajs_config.chain_length = 10;
  const DynamicReport tsajs =
      simulator.run(algo::TsajsScheduler(tsajs_config), rng_a);
  const DynamicReport greedy =
      simulator.run(algo::GreedyScheduler(), rng_b);
  EXPECT_GE(tsajs.utility.mean(), greedy.utility.mean() - 1e-9);
}

TEST(DynamicSimulatorTest, FullActivitySchedulesEveryUser) {
  DynamicConfig config = quick_config();
  config.activity_prob = 1.0;
  config.epochs = 5;
  const DynamicSimulator simulator(10, 4, 2, config);
  Rng rng(13);
  const algo::GreedyScheduler scheduler;
  const DynamicReport report = simulator.run(scheduler, rng);
  for (const auto& epoch : report.epochs) {
    EXPECT_EQ(epoch.active_users, 10u);
  }
}

TEST(DynamicSimulatorTest, RejectsBadConstruction) {
  EXPECT_THROW(DynamicSimulator(0, 4, 2), InvalidArgumentError);
  EXPECT_THROW(DynamicSimulator(10, 4, 0), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Cold-path bit-identity. These hexfloat tables were captured from the
// original allocate-per-epoch simulator (before ScenarioWorkspace /
// regenerate_into / warm starts existed). The workspace-based loop must
// reproduce them bit for bit: any change here means the environment RNG
// stream moved and every downstream experiment silently changed.
// ---------------------------------------------------------------------------

struct GoldenEpoch {
  std::size_t active_users;
  std::size_t offloaded;
  double utility;
  double mean_delay_s;
  double mean_energy_j;
};

void expect_matches_golden(const DynamicReport& report,
                           const std::vector<GoldenEpoch>& golden) {
  ASSERT_EQ(report.epochs.size(), golden.size());
  for (std::size_t e = 0; e < golden.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    EXPECT_EQ(report.epochs[e].active_users, golden[e].active_users);
    EXPECT_EQ(report.epochs[e].offloaded, golden[e].offloaded);
    EXPECT_DOUBLE_EQ(report.epochs[e].utility, golden[e].utility);
    EXPECT_DOUBLE_EQ(report.epochs[e].mean_delay_s, golden[e].mean_delay_s);
    EXPECT_DOUBLE_EQ(report.epochs[e].mean_energy_j, golden[e].mean_energy_j);
  }
}

TEST(DynamicGoldenTest, GreedyColdPathBitIdentical) {
  DynamicConfig config;
  config.epochs = 10;
  const DynamicSimulator simulator(15, 4, 2, config);
  Rng rng(7);
  const DynamicReport report = simulator.run(algo::GreedyScheduler(), rng);
  expect_matches_golden(
      report,
      {{11, 4, 0x1.b9540f4b42d3fp+1, 0x1.a3c9f3773a25ep+0,
        0x1.a80685a180d35p+2},
       {9, 4, 0x1.8f45aa7f260fap+1, 0x1.89b263e00bdadp+0,
        0x1.9db0156476504p+2},
       {9, 3, 0x1.cbb5682d77598p+0, 0x1.a5c4bb3ea1d14p+0,
        0x1.e3086ec25a33cp+1},
       {9, 4, 0x1.bd8331f8374d5p+1, 0x1.6544b3206e9e3p+0,
        0x1.5750aa3b2a00dp+2},
       {7, 3, 0x1.5424762fd373cp+1, 0x1.71e16ded179cap+0,
        0x1.6a755afcd66b6p+2},
       {9, 3, 0x1.a57ff552c9641p+0, 0x1.e25a6708e804ep+0,
        0x1.f91e182e87ec2p+2},
       {10, 3, 0x1.4c7a61823c7a3p+1, 0x1.9b760703aa282p+0,
        0x1.adec1d9eff604p+2},
       {11, 5, 0x1.b4bc5e33e11e7p+1, 0x1.13ce973da3c4ap+1,
        0x1.b5db95f03217cp+2},
       {11, 4, 0x1.8e1ba7b9a069dp+1, 0x1.2723a751c2ac3p+0,
        0x1.1bdf7bf48fe5ap+2},
       {11, 6, 0x1.ed3abbd93c162p+1, 0x1.9ec52f0e7dc0ap+0,
        0x1.811b41e59ed13p+1}});
}

TEST(DynamicGoldenTest, TsajsColdPathBitIdentical) {
  DynamicConfig config;
  config.epochs = 8;
  config.activity_prob = 0.4;
  const DynamicSimulator simulator(6, 3, 2, config);
  algo::TsajsConfig tsajs_config;
  tsajs_config.chain_length = 5;
  Rng rng(21);
  const DynamicReport report =
      simulator.run(algo::TsajsScheduler(tsajs_config), rng);
  expect_matches_golden(
      report,
      {{2, 1, 0x1.c365bd1dce8d6p-2, 0x1.2993f60da934bp+1,
        0x1.00a5a54cd6e4cp+2},
       {2, 1, 0x1.63b36f543dc97p-1, 0x1.3661b96bfa6d8p+0,
        0x1.4ff65c44a6849p+1},
       {2, 0, 0x0p+0, 0x1.481d595b66b92p+0, 0x1.9a24afb240677p+2},
       {4, 1, 0x1.d5fe1e2df6167p-2, 0x1.49e2eb7cfb734p+1,
        0x1.15c03fc40001dp+3},
       {1, 0, 0x0p+0, 0x1.746dee1b8f6cdp+1, 0x1.d18969a273481p+3},
       {3, 1, 0x1.747793660964cp-1, 0x1.5d746308a75ffp+1,
        0x1.5fd334c9b3eddp+3},
       {3, 2, 0x1.d1a9584e5c707p+0, 0x1.5e594246f220ap+0,
        0x1.47f95b51674f4p+2},
       {2, 0, 0x0p+0, 0x1.32827a0b019edp+1, 0x1.7f23188dc2068p+3}});
}

TEST(DynamicGoldenTest, EmptyEpochsPreserveStreamAndAreBitIdentical) {
  // Epochs 2 and 4 of this timeline have no arrivals: the pre-change
  // simulator skipped channel generation and seed derivation for them, and
  // the workspace path must do the same or every later epoch diverges.
  DynamicConfig config;
  config.epochs = 8;
  config.activity_prob = 0.3;
  const DynamicSimulator simulator(5, 3, 2, config);
  Rng rng(3);
  const DynamicReport report = simulator.run(algo::GreedyScheduler(), rng);
  expect_matches_golden(
      report,
      {{1, 1, 0x1.daf0b7498f5c3p-1, 0x1.3de4ea9dfa4ep-2,
        0x1.0a2e34ff7a172p-9},
       {1, 1, 0x1.ecd10dafed459p-3, 0x1.8d45ce48cdcc1p+1,
        0x1.ebbc4569b3829p-6},
       {0, 0, 0x0p+0, 0x0p+0, 0x0p+0},
       {1, 0, 0x0p+0, 0x1.cc4202044b385p+1, 0x1.1fa94142af033p+4},
       {0, 0, 0x0p+0, 0x0p+0, 0x0p+0},
       {1, 1, 0x1.80a2800addcd6p-1, 0x1.38ea8a3e43d8cp-2,
        0x1.683518e2a2356p-9},
       {4, 2, 0x1.593e0bab05ca2p+0, 0x1.481bf34dd392dp+1,
        0x1.0bd0405a8d9d3p+3},
       {2, 1, 0x1.1819a95767b9ap-2, 0x1.61a0be013a8d6p+1,
        0x1.fbe5012556f03p+1}});
}

// ---------------------------------------------------------------------------
// Faulted three-tier timelines, cold and warm: server and backhaul outages,
// sub-channel blackouts, a cloud tier capped at 5 forwards and the backhaul
// breaker. Every branch of the fault step, the staging path and the
// warm-hint repair fires (trips, evictions, recalls, withheld links).
// Captured before noise bursts were deleted, with bursts off.
// ---------------------------------------------------------------------------

struct FaultedGoldenEpoch {
  std::size_t active_users;
  std::size_t offloaded;
  std::size_t forwarded;
  double utility;
  std::size_t evictions;
  std::size_t cloud_recalls;
  std::size_t breakers_open;
  std::size_t slots_unavailable;
};

DynamicReport run_faulted_cloud_timeline(WarmStart warm) {
  DynamicConfig config;
  config.epochs = 20;
  config.cloud_cpu_hz = 20e9;
  config.cloud_max_forwarded = 5;
  config.fault.server_mtbf_epochs = 6.0;
  config.fault.subchannel_blackout_prob = 0.05;
  config.fault.backhaul_mtbf_epochs = 3.0;
  config.fault.backhaul_mttr_epochs = 2.0;
  config.breaker.trip_after = 2;
  const DynamicSimulator simulator(24, 7, 3, config);
  Rng rng(31);
  return simulator.run(*algo::make_scheduler("tsajs"), rng, warm);
}

void expect_matches_faulted_golden(
    const DynamicReport& report,
    const std::vector<FaultedGoldenEpoch>& golden) {
  ASSERT_EQ(report.epochs.size(), golden.size());
  for (std::size_t e = 0; e < golden.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    const EpochStats& epoch = report.epochs[e];
    EXPECT_EQ(epoch.active_users, golden[e].active_users);
    EXPECT_EQ(epoch.offloaded, golden[e].offloaded);
    EXPECT_EQ(epoch.forwarded, golden[e].forwarded);
    EXPECT_EQ(epoch.utility, golden[e].utility);  // bitwise
    EXPECT_EQ(epoch.evictions, golden[e].evictions);
    EXPECT_EQ(epoch.cloud_recalls, golden[e].cloud_recalls);
    EXPECT_EQ(epoch.breakers_open, golden[e].breakers_open);
    EXPECT_EQ(epoch.slots_unavailable, golden[e].slots_unavailable);
  }
  EXPECT_EQ(report.faulted_epochs, golden.size());
  EXPECT_EQ(report.breaker_trips, 8u);
  EXPECT_EQ(report.breaker_half_opens, 7u);
  EXPECT_EQ(report.breaker_closes, 4u);
}

TEST(DynamicGoldenTest, BurstFreeFaultedCloudColdTimelineBitIdentical) {
  const DynamicReport report = run_faulted_cloud_timeline(WarmStart::kCold);
  expect_matches_faulted_golden(
      report, {{14, 6, 1, 0x1.7be22fc7d81e2p+1, 0, 0, 0, 0},
               {15, 7, 1, 0x1.11af442960f88p+2, 1, 0, 0, 6},
               {15, 6, 1, 0x1.0c36220398ae4p+2, 0, 0, 0, 9},
               {14, 1, 0, 0x1.e172e3a4e6239p-1, 2, 0, 1, 15},
               {17, 4, 1, 0x1.8923a0e3b12cfp+1, 0, 0, 1, 10},
               {8, 3, 0, 0x1.062dacb0f547bp+1, 0, 1, 1, 12},
               {16, 6, 1, 0x1.0d3622d715ee5p+2, 0, 0, 2, 12},
               {14, 3, 1, 0x1.19a44c7a836fdp+1, 0, 0, 2, 6},
               {10, 3, 1, 0x1.222ac54127a2p+1, 0, 0, 3, 9},
               {7, 3, 1, 0x1.2da4f53551997p+1, 0, 0, 3, 9},
               {16, 4, 1, 0x1.7d3e0110babe6p+1, 0, 0, 3, 9},
               {14, 6, 0, 0x1.f38e0c6a58cdfp+1, 0, 1, 3, 8},
               {20, 4, 0, 0x1.839a028e9b37ap+1, 1, 0, 2, 7},
               {13, 6, 1, 0x1.96174b2ef3e2p+1, 0, 0, 2, 6},
               {17, 6, 1, 0x1.389a16cd002cp+2, 0, 0, 1, 13},
               {21, 4, 1, 0x1.cca0bdfd777eap+1, 1, 0, 0, 13},
               {13, 5, 1, 0x1.eb62a29323858p+1, 1, 1, 1, 12},
               {18, 4, 0, 0x1.ca314dab04a28p+1, 2, 0, 2, 15},
               {20, 4, 0, 0x1.b8a9d4d7072a4p+1, 0, 0, 2, 15},
               {15, 4, 1, 0x1.5ec77c473eae5p+1, 1, 0, 2, 15}});
  EXPECT_EQ(report.total_evictions, 9u);
  EXPECT_EQ(report.total_cloud_recalls, 3u);
}

TEST(DynamicGoldenTest, BurstFreeFaultedCloudWarmTimelineBitIdentical) {
  const DynamicReport report = run_faulted_cloud_timeline(WarmStart::kWarm);
  expect_matches_faulted_golden(
      report, {{14, 6, 1, 0x1.7be22fc7d81e1p+1, 0, 0, 0, 0},
               {15, 7, 1, 0x1.110f68235c699p+2, 1, 0, 0, 6},
               {15, 6, 1, 0x1.0c36220398b5ep+2, 0, 0, 0, 9},
               {14, 1, 0, 0x1.e172e3a4e6239p-1, 2, 0, 1, 15},
               {17, 4, 1, 0x1.8874008b04b06p+1, 0, 0, 1, 10},
               {8, 3, 0, 0x1.062dacb0f546p+1, 0, 1, 1, 12},
               {16, 6, 1, 0x1.0d3622d715f11p+2, 0, 0, 2, 12},
               {14, 3, 1, 0x1.1993485e09133p+1, 0, 0, 2, 6},
               {10, 3, 1, 0x1.222ac54127a1ep+1, 0, 0, 3, 9},
               {7, 3, 1, 0x1.2d4c9894196a6p+1, 0, 0, 3, 9},
               {16, 4, 1, 0x1.7cd4bb77cd1bcp+1, 0, 0, 3, 9},
               {14, 6, 0, 0x1.f38e0c6a58ca3p+1, 1, 0, 3, 8},
               {20, 4, 0, 0x1.839a028e9b379p+1, 1, 0, 2, 7},
               {13, 6, 1, 0x1.95a4d571d5507p+1, 0, 0, 2, 6},
               {17, 6, 1, 0x1.382607ef7982bp+2, 0, 0, 1, 13},
               {21, 4, 1, 0x1.cca0bdfd777dfp+1, 1, 1, 0, 13},
               {13, 5, 1, 0x1.eb53e4edb8b72p+1, 1, 1, 1, 12},
               {18, 4, 0, 0x1.ca314dab04a26p+1, 2, 0, 2, 15},
               {20, 4, 0, 0x1.b8a9d4d7072a2p+1, 0, 0, 2, 15},
               {15, 4, 1, 0x1.5e4d511c5e7ecp+1, 1, 0, 2, 15}});
  EXPECT_EQ(report.total_evictions, 10u);
  EXPECT_EQ(report.total_cloud_recalls, 3u);
}

TEST(DynamicSimulatorTest, EmptyEpochAccountingIsConsistent) {
  // The same timeline as above has exactly two empty epochs. They appear in
  // the timeline but contribute no aggregate sample, so every accumulator
  // holds one sample per *scheduled* epoch.
  DynamicConfig config;
  config.epochs = 8;
  config.activity_prob = 0.3;
  const DynamicSimulator simulator(5, 3, 2, config);
  Rng rng(3);
  const DynamicReport report = simulator.run(algo::GreedyScheduler(), rng);
  EXPECT_EQ(report.empty_epochs, 2u);
  const std::size_t scheduled = report.epochs.size() - report.empty_epochs;
  EXPECT_EQ(report.utility.count(), scheduled);
  EXPECT_EQ(report.offload_ratio.count(), scheduled);
  EXPECT_EQ(report.mean_delay_s.count(), scheduled);
  EXPECT_EQ(report.mean_energy_j.count(), scheduled);
  EXPECT_EQ(report.solve_seconds.count(), scheduled);
}

TEST(DynamicSimulatorTest, WarmRunsSeeTheIdenticalTimeline) {
  // WarmStart only changes how solves are seeded; the environment stream
  // (arrivals, mobility, channels) must match the cold run epoch by epoch.
  DynamicConfig config;
  config.epochs = 12;
  const DynamicSimulator simulator(18, 4, 2, config);
  algo::TsajsConfig tsajs_config;
  tsajs_config.chain_length = 6;
  const algo::TsajsScheduler scheduler(tsajs_config);
  Rng rng_cold(29);
  Rng rng_warm(29);
  const DynamicReport cold =
      simulator.run(scheduler, rng_cold, WarmStart::kCold);
  const DynamicReport warm =
      simulator.run(scheduler, rng_warm, WarmStart::kWarm);
  ASSERT_EQ(cold.epochs.size(), warm.epochs.size());
  for (std::size_t e = 0; e < cold.epochs.size(); ++e) {
    EXPECT_EQ(cold.epochs[e].active_users, warm.epochs[e].active_users);
  }
}

TEST(DynamicSimulatorTest, WarmStartIsDeterministicPerSeed) {
  DynamicConfig config;
  config.epochs = 10;
  const DynamicSimulator simulator(16, 4, 2, config);
  algo::TsajsConfig tsajs_config;
  tsajs_config.chain_length = 6;
  const algo::TsajsScheduler scheduler(tsajs_config);
  Rng rng_a(37);
  Rng rng_b(37);
  const DynamicReport a = simulator.run(scheduler, rng_a, WarmStart::kWarm);
  const DynamicReport b = simulator.run(scheduler, rng_b, WarmStart::kWarm);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epochs[e].utility, b.epochs[e].utility);
    EXPECT_EQ(a.epochs[e].offloaded, b.epochs[e].offloaded);
    EXPECT_DOUBLE_EQ(a.epochs[e].mean_delay_s, b.epochs[e].mean_delay_s);
  }
}

TEST(DynamicSimulatorTest, ShardedWarmStartMatchesColdUtilityUnderChurn) {
  // The sharded wrapper's warm start reuses the partition + per-shard
  // compilations and seeds shard solves from the previous epoch's
  // assignment. Under user churn and mobility that must not cost solution
  // quality: over a timeline the warm run's mean utility stays within a few
  // percent of the cold run's (both directions — warm starts may win or
  // lose individual epochs, never collapse).
  DynamicConfig config;
  config.epochs = 16;
  config.activity_prob = 0.8;
  const DynamicSimulator simulator(24, 4, 2, config);
  algo::RegistryOptions options;
  options.shard_reach_m = 400.0;  // hex sites >= 1000 m apart: per-site shards
  options.shard_threads = 2;
  const auto scheduler = algo::make_scheduler("sharded:tsajs", options);
  Rng rng_cold(53);
  Rng rng_warm(53);
  const DynamicReport cold =
      simulator.run(*scheduler, rng_cold, WarmStart::kCold);
  const DynamicReport warm =
      simulator.run(*scheduler, rng_warm, WarmStart::kWarm);
  ASSERT_EQ(cold.epochs.size(), warm.epochs.size());
  for (std::size_t e = 0; e < cold.epochs.size(); ++e) {
    // Same environment timeline; only the solve seeding differs.
    EXPECT_EQ(cold.epochs[e].active_users, warm.epochs[e].active_users);
    EXPECT_TRUE(std::isfinite(warm.epochs[e].utility));
  }
  ASSERT_GT(cold.utility.mean(), 0.0);
  EXPECT_NEAR(warm.utility.mean(), cold.utility.mean(),
              0.10 * cold.utility.mean());
}

TEST(DynamicSimulatorTest, WarmStartWorksForColdOnlySchedulers) {
  // A scheduler without the kWarmStart capability silently falls back
  // to cold solves — the warm run then equals the cold run exactly.
  DynamicConfig config;
  config.epochs = 6;
  const DynamicSimulator simulator(12, 3, 2, config);
  const algo::HjtoraScheduler scheduler;
  Rng rng_cold(41);
  Rng rng_warm(41);
  const DynamicReport cold =
      simulator.run(scheduler, rng_cold, WarmStart::kCold);
  const DynamicReport warm =
      simulator.run(scheduler, rng_warm, WarmStart::kWarm);
  ASSERT_EQ(cold.epochs.size(), warm.epochs.size());
  for (std::size_t e = 0; e < cold.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(cold.epochs[e].utility, warm.epochs[e].utility);
    EXPECT_EQ(cold.epochs[e].offloaded, warm.epochs[e].offloaded);
  }
}

}  // namespace
}  // namespace tsajs::sim
