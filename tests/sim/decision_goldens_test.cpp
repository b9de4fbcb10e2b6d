// Decision-path goldens: bit-for-bit pins on a multi-shard sharded solve
// (with a fault mask and a cloud tier) and on two streaming event logs.
// The decision path's performance work (halo-only fixup previews, the
// stream's path-loss cache, flat gain-tensor walks) promises identical
// bytes, so these values must not move under it; a change that
// legitimately alters a decision re-captures them and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "algo/sharded.h"
#include "algo/tsajs.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "geo/partition.h"
#include "jtora/compiled_problem.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "sim/evidence.h"
#include "sim/stream.h"
#include "support/solve.h"

namespace tsajs::sim {
namespace {

/// CRC-32 of the bytes events.jsonl would hold: each event's canonical
/// line plus its newline, chained in event order.
struct CrcSink : StreamSink {
  std::uint32_t crc = 0;
  std::size_t lines = 0;
  void on_event(const StreamEvent& event) override {
    crc = crc32(event_to_jsonl(event) + "\n", crc);
    ++lines;
  }
};

TEST(DecisionGoldens, MultiShardSolveWithMaskAndCloud) {
  Rng build_rng(2024);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(110)
                                 .num_servers(19)
                                 .num_subchannels(4)
                                 .cloud(30e9, 100e6, 0.02, 8)
                                 .build(build_rng);
  mec::Availability mask(19, 4);
  mask.fail_server(3);
  mask.block_slot(5, 1);
  mask.block_slot(7, 0);
  mask.block_slot(11, 2);
  mask.block_slot(12, 3);
  mask.fail_backhaul(8);
  const mec::Scenario scenario = base.with_availability(mask);
  const jtora::CompiledProblem problem(scenario);
  std::vector<geo::Point> sites;
  for (const mec::EdgeServer& server : scenario.servers()) {
    sites.push_back(server.position);
  }
  ASSERT_GT(geo::InterferencePartition(sites, 2000.0).num_shards(), 1u);

  algo::TsajsConfig tsajs;
  tsajs.chain_length = 10;
  algo::ShardedConfig config;
  config.reach_m = 2000.0;
  const algo::ShardedScheduler scheduler(
      std::make_unique<algo::TsajsScheduler>(tsajs), config);
  Rng rng(31);
  const algo::ScheduleResult result = test::validated(scheduler, problem, rng);

  EXPECT_EQ(result.system_utility, 0x1.96a66cbd7964ap+3);
  EXPECT_EQ(result.evaluations, 38429u);
  EXPECT_EQ(test::slot_crc(result.assignment), 0x61c7b17cu);
  EXPECT_EQ(result.assignment.num_forwarded(), 2u);
}

TEST(DecisionGoldens, ShardedCityStreamEventLog) {
  StreamConfig config;
  config.duration_s = 12.0;
  config.arrival_rate_hz = 26.0;
  config.admission.max_backlog = 4096;
  config.decision_budget.max_iterations = 2000;
  const StreamDriver driver(37, 8, config);
  const auto scheduler = algo::make_scheduler("sharded:tsajs");
  CrcSink sink;
  const StreamReport report = driver.run(*scheduler, 7, &sink);
  EXPECT_EQ(sink.lines, 1149u);
  EXPECT_EQ(report.decisions, 397u);
  EXPECT_EQ(sink.crc, 0x09bd1074u);
}

TEST(DecisionGoldens, FaultedCloudStreamEventLog) {
  StreamConfig config;
  config.duration_s = 12.0;
  config.arrival_rate_hz = 12.0;
  config.admission.max_backlog = 4096;
  config.decision_budget.max_iterations = 1000;
  config.cloud_cpu_hz = 40e9;
  config.fault.server_mtbf_epochs = 10.0;
  config.fault.subchannel_blackout_prob = 0.05;
  config.fault.backhaul_mtbf_epochs = 6.0;
  config.fault_interval_s = 1.0;
  config.breaker.trip_after = 2;
  config.checkpoint_interval_s = 3.0;
  const StreamDriver driver(19, 4, config);
  const auto scheduler = algo::make_scheduler("tsajs");
  CrcSink sink;
  const StreamReport report = driver.run(*scheduler, 11, &sink);
  EXPECT_EQ(sink.lines, 506u);
  EXPECT_EQ(report.decisions, 154u);
  EXPECT_EQ(report.fault_steps, 12u);
  EXPECT_EQ(sink.crc, 0x394ffa63u);
}

}  // namespace
}  // namespace tsajs::sim
