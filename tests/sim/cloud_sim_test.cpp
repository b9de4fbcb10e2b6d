// Cloud-facing simulation features: backhaul-outage fault injection and
// the cloud-enabled dynamic loop with its recall telemetry.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algo/greedy.h"
#include "common/error.h"
#include "sim/dynamic.h"
#include "sim/fault.h"

namespace tsajs::sim {
namespace {

TEST(BackhaulFaultTest, ValidationMirrorsServerOutages) {
  FaultConfig config;
  config.backhaul_mtbf_epochs = 5.0;
  config.backhaul_mttr_epochs = 0.5;  // must be >= 1 when enabled
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config.backhaul_mttr_epochs = 2.0;
  EXPECT_NO_THROW(config.validate());
  EXPECT_TRUE(config.enabled());
}

TEST(BackhaulFaultTest, OutagesMaskOnlyTheBackhaul) {
  FaultConfig config;
  config.backhaul_mtbf_epochs = 3.0;
  config.backhaul_mttr_epochs = 2.0;
  FaultInjector injector(4, 2, config, 99);
  std::size_t down_epochs = 0;
  std::size_t up_epochs = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    injector.advance_epoch();
    const mec::Availability mask = injector.availability();
    EXPECT_EQ(mask.num_backhauls_down(), injector.backhauls_down());
    // Backhaul outages never take slots or servers with them — and they
    // deliberately do not disturb the slot-level fast path.
    EXPECT_TRUE(mask.all_available());
    EXPECT_EQ(injector.servers_down(), 0u);
    EXPECT_EQ(injector.slots_blacked_out(), 0u);
    EXPECT_EQ(injector.any_fault(), injector.backhauls_down() > 0);
    if (injector.backhauls_down() > 0) {
      ++down_epochs;
    } else {
      ++up_epochs;
    }
  }
  // MTBF 3 / MTTR 2 over 200 epochs: both states must occur.
  EXPECT_GT(down_epochs, 0u);
  EXPECT_GT(up_epochs, 0u);
}

TEST(BackhaulFaultTest, EnablingBackhaulCoinsKeepsTheServerSchedule) {
  // Backhaul draws are appended after every pre-existing draw, so turning
  // them on must not reshuffle the server/blackout schedule of the same
  // seed.
  FaultConfig servers_only;
  servers_only.server_mtbf_epochs = 4.0;
  servers_only.server_mttr_epochs = 2.0;
  servers_only.subchannel_blackout_prob = 0.05;
  FaultConfig both = servers_only;
  both.backhaul_mtbf_epochs = 3.0;
  both.backhaul_mttr_epochs = 2.0;

  FaultInjector a(5, 3, servers_only, 1234);
  FaultInjector b(5, 3, both, 1234);
  for (int epoch = 0; epoch < 100; ++epoch) {
    a.advance_epoch();
    b.advance_epoch();
    EXPECT_EQ(a.servers_down(), b.servers_down()) << "epoch " << epoch;
    EXPECT_EQ(a.slots_blacked_out(), b.slots_blacked_out())
        << "epoch " << epoch;
    const mec::Availability ma = a.availability();
    const mec::Availability mb = b.availability();
    for (std::size_t s = 0; s < 5; ++s) {
      EXPECT_EQ(ma.server_available(s), mb.server_available(s));
      for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(ma.slot_available(s, j), mb.slot_available(s, j));
      }
    }
    EXPECT_EQ(ma.num_backhauls_down(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Cloud-enabled dynamic loop.
// ---------------------------------------------------------------------------

DynamicConfig cloud_config(std::size_t epochs = 20) {
  // A pool five times a 20 GHz edge server makes forwarding win often
  // enough that the telemetry below has something to count.
  DynamicConfig config;
  config.epochs = epochs;
  config.cloud_cpu_hz = 100e9;
  return config;
}

TEST(CloudDynamicTest, TimelineForwardsTasksAndStaysDeterministic) {
  const DynamicSimulator simulator(16, 4, 2, cloud_config());
  const algo::GreedyScheduler scheduler;
  Rng rng_a(17);
  Rng rng_b(17);
  const DynamicReport a = simulator.run(scheduler, rng_a);
  const DynamicReport b = simulator.run(scheduler, rng_b);
  EXPECT_GT(a.total_forwarded, 0u);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  std::size_t summed = 0;
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_LE(a.epochs[e].forwarded, a.epochs[e].offloaded);
    EXPECT_EQ(a.epochs[e].forwarded, b.epochs[e].forwarded);
    EXPECT_DOUBLE_EQ(a.epochs[e].utility, b.epochs[e].utility);
    summed += a.epochs[e].forwarded;
  }
  EXPECT_EQ(a.total_forwarded, summed);
}

TEST(CloudDynamicTest, DisabledCloudReportsNoForwarding) {
  DynamicConfig config;
  config.epochs = 8;
  const DynamicSimulator simulator(12, 4, 2, config);
  Rng rng(19);
  const DynamicReport report = simulator.run(algo::GreedyScheduler(), rng);
  EXPECT_EQ(report.total_forwarded, 0u);
  EXPECT_EQ(report.total_cloud_recalls, 0u);
  for (const auto& epoch : report.epochs) {
    EXPECT_EQ(epoch.forwarded, 0u);
  }
}

TEST(CloudDynamicTest, ValidationChecksTheCloudKnobs) {
  DynamicConfig config = cloud_config();
  config.cloud_cpu_hz = -1.0;
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  EXPECT_NO_THROW(cloud_config().validate());
}

TEST(CloudDynamicTest, BackhaulOutagesRecallWarmForwardedUsers) {
  // Frequent backhaul outages under heavy forwarding: the warm loop must
  // keep running (feasibility is audited every epoch inside run()) and the
  // recall telemetry must register carried placements stranded on a dead
  // link.
  DynamicConfig config = cloud_config(40);
  config.activity_prob = 0.9;
  config.fault.backhaul_mtbf_epochs = 2.0;
  config.fault.backhaul_mttr_epochs = 2.0;
  const DynamicSimulator simulator(16, 4, 2, config);
  const algo::GreedyScheduler scheduler;
  Rng rng(23);
  const DynamicReport report =
      simulator.run(scheduler, rng, WarmStart::kWarm);
  EXPECT_GT(report.total_forwarded, 0u);
  EXPECT_GT(report.total_cloud_recalls, 0u);
  std::size_t recalls = 0;
  bool saw_backhaul_down = false;
  for (const auto& epoch : report.epochs) {
    recalls += epoch.cloud_recalls;
    if (epoch.backhauls_down > 0) saw_backhaul_down = true;
    EXPECT_TRUE(std::isfinite(epoch.utility));
  }
  EXPECT_TRUE(saw_backhaul_down);
  EXPECT_EQ(report.total_cloud_recalls, recalls);
}

TEST(CloudDynamicTest, WarmAndColdShareTheEnvironmentTimeline) {
  // The cloud branch must not desynchronise warm and cold runs: arrivals
  // and mobility come from the same stream either way.
  const DynamicSimulator simulator(14, 4, 2, cloud_config(12));
  const algo::GreedyScheduler scheduler;
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

}  // namespace
}  // namespace tsajs::sim
