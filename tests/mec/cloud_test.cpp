#include "mec/cloud.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "mec/scenario_builder.h"
#include "mec/scenario_workspace.h"
#include "radio/spectrum.h"

namespace tsajs::mec {
namespace {

Scenario make_cloud_scenario(std::uint64_t seed = 7, std::size_t users = 6,
                             std::size_t servers = 3,
                             std::size_t subchannels = 2) {
  Rng rng(seed);
  return ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .cloud(/*cpu_hz=*/50e9, /*backhaul_bps=*/100e6,
             /*backhaul_latency_s=*/0.01)
      .build(rng);
}

TEST(CloudTierTest, DefaultConstructedIsDisabled) {
  const CloudTier tier;
  EXPECT_FALSE(tier.enabled());
  EXPECT_NO_THROW(tier.validate());
}

TEST(CloudTierTest, ValidateRejectsBadConfigurations) {
  const CloudTier good{10e9, 200e6, 0.02, 3};
  EXPECT_TRUE(good.enabled());
  EXPECT_NO_THROW(good.validate());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 0.0, -1.0}) {
    // Capacity: 0 disables the tier, which must then carry no backhaul
    // terms; NaN, infinite and negative capacities are never valid.
    CloudTier cpu = good;
    cpu.cpu_hz = bad;
    EXPECT_THROW(cpu.validate(), InvalidArgumentError) << "cpu_hz " << bad;
    // Rate: positive and finite.
    CloudTier rate = good;
    rate.backhaul_bps = bad;
    EXPECT_THROW(rate.validate(), InvalidArgumentError) << "bps " << bad;
    // Latency: non-negative and finite, so 0 is the one legal value here.
    CloudTier latency = good;
    latency.backhaul_latency_s = bad;
    if (bad == 0.0) {
      EXPECT_NO_THROW(latency.validate());
    } else {
      EXPECT_THROW(latency.validate(), InvalidArgumentError)
          << "latency " << bad;
    }
  }

  // A disabled tier is the one canonical "no cloud": no backhaul terms.
  CloudTier stale;
  stale.backhaul_bps = 100e6;
  EXPECT_THROW(stale.validate(), InvalidArgumentError);
  stale = CloudTier{};
  stale.backhaul_latency_s = 0.02;
  EXPECT_THROW(stale.validate(), InvalidArgumentError);
}

TEST(CloudScenarioTest, BuilderKnobEnablesTheTier) {
  const Scenario scenario = make_cloud_scenario();
  EXPECT_TRUE(scenario.has_cloud());
  EXPECT_DOUBLE_EQ(scenario.cloud().cpu_hz, 50e9);
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    EXPECT_TRUE(scenario.backhaul_available(s));
  }
}

TEST(CloudScenarioTest, DefaultScenarioHasNoCloud) {
  Rng rng(3);
  const Scenario scenario = ScenarioBuilder().num_users(4).build(rng);
  EXPECT_FALSE(scenario.has_cloud());
  // Without a tier there is nothing to forward through, backhaul or not.
  EXPECT_FALSE(scenario.backhaul_available(0));
}

TEST(CloudScenarioTest, WithCloudProducesEnabledCopy) {
  Rng rng(5);
  const Scenario base = ScenarioBuilder().num_users(4).build(rng);
  const Scenario with = base.with_cloud(CloudTier{20e9, 100e6, 0.005});
  EXPECT_FALSE(base.has_cloud());
  EXPECT_TRUE(with.has_cloud());
  EXPECT_EQ(with.num_users(), base.num_users());
  // The drop itself (placement, gains) is shared unchanged.
  EXPECT_DOUBLE_EQ(with.gain(0, 0, 0), base.gain(0, 0, 0));
}

TEST(CloudScenarioTest, BackhaulFaultsDoNotMaskSlots) {
  // A dead backhaul removes the forwarding option but never the uplink
  // slots — and deliberately does not disturb the fully_available() fast
  // path, which covers only server/slot state.
  const Scenario base = make_cloud_scenario();
  Availability mask(base.num_servers(), base.num_subchannels());
  mask.fail_backhaul(1);
  const Scenario faulted = base.with_availability(mask);
  EXPECT_TRUE(faulted.backhaul_available(0));
  EXPECT_FALSE(faulted.backhaul_available(1));
  EXPECT_TRUE(faulted.slot_available(1, 0));
  EXPECT_TRUE(faulted.server_available(1));
  EXPECT_TRUE(mask.all_available());  // backhaul state excluded by design
  EXPECT_EQ(mask.num_backhauls_down(), 1u);
}

TEST(CloudScenarioTest, WorkspaceStagesTheTierAcrossCommits) {
  Rng rng(11);
  const Scenario proto = make_cloud_scenario();
  ScenarioWorkspace workspace(proto.servers(), proto.spectrum(),
                              proto.noise_w());
  workspace.set_cloud(proto.cloud());

  for (int epoch = 0; epoch < 2; ++epoch) {
    workspace.begin_epoch();
    std::vector<UserEquipment>& users = workspace.users();
    users.assign(proto.users().begin(), proto.users().end());
    workspace.gains().reshape(users.size(), proto.num_servers(),
                              proto.num_subchannels());
    for (std::size_t u = 0; u < users.size(); ++u) {
      for (std::size_t s = 0; s < proto.num_servers(); ++s) {
        for (std::size_t j = 0; j < proto.num_subchannels(); ++j) {
          workspace.gains()(u, s, j) = proto.gain(u, s, j);
        }
      }
    }
    const Scenario& committed = workspace.commit();
    EXPECT_TRUE(committed.has_cloud());
    EXPECT_EQ(committed.cloud(), proto.cloud());
  }
}

}  // namespace
}  // namespace tsajs::mec
