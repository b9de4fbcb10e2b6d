#include "jtora/rate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::size_t users = 6, std::size_t servers = 3,
                            std::size_t subchannels = 2,
                            std::uint64_t seed = 42) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TEST(RateTest, LoneUserSeesOnlyNoise) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 1, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const double expected =
      scenario.user(0).tx_power_w * scenario.gain(0, 1, 0) /
      scenario.noise_w();
  EXPECT_NEAR(rates.sinr(x, 0), expected, expected * 1e-12);
}

TEST(RateTest, SinrRequiresOffloadedUser) {
  const mec::Scenario scenario = make_scenario();
  const Assignment x(scenario);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  EXPECT_THROW((void)rates.sinr(x, 0), InvalidArgumentError);
}

TEST(RateTest, SameSubchannelOtherCellInterferes) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 1, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const double alone = rates.sinr(x, 0);
  x.offload(1, 2, 0);  // same sub-channel, different server
  const double with_interferer = rates.sinr(x, 0);
  EXPECT_LT(with_interferer, alone);
  // Exact Eq. 3 check: interference = p_1 * h_{1->server1} on sub-channel 0.
  const double interference =
      scenario.user(1).tx_power_w * scenario.gain(1, 1, 0);
  const double expected = scenario.user(0).tx_power_w *
                          scenario.gain(0, 1, 0) /
                          (interference + scenario.noise_w());
  EXPECT_NEAR(with_interferer, expected, expected * 1e-12);
}

TEST(RateTest, DifferentSubchannelDoesNotInterfere) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 1, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const double alone = rates.sinr(x, 0);
  x.offload(1, 2, 1);  // different sub-channel
  EXPECT_DOUBLE_EQ(rates.sinr(x, 0), alone);
}

TEST(RateTest, IntraCellUsersAreOrthogonal) {
  // Two users on the same server occupy different sub-channels (12d), so
  // neither interferes with the other.
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 1, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const double alone = rates.sinr(x, 0);
  x.offload(1, 1, 1);
  EXPECT_DOUBLE_EQ(rates.sinr(x, 0), alone);
}

TEST(RateTest, RateMatchesShannonFormula) {
  const mec::Scenario scenario = make_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 1);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const LinkMetrics m = rates.link(x, 0);
  const double w = scenario.subchannel_bandwidth_hz();
  EXPECT_NEAR(m.rate_bps, w * std::log2(1.0 + m.sinr), 1e-6);
  EXPECT_NEAR(m.upload_s, scenario.user(0).task.input_bits / m.rate_bps,
              1e-12);
  EXPECT_NEAR(m.tx_energy_j, scenario.user(0).tx_power_w * m.upload_s,
              1e-15);
}

TEST(RateTest, MoreInterferersMonotonicallyDegradeSinr) {
  // Property: adding same-sub-channel interferers never raises user 0's SINR.
  const mec::Scenario scenario = make_scenario(10, 5, 2, 7);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  double prev = rates.sinr(x, 0);
  for (std::size_t s = 1; s < 5; ++s) {
    x.offload(s, s, 0);  // user s on server s, sub-channel 0
    const double cur = rates.sinr(x, 0);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(RateTest, InterferenceUsesGainTowardTheVictimServer) {
  // The interference term uses h_{k -> victim server}, not the interferer's
  // own serving gain (Eq. 3's h_ks^j).
  const mec::Scenario scenario = make_scenario(4, 3, 1, 11);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 1, 0);
  x.offload(2, 2, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const double interference =
      scenario.user(1).tx_power_w * scenario.gain(1, 0, 0) +
      scenario.user(2).tx_power_w * scenario.gain(2, 0, 0);
  const double expected = scenario.user(0).tx_power_w *
                          scenario.gain(0, 0, 0) /
                          (interference + scenario.noise_w());
  EXPECT_NEAR(rates.sinr(x, 0), expected, expected * 1e-12);
}

}  // namespace
}  // namespace tsajs::jtora
