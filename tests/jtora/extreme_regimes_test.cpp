// Failure-injection / extreme-regime tests: the evaluator and schedulers
// must stay finite, feasible and sensible when the link budget or compute
// balance is pushed to its edges.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/registry.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"
#include "support/noise.h"
#include "support/solve.h"

namespace tsajs::jtora {
namespace {

TEST(ExtremeRegimes, AbysmalLinkStaysFiniteAndUnattractive) {
  // Crank noise up 60 dB: every uplink is hopeless. The evaluator must
  // return finite, hugely negative utilities — never NaN — and TSAJS must
  // leave everyone local (utility 0).
  Rng rng(1);
  const mec::Scenario scenario =
      test::with_noise_dbm(mec::ScenarioBuilder()
                               .num_users(6)
                               .num_servers(3)
                               .num_subchannels(2)
                               .build(rng),
                           -40.0);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  const double utility = evaluator.system_utility(x);
  EXPECT_TRUE(std::isfinite(utility));
  EXPECT_LT(utility, -10.0);

  const auto scheduler = algo::make_scheduler("tsajs");
  Rng rng2(2);
  const auto result = test::solve(*scheduler, scenario, rng2);
  EXPECT_EQ(result.assignment.num_offloaded(), 0u);
  EXPECT_EQ(result.system_utility, 0.0);
}

TEST(ExtremeRegimes, FreeComputeMakesOffloadingUniversal) {
  // Gigantic servers + noiseless-ish links: every user gains, TSAJS should
  // offload everyone (slots permitting).
  Rng rng(3);
  const mec::Scenario scenario =
      test::with_noise_dbm(mec::ScenarioBuilder()
                               .num_users(6)
                               .num_servers(3)
                               .num_subchannels(2)
                               .server_cpu_hz(1e12)
                               .task_megacycles(5000.0)
                               .build(rng),
                           -140.0);
  const auto scheduler = algo::make_scheduler("tsajs");
  Rng rng2(4);
  const auto result = test::solve(*scheduler, scenario, rng2);
  EXPECT_EQ(result.assignment.num_offloaded(), 6u);
  EXPECT_GT(result.system_utility, 5.0);  // ~1 per user
}

TEST(ExtremeRegimes, SlowServersMakeOffloadingPointless) {
  // Edge servers slower than the handsets: computing remotely always loses
  // time; with beta_time = 1 nobody should offload under TSAJS.
  Rng rng(5);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(5)
                                     .num_servers(2)
                                     .num_subchannels(2)
                                     .server_cpu_hz(1e8)  // 0.1 GHz shared
                                     .beta_time(1.0)
                                     .build(rng);
  const auto scheduler = algo::make_scheduler("tsajs");
  Rng rng2(6);
  const auto result = test::solve(*scheduler, scenario, rng2);
  EXPECT_EQ(result.assignment.num_offloaded(), 0u);
}

TEST(ExtremeRegimes, PureEnergyPreferenceIgnoresSlowServers) {
  // Same slow servers but beta_energy = 1: upload energy (~mJ) still beats
  // local 5 J, so offloading is attractive despite the terrible delay. The
  // model's eta_u = lambda*beta_t*f_local becomes 0 — the CRA weight of a
  // pure-energy user is zero — yet allocations must stay positive and the
  // evaluator finite.
  Rng rng(7);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(4)
                                     .num_servers(2)
                                     .num_subchannels(2)
                                     .server_cpu_hz(1e8)
                                     .beta_time(0.0)
                                     .build(rng);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  const Evaluation eval = evaluator.evaluate(x);
  EXPECT_TRUE(std::isfinite(eval.system_utility));
  for (const std::size_t u : {0u, 1u}) {
    EXPECT_GT(eval.allocation.cpu_hz[u], 0.0);
    EXPECT_TRUE(std::isfinite(eval.users[u].utility));
  }
}

TEST(ExtremeRegimes, SingleUserSingleServerSingleChannel) {
  // The smallest possible system must work across all schemes.
  Rng rng(8);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(1)
                                     .num_servers(1)
                                     .num_subchannels(1)
                                     .build(rng);
  for (const char* name :
       {"tsajs", "hjtora", "local-search", "greedy", "exhaustive"}) {
    Rng r(9);
    const auto result = test::solve(*algo::make_scheduler(name), scenario, r);
    result.assignment.check_consistency();
    EXPECT_TRUE(std::isfinite(result.system_utility)) << name;
  }
}

TEST(ExtremeRegimes, ManyMoreSlotsThanUsers) {
  // 2 users, 75 slots: schedulers must not be confused by a huge empty
  // decision space.
  Rng rng(10);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(2)
                                     .num_servers(25)
                                     .num_subchannels(3)
                                     .build(rng);
  Rng r(11);
  const auto result = test::solve(*algo::make_scheduler("tsajs"), scenario, r);
  result.assignment.check_consistency();
  EXPECT_LE(result.assignment.num_offloaded(), 2u);
}

TEST(ExtremeRegimes, HeavyInterferenceNeverBreaksFeasibility) {
  // All users jammed into one sub-channel's worth of slots, with the
  // paper's 8 dB shadowing spreading the gains: the decision machinery must
  // stay consistent under heavy co-channel interference.
  Rng rng(12);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(12)
                                     .num_servers(6)
                                     .num_subchannels(1)
                                     .build(rng);
  Rng r(13);
  const auto result = test::solve(*algo::make_scheduler("tsajs"), scenario, r);
  result.assignment.check_consistency();
  EXPECT_TRUE(std::isfinite(result.system_utility));
  EXPECT_GE(result.system_utility, 0.0);  // all-local is always available
}

}  // namespace
}  // namespace tsajs::jtora
