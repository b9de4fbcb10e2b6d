#include "jtora/utility.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/scheduler.h"
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

TEST(UtilityTest, AllLocalHasZeroUtility) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  const Assignment x(scenario);
  EXPECT_EQ(evaluator.system_utility(x), 0.0);
  const Evaluation eval = evaluator.evaluate(x);
  EXPECT_EQ(eval.system_utility, 0.0);
  EXPECT_EQ(eval.gamma_cost, 0.0);
  EXPECT_EQ(eval.lambda_cost, 0.0);
}

TEST(UtilityTest, LocalUsersCarryLocalBaselines) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  const Assignment x(scenario);
  const Evaluation eval = evaluator.evaluate(x);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_FALSE(eval.users[u].offloaded);
    EXPECT_DOUBLE_EQ(eval.users[u].total_delay_s,
                     scenario.user(u).local_time_s());
    EXPECT_DOUBLE_EQ(eval.users[u].energy_j,
                     scenario.user(u).local_energy_j());
    EXPECT_EQ(eval.users[u].utility, 0.0);
  }
}

TEST(UtilityTest, FastPathMatchesDetailedPath) {
  // Property: Eq. 24 (closed-form path) == sum lambda_u J_u (Eq. 10/11 path)
  // across random feasible decisions.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    const mec::Scenario scenario = make_scenario(10, 4, 3, seed);
    const CompiledProblem problem(scenario);
    const UtilityEvaluator evaluator(problem);
    Rng rng(seed + 100);
    const Assignment x =
        algo::random_feasible_assignment(scenario, rng, 0.7);
    const double fast = evaluator.system_utility(x);
    const Evaluation eval = evaluator.evaluate(x);
    EXPECT_NEAR(fast, eval.system_utility,
                1e-9 * std::max(1.0, std::fabs(fast)))
        << "seed " << seed;
    // Decomposition identity (Eq. 16/24): J = gain - Gamma - Lambda.
    EXPECT_NEAR(eval.system_utility,
                eval.gain_term - eval.gamma_cost - eval.lambda_cost,
                1e-9 * std::max(1.0, std::fabs(fast)));
  }
}

TEST(UtilityTest, SingleUserUtilityMatchesHandComputation) {
  const mec::Scenario scenario = make_scenario(1, 1, 1, 9);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  Assignment x(scenario);
  x.offload(0, 0, 0);

  const mec::UserEquipment& ue = scenario.user(0);
  const double sinr = ue.tx_power_w * scenario.gain(0, 0, 0) /
                      scenario.noise_w();
  const double rate =
      scenario.subchannel_bandwidth_hz() * std::log2(1.0 + sinr);
  const double t_up = ue.task.input_bits / rate;
  const double t_exec = ue.task.cycles / scenario.server(0).cpu_hz;
  const double t_u = t_up + t_exec;
  const double e_u = ue.tx_power_w * t_up;
  const double expected =
      ue.lambda *
      (ue.beta_time * (ue.local_time_s() - t_u) / ue.local_time_s() +
       ue.beta_energy * (ue.local_energy_j() - e_u) / ue.local_energy_j());
  EXPECT_NEAR(evaluator.system_utility(x), expected, 1e-9);

  const Evaluation eval = evaluator.evaluate(x);
  EXPECT_NEAR(eval.users[0].total_delay_s, t_u, 1e-12);
  EXPECT_NEAR(eval.users[0].energy_j, e_u, 1e-15);
  EXPECT_NEAR(eval.users[0].exec_s, t_exec, 1e-12);
}

TEST(UtilityTest, OffloadingNearbyUserIsBeneficialWithDefaults) {
  // With the paper's defaults (w=1000 Mcycles, d=420 KB), a user close to a
  // BS gains from offloading: t_local = 1 s vs a fraction of a second.
  Rng rng(12);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(1)
                                     .num_servers(1)
                                     .num_subchannels(1)
                                     .build(rng);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  EXPECT_GT(evaluator.system_utility(x), 0.0);
}

TEST(UtilityTest, LambdaScalesUserContribution) {
  Rng rng_a(15);
  Rng rng_b(15);
  const auto base = mec::ScenarioBuilder().num_users(1).num_servers(1)
                        .num_subchannels(1);
  auto weighted = base;
  weighted.customize_users(
      [](std::size_t, mec::UserEquipment& ue) { ue.lambda = 0.5; });
  const mec::Scenario full = base.build(rng_a);
  const mec::Scenario half = weighted.build(rng_b);

  Assignment x_full(full);
  x_full.offload(0, 0, 0);
  Assignment x_half(half);
  x_half.offload(0, 0, 0);
  // eta depends on lambda, so exec time differs only through CRA weighting;
  // with a single user the allocation is the full server either way, and
  // J scales exactly by lambda.
  const CompiledProblem full_problem(full);
  const CompiledProblem half_problem(half);
  EXPECT_NEAR(UtilityEvaluator(half_problem).system_utility(x_half),
              0.5 * UtilityEvaluator(full_problem).system_utility(x_full),
              1e-9);
}

TEST(UtilityTest, CongestedServerReducesPerUserUtility) {
  // Packing more users onto one server splits f_s and can only lower each
  // user's utility relative to having the server alone.
  const mec::Scenario scenario = make_scenario(3, 1, 3, 21);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  Assignment alone(scenario);
  alone.offload(0, 0, 0);
  const Evaluation eval_alone = evaluator.evaluate(alone);

  Assignment crowded(scenario);
  crowded.offload(0, 0, 0);
  crowded.offload(1, 0, 1);
  crowded.offload(2, 0, 2);
  const Evaluation eval_crowded = evaluator.evaluate(crowded);
  EXPECT_LT(eval_crowded.users[0].utility, eval_alone.users[0].utility);
  // Intra-cell sub-channels are orthogonal: only the compute share drops.
  EXPECT_DOUBLE_EQ(eval_crowded.users[0].link.rate_bps,
                   eval_alone.users[0].link.rate_bps);
  EXPECT_GT(eval_crowded.users[0].exec_s, eval_alone.users[0].exec_s);
}

TEST(UtilityTest, UserUtilityHelperRejectsBadInput) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  const LinkMetrics link;
  EXPECT_THROW((void)evaluator.user_utility(99, link, 1e9),
               InvalidArgumentError);
  EXPECT_THROW((void)evaluator.user_utility(0, link, 0.0),
               InvalidArgumentError);
}

TEST(UtilityTest, EnergyDelayTradeoffFollowsBeta) {
  // Higher beta_time shifts CRA weight toward that user... with a single
  // user, beta only affects how J_u weighs the two ratios. Verify J_u
  // ordering flips when time dominates vs energy dominates for a user whose
  // time ratio and energy ratio differ.
  Rng rng_a(30);
  Rng rng_b(30);
  const mec::Scenario time_pref = mec::ScenarioBuilder()
                                      .num_users(1)
                                      .num_servers(1)
                                      .num_subchannels(1)
                                      .beta_time(0.95)
                                      .build(rng_a);
  const mec::Scenario energy_pref = mec::ScenarioBuilder()
                                        .num_users(1)
                                        .num_servers(1)
                                        .num_subchannels(1)
                                        .beta_time(0.05)
                                        .build(rng_b);
  Assignment x_t(time_pref);
  x_t.offload(0, 0, 0);
  Assignment x_e(energy_pref);
  x_e.offload(0, 0, 0);
  const CompiledProblem time_problem(time_pref);
  const CompiledProblem energy_problem(energy_pref);
  const Evaluation eval_t = UtilityEvaluator(time_problem).evaluate(x_t);
  const Evaluation eval_e = UtilityEvaluator(energy_problem).evaluate(x_e);
  // The channel draw is identical (same seed). Energy saving ratio is ~1
  // (tx energy tiny vs 5 J local), time saving ratio is smaller — so the
  // energy-preferring user reports higher utility.
  EXPECT_GT(eval_e.users[0].utility, eval_t.users[0].utility);
}

}  // namespace
}  // namespace tsajs::jtora
