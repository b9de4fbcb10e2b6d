// Tests of the partial-offloading extension.
#include "jtora/partial.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/scheduler.h"
#include "common/error.h"
#include "mec/scenario_builder.h"
#include "support/noise.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::uint64_t seed = 42, std::size_t users = 8) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(3)
      .num_subchannels(2)
      .build(rng);
}

TEST(PartialTest, SplitAlwaysInUnitInterval) {
  const mec::Scenario scenario = make_scenario(1);
  Rng rng(2);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.8);
  const CompiledProblem problem(scenario);
  const PartialOffloadEvaluator partial(problem);
  const PartialEvaluation eval = partial.evaluate(x);
  for (const auto& user : eval.users) {
    EXPECT_GE(user.split, 0.0);
    EXPECT_LE(user.split, 1.0);
  }
}

TEST(PartialTest, NeverWorseThanFullOffloadPerUser) {
  // x = 1 is always a candidate, so the optimal split can only improve on
  // the paper's full-offload utility for every user.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const mec::Scenario scenario = make_scenario(seed, 10);
    Rng rng(seed + 9);
    const Assignment x =
        algo::random_feasible_assignment(scenario, rng, 0.7);
    const CompiledProblem problem(scenario);
    const UtilityEvaluator full(problem);
    const PartialOffloadEvaluator partial(problem);
    const Evaluation full_eval = full.evaluate(x);
    const PartialEvaluation part_eval = partial.evaluate(x);
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      if (!x.is_offloaded(u)) continue;
      EXPECT_GE(part_eval.users[u].utility,
                full_eval.users[u].utility - 1e-12)
          << "user " << u << " seed " << seed;
      EXPECT_GE(part_eval.users[u].utility, -1e-12);
    }
    EXPECT_GE(part_eval.system_utility, full_eval.system_utility - 1e-9);
    EXPECT_GE(part_eval.system_utility, -1e-12);
  }
}

TEST(PartialTest, HopelessLinkFallsBackToAllLocal) {
  // A user with an interference-crushed uplink should keep x = 0 and score
  // exactly zero rather than the deeply negative full-offload utility.
  Rng rng(7);
  const mec::Scenario scenario =
      test::with_noise_dbm(mec::ScenarioBuilder()
                               .num_users(4)
                               .num_servers(2)
                               .num_subchannels(1)
                               .build(rng),
                           -40.0);  // hopeless uplinks
  Assignment x(scenario);
  x.offload(0, 0, 0);
  const CompiledProblem problem(scenario);
  const PartialOffloadEvaluator partial(problem);
  const PartialEvaluation eval = partial.evaluate(x);
  EXPECT_EQ(eval.users[0].split, 0.0);
  EXPECT_EQ(eval.users[0].utility, 0.0);
}

TEST(PartialTest, KinkSplitEqualizesPipelines) {
  // When the kink is optimal, local and remote pipelines finish together.
  const mec::Scenario scenario = make_scenario(11, 6);
  Rng rng(12);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.9);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator full(problem);
  const Evaluation full_eval = full.evaluate(x);
  const PartialOffloadEvaluator partial(problem);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (!x.is_offloaded(u)) continue;
    const PartialOutcome outcome = partial.best_split(
        u, full_eval.users[u].link, full_eval.allocation.cpu_hz[u]);
    if (outcome.split > 0.0 && outcome.split < 1.0) {
      const mec::UserEquipment& ue = scenario.user(u);
      const double local_part =
          (1.0 - outcome.split) * ue.local_time_s();
      const double remote_part =
          outcome.split * (full_eval.users[u].link.upload_s +
                           ue.task.cycles / full_eval.allocation.cpu_hz[u]);
      EXPECT_NEAR(local_part, remote_part, 1e-9 * ue.local_time_s());
      EXPECT_NEAR(outcome.delay_s, local_part, 1e-9);
    }
  }
}

TEST(PartialTest, ParallelismBeatsSerialDelayWhenBalanced) {
  // With a decent link the optimal split's delay must beat pure-local
  // execution (the whole point of splitting).
  Rng rng(13);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(1)
                                     .num_servers(1)
                                     .num_subchannels(1)
                                     .build(rng);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  const CompiledProblem problem(scenario);
  const PartialOffloadEvaluator partial(problem);
  const PartialEvaluation eval = partial.evaluate(x);
  EXPECT_LT(eval.users[0].delay_s, scenario.user(0).local_time_s());
  EXPECT_GT(eval.users[0].utility, 0.0);
}

TEST(PartialTest, BestSplitValidatesInput) {
  const mec::Scenario scenario = make_scenario(15);
  const CompiledProblem problem(scenario);
  const PartialOffloadEvaluator partial(problem);
  const LinkMetrics link;
  EXPECT_THROW((void)partial.best_split(99, link, 1e9),
               InvalidArgumentError);
  EXPECT_THROW((void)partial.best_split(0, link, 0.0),
               InvalidArgumentError);
}

TEST(PartialTest, LocalUsersCarryBaselines) {
  const mec::Scenario scenario = make_scenario(17);
  const Assignment x(scenario);
  const CompiledProblem problem(scenario);
  const PartialOffloadEvaluator partial(problem);
  const PartialEvaluation eval = partial.evaluate(x);
  EXPECT_EQ(eval.system_utility, 0.0);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(eval.users[u].split, 0.0);
    EXPECT_DOUBLE_EQ(eval.users[u].delay_s,
                     scenario.user(u).local_time_s());
  }
}

}  // namespace
}  // namespace tsajs::jtora
