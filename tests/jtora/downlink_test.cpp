// Tests of the downlink extension (task output_bits > 0).
#include <gtest/gtest.h>

#include <cmath>

#include "algo/neighborhood.h"
#include "algo/scheduler.h"
#include "common/units.h"
#include "jtora/incremental.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(double output_kb, std::uint64_t seed = 42,
                            std::size_t users = 6) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(3)
      .num_subchannels(2)
      .customize_users([output_kb](std::size_t, mec::UserEquipment& ue) {
        ue.task.output_bits = units::kilobytes_to_bits(output_kb);
      })
      .build(rng);
}

TEST(DownlinkTest, ZeroOutputMeansZeroDownloadTime) {
  const mec::Scenario scenario = make_scenario(0.0);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  EXPECT_EQ(rates.downlink_time_s(0, 0), 0.0);
  EXPECT_EQ(rates.link(x, 0).download_s, 0.0);
}

TEST(DownlinkTest, DownloadTimeMatchesFormula) {
  const mec::Scenario scenario = make_scenario(100.0);
  const CompiledProblem problem(scenario);
  const RateEvaluator rates(problem);
  const double snr = scenario.server(1).tx_power_w *
                     scenario.gain(2, 1, 0) / scenario.noise_w();
  const double rate =
      scenario.subchannel_bandwidth_hz() * std::log2(1.0 + snr);
  EXPECT_NEAR(rates.downlink_time_s(2, 1),
              units::kilobytes_to_bits(100.0) / rate, 1e-12);
}

TEST(DownlinkTest, OutputDataLowersUtility) {
  // Same drop; heavier output => strictly lower utility for the same X.
  const mec::Scenario no_output = make_scenario(0.0, 7);
  const mec::Scenario big_output = make_scenario(2000.0, 7);
  Assignment x_a(no_output);
  x_a.offload(0, 0, 0);
  Assignment x_b(big_output);
  x_b.offload(0, 0, 0);
  const CompiledProblem without_problem(no_output);
  const CompiledProblem with_problem(big_output);
  const double without =
      UtilityEvaluator(without_problem).system_utility(x_a);
  const double with = UtilityEvaluator(with_problem).system_utility(x_b);
  EXPECT_LT(with, without);
}

TEST(DownlinkTest, SmallOutputIsNearlyFree) {
  // The paper's justification for ignoring the downlink: high BS power and
  // small outputs. 4 KB at 40 dBm should cost almost nothing.
  const mec::Scenario no_output = make_scenario(0.0, 9);
  const mec::Scenario tiny_output = make_scenario(4.0, 9);
  Assignment x_a(no_output);
  x_a.offload(0, 0, 0);
  Assignment x_b(tiny_output);
  x_b.offload(0, 0, 0);
  const CompiledProblem without_problem(no_output);
  const CompiledProblem with_problem(tiny_output);
  const double without =
      UtilityEvaluator(without_problem).system_utility(x_a);
  const double with = UtilityEvaluator(with_problem).system_utility(x_b);
  EXPECT_NEAR(with, without, 5e-3 * std::max(1.0, std::fabs(without)));
}

TEST(DownlinkTest, DelayBreakdownIncludesDownload) {
  const mec::Scenario scenario = make_scenario(500.0, 11);
  Assignment x(scenario);
  x.offload(0, 1, 1);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  const Evaluation eval = evaluator.evaluate(x);
  const UserOutcome& outcome = eval.users[0];
  EXPECT_GT(outcome.link.download_s, 0.0);
  EXPECT_NEAR(outcome.total_delay_s,
              outcome.link.upload_s + outcome.link.download_s +
                  outcome.exec_s,
              1e-12);
}

TEST(DownlinkTest, FastAndDetailedPathsAgreeWithOutput) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const mec::Scenario scenario = make_scenario(300.0, seed, 10);
    const CompiledProblem problem(scenario);
    const UtilityEvaluator evaluator(problem);
    Rng rng(seed + 5);
    const Assignment x =
        algo::random_feasible_assignment(scenario, rng, 0.7);
    const double fast = evaluator.system_utility(x);
    const double detailed = evaluator.evaluate(x).system_utility;
    EXPECT_NEAR(fast, detailed, 1e-9 * std::max(1.0, std::fabs(fast)));
  }
}

TEST(DownlinkTest, IncrementalEvaluatorTracksDownlinkCosts) {
  const mec::Scenario scenario = make_scenario(300.0, 13, 10);
  const algo::Neighborhood neighborhood(scenario);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator reference(problem);
  Rng rng(17);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  for (int step = 0; step < 500; ++step) {
    const std::size_t mark = inc.checkpoint();
    neighborhood.step(inc, rng);
    if (rng.bernoulli(0.3)) inc.rollback(mark);
    if (step % 50 == 0) {
      ASSERT_NEAR(inc.utility(), reference.system_utility(inc.assignment()),
                  1e-6 * std::max(1.0, std::fabs(inc.utility())));
    }
  }
}

TEST(DownlinkTest, TaskValidatesOutputBits) {
  EXPECT_THROW(mec::Task(1e6, 1e9, -1.0), InvalidArgumentError);
  EXPECT_NO_THROW(mec::Task(1e6, 1e9, 0.0));
  EXPECT_NO_THROW(mec::Task(1e6, 1e9, 8e4));
}

}  // namespace
}  // namespace tsajs::jtora
