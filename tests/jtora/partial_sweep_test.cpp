// Parameterized property sweep of the partial-offloading optimizer across
// the preference/workload grid: the closed-form candidate set must dominate
// a dense numeric scan of the split interval.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algo/scheduler.h"
#include "jtora/partial.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

class PartialSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(PartialSweepTest, ClosedFormBeatsDenseScan) {
  const auto& [beta_time, megacycles] = GetParam();
  Rng srng(static_cast<std::uint64_t>(beta_time * 100) * 131 +
           static_cast<std::uint64_t>(megacycles));
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(6)
                                     .num_servers(3)
                                     .num_subchannels(2)
                                     .beta_time(beta_time)
                                     .task_megacycles(megacycles)
                                     .build(srng);
  Rng rng(7);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.8);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator full(problem);
  const Evaluation full_eval = full.evaluate(x);
  const PartialOffloadEvaluator partial(problem);

  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (!x.is_offloaded(u)) continue;
    const LinkMetrics& link = full_eval.users[u].link;
    const double cpu = full_eval.allocation.cpu_hz[u];
    const PartialOutcome best = partial.best_split(u, link, cpu);

    // Dense scan of J(x) over the split interval.
    const mec::UserEquipment& ue = scenario.user(u);
    const double t_local = ue.local_time_s();
    const double e_local = ue.local_energy_j();
    const double remote_slope =
        link.upload_s + link.download_s + ue.task.cycles / cpu;
    double scan_best = -1e300;
    for (int i = 0; i <= 1000; ++i) {
      const double split = static_cast<double>(i) / 1000.0;
      const double delay =
          std::max((1.0 - split) * t_local, split * remote_slope);
      const double energy =
          (1.0 - split) * e_local + split * link.tx_energy_j;
      const double utility = ue.beta_time * (t_local - delay) / t_local +
                             ue.beta_energy * (e_local - energy) / e_local;
      scan_best = std::max(scan_best, utility);
    }
    EXPECT_GE(best.utility, scan_best - 1e-9)
        << "user " << u << " beta=" << beta_time << " w=" << megacycles;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PreferenceWorkloadGrid, PartialSweepTest,
    ::testing::Combine(::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9),
                       ::testing::Values(500.0, 1500.0, 4000.0)));

}  // namespace
}  // namespace tsajs::jtora
