// Focused tests of the hJTORA reimplementation's two phases.
#include "algo/hjtora.h"

#include <gtest/gtest.h>

#include "algo/exhaustive.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 6,
                            std::size_t servers = 3,
                            std::size_t subchannels = 2) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .task_megacycles(2000.0)
      .build(rng);
}

TEST(HjtoraTest, AdmissionOnlyAcceptsImprovements) {
  // Phase 1 starts at 0 and only commits positive-gain admissions, so the
  // utility after phase 1 (and hence the final utility) is a sum of strict
  // improvements — monotone in the number of admitted users.
  const mec::Scenario scenario = make_scenario(1);
  Rng rng(2);
  const auto result = test::solve(HjtoraScheduler(), scenario, rng);
  // Every admitted user must be pulling its weight: dropping any single
  // offloaded user must not raise the objective by more than min_gain
  // (phase 2's drop test guarantees this at convergence).
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  jtora::Assignment x = result.assignment;
  for (const std::size_t u : result.assignment.offloaded_users()) {
    const auto slot = *x.slot_of(u);
    x.make_local(u);
    EXPECT_LE(evaluator.system_utility(x),
              result.system_utility + 1e-9)
        << "dropping user " << u << " should not improve the solution";
    x.offload(u, slot.server, slot.subchannel);
  }
}

TEST(HjtoraTest, NoFreeSlotLeftWithPositiveMarginalGain) {
  // At convergence, no local user can be admitted to any free slot with a
  // strictly positive gain (that is exactly phase 1's stopping rule).
  const mec::Scenario scenario = make_scenario(3);
  Rng rng(4);
  const auto result = test::solve(HjtoraScheduler(), scenario, rng);
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  jtora::Assignment x = result.assignment;
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (x.is_offloaded(u)) continue;
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
        if (x.occupant(s, j).has_value()) continue;
        x.offload(u, s, j);
        EXPECT_LE(evaluator.system_utility(x),
                  result.system_utility + 1e-9)
            << "admitting user " << u << " to (" << s << "," << j
            << ") should not improve the converged solution";
        x.make_local(u);
      }
    }
  }
}

TEST(HjtoraTest, MatchesExhaustiveOnMostSmallInstances) {
  int matches = 0;
  const int seeds = 8;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const mec::Scenario scenario = make_scenario(seed + 50, 5, 3, 1);
    Rng rng_a(seed);
    Rng rng_b(seed);
    const double optimum =
        test::solve(ExhaustiveScheduler(), scenario, rng_a).system_utility;
    const double heuristic =
        test::solve(HjtoraScheduler(), scenario, rng_b).system_utility;
    if (heuristic >= 0.98 * optimum) ++matches;
  }
  EXPECT_GE(matches, 6);
}

TEST(HjtoraTest, EvaluationCountGrowsWithSlotSpace) {
  const mec::Scenario small = make_scenario(7, 6, 2, 1);
  const mec::Scenario large = make_scenario(7, 6, 4, 3);
  Rng rng_a(1);
  Rng rng_b(1);
  const auto small_result = test::solve(HjtoraScheduler(), small, rng_a);
  const auto large_result = test::solve(HjtoraScheduler(), large, rng_b);
  EXPECT_GT(large_result.evaluations, small_result.evaluations);
}

}  // namespace
}  // namespace tsajs::algo
