// The evaluators' fast paths against the scalar references they replace,
// bit for bit: UtilityEvaluator's occupant-list interference walk against
// RateEvaluator's per-user occupant() walk, and the batch preview row
// against one scalar preview per candidate server.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "algo/scheduler.h"
#include "common/error.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/cra.h"
#include "jtora/incremental.h"
#include "jtora/rate.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 30,
                            std::size_t servers = 9,
                            std::size_t subchannels = 3) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

/// Scalar reference for UtilityEvaluator::system_utility: Eq. 24 summed
/// over the offloaded users in ascending order, each SINR taken from
/// RateEvaluator's per-user occupant() walk instead of the gathered
/// occupant lists.
double scalar_system_utility(const CompiledProblem& problem,
                             const Assignment& x) {
  const RateEvaluator rates(problem);
  const CraSolver cra(problem);
  double gain = 0.0;
  double gamma = 0.0;
  for (std::size_t u = 0; u < problem.num_users(); ++u) {
    if (!x.is_offloaded(u)) continue;
    gain += problem.gain_const(u);
    gamma += problem.gamma_coef(u) / std::log2(1.0 + rates.sinr(x, u));
    if (x.is_forwarded(u)) {
      gamma += problem.time_cost_scale(u) * problem.forward_time_s(u);
    }
  }
  return gain - gamma - cra.optimal_objective(x);
}

// system_utility's occupant-list walk ("on") against the scalar Eq. 24
// chain it replaced ("off"), bit for bit: this pins the gather's
// ascending-server summation order.
TEST(BatchDispatchTest, UtilityEvaluatorIdenticalWithBatchOnAndOff) {
  const mec::Scenario scenario = make_scenario(5, 40, 9, 3);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    Rng rng(seed);
    const Assignment x =
        algo::random_feasible_assignment(scenario, rng, 0.8);
    EXPECT_EQ(evaluator.system_utility(x), scalar_system_utility(problem, x));
  }
}

TEST(BatchPreviewTest, SubchannelRowMatchesScalarPreviews) {
  const mec::Scenario scenario = make_scenario(8, 25, 6, 3);
  const CompiledProblem problem(scenario);
  Rng rng(13);
  Assignment x = algo::random_feasible_assignment(scenario, rng, 0.5);
  // Make sure at least one user is local so the batch preview has a mover.
  if (x.is_offloaded(0)) x.make_local(0);
  const IncrementalEvaluator eval(problem, x);
  std::vector<std::size_t> servers(scenario.num_servers());
  std::iota(servers.begin(), servers.end(), std::size_t{0});
  std::vector<double> row(scenario.num_servers());
  for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
    eval.preview_offload_subchannel(0, j, servers, row.data());
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      if (x.occupant(s, j).has_value() || !scenario.slot_available(s, j)) {
        EXPECT_TRUE(std::isnan(row[s])) << "s=" << s << " j=" << j;
      } else {
        EXPECT_EQ(row[s], eval.preview_offload(0, s, j));
      }
    }
  }
}

TEST(BatchPreviewTest, CandidateSubsetMatchesScalarPreviews) {
  // A non-contiguous, unsorted candidate list over a masked grid whose
  // sub-channel 1 carries a cloud-forwarded occupant: every free candidate
  // must equal the scalar preview bit for bit, and every occupied or masked
  // one must come back NaN.
  Rng build_rng(41);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(24)
                                 .num_servers(9)
                                 .num_subchannels(3)
                                 .cloud(20e9, 100e6, 0.02)
                                 .build(build_rng);
  mec::Availability mask(9, 3);
  mask.block_slot(4, 1);
  mask.fail_server(6);
  const mec::Scenario scenario = base.with_availability(mask);
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(3, 2, 1);
  x.set_forwarded(3, true);
  x.offload(5, 7, 1);
  x.offload(9, 0, 0);
  x.offload(12, 5, 2);
  const IncrementalEvaluator eval(problem, x);
  ASSERT_TRUE(eval.is_forwarded(3));

  const std::vector<std::size_t> candidates = {8, 2, 4, 0, 6, 5, 7};
  std::vector<double> row(candidates.size());
  std::size_t scored = 0;
  for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
    eval.preview_offload_subchannel(11, j, candidates, row.data());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t s = candidates[i];
      if (x.occupant(s, j).has_value() || !scenario.slot_available(s, j)) {
        EXPECT_TRUE(std::isnan(row[i])) << "s=" << s << " j=" << j;
      } else {
        EXPECT_EQ(row[i], eval.preview_offload(11, s, j));
        ++scored;
      }
    }
  }
  // Sub-channel 1 alone leaves 8, 0 and 5 free.
  EXPECT_GE(scored, 3u);
}

TEST(BatchPreviewTest, RejectsOutOfRangeCandidate) {
  const mec::Scenario scenario = make_scenario(9, 6, 3, 2);
  const CompiledProblem problem(scenario);
  const IncrementalEvaluator eval(problem, Assignment(scenario));
  const std::vector<std::size_t> candidates = {1, scenario.num_servers()};
  std::vector<double> row(candidates.size());
  EXPECT_THROW(eval.preview_offload_subchannel(2, 0, candidates, row.data()),
               InvalidArgumentError);
}

TEST(BatchPreviewTest, RequiresLocalMover) {
  const mec::Scenario scenario = make_scenario(9, 6, 3, 2);
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(2, 1, 0);
  const IncrementalEvaluator eval(problem, x);
  const std::vector<std::size_t> candidates = {0, 2};
  std::vector<double> row(candidates.size());
  EXPECT_THROW(eval.preview_offload_subchannel(2, 0, candidates, row.data()),
               InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::jtora
