// Incremental evaluation of the cloud tier: apply_set_forwarded against the
// plain evaluator, the O(1) preview, and a random chain of forwards,
// recalls and slot moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/incremental.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_cloud_scenario(std::uint64_t seed = 61,
                                  std::size_t users = 10,
                                  std::size_t servers = 4,
                                  std::size_t subchannels = 3) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .cloud(/*cpu_hz=*/80e9, /*backhaul_bps=*/120e6,
             /*backhaul_latency_s=*/0.015)
      .build(rng);
}

TEST(IncrementalCloudTest, ApplySetForwardedTracksPlainEvaluator) {
  const mec::Scenario scenario = make_cloud_scenario();
  const CompiledProblem problem(scenario);
  const UtilityEvaluator plain(problem);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.offload(2, 1, 0);
  x.offload(3, 2, 2);
  IncrementalEvaluator eval(plain.problem(), x);

  const std::size_t moves[] = {0, 2, 3};
  for (std::size_t u : moves) {
    const double incr = eval.apply_set_forwarded(u, true);
    x.set_forwarded(u, true);
    EXPECT_NEAR(incr, plain.system_utility(x), 1e-9) << "forward user " << u;
  }
  const double recalled = eval.apply_set_forwarded(2, false);
  x.set_forwarded(2, false);
  EXPECT_NEAR(recalled, plain.system_utility(x), 1e-9);
  EXPECT_NO_THROW(eval.self_check());
}

TEST(IncrementalCloudTest, PreviewSetForwardedMatchesApply) {
  const mec::Scenario scenario = make_cloud_scenario(67);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 1, 0);
  x.offload(2, 1, 1);
  const CompiledProblem problem(scenario);
  IncrementalEvaluator eval(problem, x);

  for (std::size_t u : {0u, 1u, 2u}) {
    const double previewed = eval.preview_set_forwarded(u, true);
    IncrementalEvaluator copy(eval.problem(), eval.assignment());
    const double applied = copy.apply_set_forwarded(u, true);
    EXPECT_DOUBLE_EQ(previewed, applied) << "user " << u;
    // The preview must not have mutated anything.
    EXPECT_FALSE(eval.is_forwarded(u));
  }
  // Recall preview from a forwarded state.
  eval.apply_set_forwarded(1, true);
  const double previewed = eval.preview_set_forwarded(1, false);
  IncrementalEvaluator copy(eval.problem(), eval.assignment());
  EXPECT_DOUBLE_EQ(previewed, copy.apply_set_forwarded(1, false));
}

TEST(IncrementalCloudTest, SlotPreviewsAccountForForwardedOccupants) {
  // A forwarded occupant contributes to the cloud pool, not its server's —
  // previews of moves around it must keep that split.
  const mec::Scenario scenario = make_cloud_scenario(71);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator plain(problem);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.set_forwarded(0, true);
  IncrementalEvaluator eval(plain.problem(), x);

  // Offload preview next to the forwarded occupant.
  Assignment moved = x;
  moved.offload(2, 0, 2);
  EXPECT_NEAR(eval.preview_offload(2, 0, 2), plain.system_utility(moved),
              1e-9);

  // Evicting the forwarded occupant recalls it (local users cannot be
  // forwarded), so the replace preview must drop its cloud share.
  Assignment replaced = x;
  replaced.make_local(0);
  replaced.offload(2, 0, 0);
  EXPECT_NEAR(eval.preview_replace(2, 0, 0), plain.system_utility(replaced),
              1e-9);

  // Make-local of the forwarded user itself.
  Assignment local = x;
  local.make_local(0);
  EXPECT_NEAR(eval.preview_make_local(0), plain.system_utility(local), 1e-9);
}

TEST(IncrementalCloudTest, RandomOperationChainStaysConsistent) {
  const mec::Scenario scenario = make_cloud_scenario(79, 12, 4, 3);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator plain(problem);
  Assignment x(scenario);
  // 400 steps commit fewer operations than the 4096 between two rebuilds,
  // so the chain exercises the running sums alone.
  IncrementalEvaluator eval(plain.problem(), x);
  Rng rng(101);

  for (int step = 0; step < 400; ++step) {
    const std::size_t u = rng.uniform_index(scenario.num_users());
    const int op = static_cast<int>(rng.uniform_index(4));
    if (op == 0) {
      const std::size_t s = rng.uniform_index(scenario.num_servers());
      const std::size_t j = rng.uniform_index(scenario.num_subchannels());
      if (!eval.occupant(s, j).has_value() ||
          eval.occupant(s, j) == std::optional<std::size_t>(u)) {
        eval.apply_offload(u, s, j);
        x.offload(u, s, j);
      }
    } else if (op == 1) {
      eval.apply_make_local(u);
      x.make_local(u);
    } else if (op == 2 && eval.can_forward(u) && !eval.is_forwarded(u)) {
      eval.apply_set_forwarded(u, true);
      x.set_forwarded(u, true);
    } else if (op == 3 && eval.is_forwarded(u)) {
      eval.apply_set_forwarded(u, false);
      x.set_forwarded(u, false);
    }
    ASSERT_NEAR(eval.utility(), plain.system_utility(x), 1e-7)
        << "step " << step;
    ASSERT_EQ(eval.num_forwarded(), x.num_forwarded()) << "step " << step;
  }
  EXPECT_NO_THROW(eval.self_check());
}

}  // namespace
}  // namespace tsajs::jtora
