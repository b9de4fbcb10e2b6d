#include "jtora/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "algo/neighborhood.h"
#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::size_t users = 10, std::size_t servers = 4,
                            std::size_t subchannels = 3,
                            std::uint64_t seed = 42) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

/// J*(X) from a plain evaluator on its own compilation of `scenario`.
double reference_utility(const mec::Scenario& scenario, const Assignment& x) {
  const CompiledProblem problem(scenario);
  return UtilityEvaluator(problem).system_utility(x);
}

TEST(IncrementalTest, InitialUtilityMatchesReference) {
  const mec::Scenario scenario = make_scenario();
  Rng rng(1);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.6);
  const CompiledProblem problem(scenario);
  const IncrementalEvaluator inc(problem, x);
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, x), 1e-9);
}

TEST(IncrementalTest, OffloadMatchesReference) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  inc.apply_offload(3, 1, 2);
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, inc.assignment()),
              1e-9);
  inc.apply_offload(5, 2, 2);  // same sub-channel: interference kicks in
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, inc.assignment()),
              1e-9);
}

TEST(IncrementalTest, MakeLocalMatchesReference) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  inc.apply_offload(0, 0, 0);
  inc.apply_offload(1, 1, 0);
  inc.apply_make_local(0);
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, inc.assignment()),
              1e-9);
  EXPECT_FALSE(inc.is_offloaded(0));
}

TEST(IncrementalTest, SwapMatchesReference) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  inc.apply_offload(0, 0, 0);
  inc.apply_offload(1, 1, 1);
  inc.apply_swap(0, 1);
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, inc.assignment()),
              1e-9);
  EXPECT_EQ(inc.slot_of(0), (Slot{1, 1}));
  EXPECT_EQ(inc.slot_of(1), (Slot{0, 0}));
}

TEST(IncrementalTest, MoveBetweenSubchannelsMatchesReference) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  inc.apply_offload(0, 0, 0);
  inc.apply_offload(1, 1, 0);
  inc.apply_offload(0, 0, 1);  // move away from user 1's sub-channel
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, inc.assignment()),
              1e-9);
}

TEST(IncrementalProperty, LongRandomWalkTracksReferenceEvaluator) {
  // The load-bearing property: after thousands of neighborhood operations,
  // some of them stepped on a copy that is then dropped, the incremental
  // utility still matches a from-scratch evaluation and the assignment
  // stays consistent.
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    const mec::Scenario scenario = make_scenario(12, 4, 3, seed);
    const algo::Neighborhood neighborhood(scenario);
    Rng rng(seed * 31 + 7);
    const CompiledProblem problem(scenario);
    IncrementalEvaluator inc(problem, Assignment(scenario));
    const UtilityEvaluator reference(problem);
    for (int step = 0; step < 2000; ++step) {
      IncrementalEvaluator trial = inc;
      neighborhood.step(trial, rng);
      if (!rng.bernoulli(0.4)) inc = std::move(trial);
      if (step % 100 == 0) {
        inc.assignment().check_consistency();
        ASSERT_NEAR(inc.utility(), reference.system_utility(inc.assignment()),
                    1e-6 * std::max(1.0, std::fabs(inc.utility())))
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_NO_THROW(inc.self_check());
  }
}

TEST(IncrementalTest, RebuildResetsDrift) {
  const mec::Scenario scenario = make_scenario();
  const algo::Neighborhood neighborhood(scenario);
  Rng rng(9);
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  for (int i = 0; i < 500; ++i) neighborhood.step(inc, rng);
  inc.rebuild();
  EXPECT_NEAR(inc.utility(), reference_utility(scenario, inc.assignment()),
              1e-12 * std::max(1.0, std::fabs(inc.utility())));
}

TEST(IncrementalPreviewTest, PreviewsMatchApplyWithoutMutating) {
  const mec::Scenario scenario = make_scenario();
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  inc.apply_offload(0, 0, 0);
  inc.apply_offload(1, 1, 0);  // shares sub-channel 0 with user 0
  inc.apply_offload(2, 2, 1);
  const Assignment before = inc.assignment();
  const double utility_before = inc.utility();

  // Each preview must (a) leave the state untouched and (b) predict the
  // utility the matching apply_* then realizes on a copy.
  const double p_offload = inc.preview_offload(0, 3, 2);
  EXPECT_EQ(inc.assignment(), before);
  EXPECT_EQ(inc.utility(), utility_before);
  const double a_offload = IncrementalEvaluator(inc).apply_offload(0, 3, 2);
  EXPECT_NEAR(p_offload, a_offload,
              1e-9 * std::max(1.0, std::fabs(a_offload)));

  const double p_local = inc.preview_make_local(1);
  EXPECT_EQ(inc.assignment(), before);
  const double a_local = IncrementalEvaluator(inc).apply_make_local(1);
  EXPECT_NEAR(p_local, a_local, 1e-9 * std::max(1.0, std::fabs(a_local)));

  const double p_swap = inc.preview_swap(0, 1);
  EXPECT_EQ(inc.assignment(), before);
  const double a_swap = IncrementalEvaluator(inc).apply_swap(0, 1);
  EXPECT_NEAR(p_swap, a_swap, 1e-9 * std::max(1.0, std::fabs(a_swap)));
  EXPECT_EQ(inc.assignment(), before);
  EXPECT_EQ(inc.utility(), utility_before);
}

TEST(IncrementalPreviewTest, PreviewReplaceEvictsOccupant) {
  Rng rng_s(7);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(4)
                                     .num_servers(2)
                                     .num_subchannels(1)
                                     .build(rng_s);
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  inc.apply_offload(0, 0, 0);
  inc.apply_offload(1, 1, 0);
  const Assignment before = inc.assignment();

  // User 2 takes (0, 0); user 0 is evicted to local.
  const double previewed = inc.preview_replace(2, 0, 0);
  EXPECT_EQ(inc.assignment(), before);
  IncrementalEvaluator replaced = inc;
  replaced.apply_make_local(0);
  const double applied = replaced.apply_offload(2, 0, 0);
  EXPECT_NEAR(previewed, applied, 1e-9 * std::max(1.0, std::fabs(applied)));
  EXPECT_NEAR(previewed, reference_utility(scenario, replaced.assignment()),
              1e-9 * std::max(1.0, std::fabs(applied)));
}

TEST(IncrementalPreviewProperty, ProposedMovesPreviewExactly) {
  // The annealer's contract: for any proposed neighborhood move, the
  // preview equals the utility reached by applying the move — across long
  // random walks with every move kind (offload, local, swap, replace).
  for (const std::uint64_t seed : {23u, 24u}) {
    const mec::Scenario scenario = make_scenario(12, 4, 3, seed);
    const algo::Neighborhood neighborhood(scenario);
    Rng rng(seed * 17 + 3);
    const CompiledProblem problem(scenario);
    IncrementalEvaluator inc(problem, Assignment(scenario));
    for (int step = 0; step < 3000; ++step) {
      const auto move = neighborhood.propose(inc, rng);
      const double previewed = neighborhood.preview(inc, move);
      neighborhood.apply_move(inc, move);
      const double applied = inc.utility();
      ASSERT_NEAR(previewed, applied,
                  1e-9 * std::max(1.0, std::fabs(applied)))
          << "seed " << seed << " step " << step << " kind "
          << static_cast<int>(move.kind);
    }
    EXPECT_NO_THROW(inc.self_check());
  }
}

TEST(IncrementalDriftTest, LongChainStaysPinnedWithRebuildCadence) {
  // ~50k committed moves: the periodic rebuild (every 4096 commits)
  // must keep the accumulated running sums within self_check tolerance of a
  // from-scratch evaluation at the end of the chain.
  const mec::Scenario scenario = make_scenario(20, 5, 4, 31);
  const algo::Neighborhood neighborhood(scenario);
  Rng rng(77);
  const CompiledProblem problem(scenario);
  IncrementalEvaluator inc(problem, Assignment(scenario));
  for (int step = 0; step < 50000; ++step) {
    neighborhood.step(inc, rng);
  }
  EXPECT_NO_THROW(inc.self_check(1e-9));
  inc.assignment().check_consistency();
}

TEST(IncrementalTest, TsajsIncrementalAndPlainPathsAgree) {
  // Same seed, same proposals: the two evaluation strategies must visit the
  // same chain and return the same decision.
  const mec::Scenario scenario = make_scenario(8, 3, 2, 11);
  algo::TsajsConfig fast;
  fast.use_incremental_evaluator = true;
  algo::TsajsConfig slow;
  slow.use_incremental_evaluator = false;
  Rng rng_a(13);
  Rng rng_b(13);
  const auto a = test::solve(algo::TsajsScheduler(fast), scenario, rng_a);
  const auto b = test::solve(algo::TsajsScheduler(slow), scenario, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_NEAR(a.system_utility, b.system_utility,
              1e-6 * std::max(1.0, std::fabs(b.system_utility)));
}

}  // namespace
}  // namespace tsajs::jtora
