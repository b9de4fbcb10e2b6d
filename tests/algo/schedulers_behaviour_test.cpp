// Behavioural tests of the individual scheduling schemes.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/exhaustive.h"
#include "algo/greedy.h"
#include "algo/hjtora.h"
#include "algo/local_search.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario small_scenario(std::uint64_t seed,
                             double megacycles = 1000.0) {
  // The paper's Fig. 3 setting: U=6, S=4, N=2.
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(6)
      .num_servers(4)
      .num_subchannels(2)
      .task_megacycles(megacycles)
      .build(rng);
}

TEST(ExhaustiveTest, BeatsOrMatchesEveryOtherScheme) {
  // Global optimality: nothing may exceed the exhaustive optimum.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const mec::Scenario scenario = small_scenario(seed);
    Rng rng(seed + 10);
    const double optimum =
        test::solve(ExhaustiveScheduler(), scenario, rng).system_utility;
    const double tsajs =
        test::solve(TsajsScheduler(), scenario, rng).system_utility;
    const double hjtora =
        test::solve(HjtoraScheduler(), scenario, rng).system_utility;
    const double greedy =
        test::solve(GreedyScheduler(), scenario, rng).system_utility;
    const double local =
        test::solve(LocalSearchScheduler(), scenario, rng).system_utility;
    const double slack = 1e-9 * std::max(1.0, std::fabs(optimum));
    EXPECT_LE(tsajs, optimum + slack) << "seed " << seed;
    EXPECT_LE(hjtora, optimum + slack) << "seed " << seed;
    EXPECT_LE(greedy, optimum + slack) << "seed " << seed;
    EXPECT_LE(local, optimum + slack) << "seed " << seed;
  }
}

TEST(ExhaustiveTest, FindsPositiveUtilityOnEasyInstance) {
  const mec::Scenario scenario = small_scenario(5);
  Rng rng(6);
  const auto result = test::solve(ExhaustiveScheduler(), scenario, rng);
  EXPECT_GT(result.system_utility, 0.0);
  EXPECT_GT(result.assignment.num_offloaded(), 0u);
}

TEST(ExhaustiveTest, LeafBudgetGuardTrips) {
  const mec::Scenario scenario = small_scenario(7);
  Rng rng(8);
  const ExhaustiveScheduler tiny_budget(/*max_leaves=*/10);
  EXPECT_THROW((void)test::solve(tiny_budget, scenario, rng),
               InvalidArgumentError);
}

TEST(TsajsTest, NearOptimalOnSmallInstances) {
  // The paper's headline claim (Fig. 3): TSAJS is within a whisker of the
  // exhaustive optimum. Allow a 5% gap on any single seed.
  int close_calls = 0;
  const int seeds = 10;
  for (std::uint64_t seed = 0; seed < seeds; ++seed) {
    const mec::Scenario scenario = small_scenario(seed + 100, 2000.0);
    Rng rng_exh(seed + 1000);
    Rng rng_tsajs(seed + 2000);
    const double optimum =
        test::solve(ExhaustiveScheduler(), scenario, rng_exh).system_utility;
    const double heuristic =
        test::solve(TsajsScheduler(), scenario, rng_tsajs).system_utility;
    ASSERT_GT(optimum, 0.0);
    if (heuristic >= 0.95 * optimum) ++close_calls;
  }
  EXPECT_GE(close_calls, 9) << "TSAJS should be near-optimal on >=90% seeds";
}

TEST(TsajsTest, UtilityNeverNegative) {
  // The all-local decision scores 0 and is always feasible; since TSAJS
  // tracks the best-seen solution, it can never return worse than the best
  // neighbor of its start, and on these instances must be >= 0.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const mec::Scenario scenario = small_scenario(seed + 300);
    Rng rng(seed);
    const auto result = test::solve(TsajsScheduler(), scenario, rng);
    EXPECT_GE(result.system_utility, 0.0);
  }
}

TEST(TsajsTest, DeterministicGivenSeed) {
  const mec::Scenario scenario = small_scenario(11);
  Rng rng_a(7);
  Rng rng_b(7);
  const auto a = test::solve(TsajsScheduler(), scenario, rng_a);
  const auto b = test::solve(TsajsScheduler(), scenario, rng_b);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(TsajsTest, LongerChainDoesNotHurtOnAverage) {
  // Fig. 4's L=10 vs L=30 comparison: more search never hurts in
  // expectation. Averaged over seeds to tame stochasticity.
  double total10 = 0.0;
  double total30 = 0.0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const mec::Scenario scenario = small_scenario(seed + 500, 3000.0);
    TsajsConfig c10;
    c10.chain_length = 10;
    TsajsConfig c30;
    c30.chain_length = 30;
    Rng rng_a(seed);
    Rng rng_b(seed);
    total10 += test::solve(TsajsScheduler(c10), scenario, rng_a).system_utility;
    total30 += test::solve(TsajsScheduler(c30), scenario, rng_b).system_utility;
  }
  EXPECT_GE(total30, total10 * 0.99);
}

TEST(TsajsTest, ConfigValidation) {
  TsajsConfig config;
  config.chain_length = 0;
  EXPECT_THROW(TsajsScheduler{config}, InvalidArgumentError);
}

TEST(TsajsTest, GeometricCoolingAblationRuns) {
  TsajsConfig config;
  config.cooling = CoolingMode::kGeometric;
  const TsajsScheduler scheduler(config);
  EXPECT_EQ(scheduler.name(), "tsajs-geo");
  const mec::Scenario scenario = small_scenario(13);
  Rng rng(1);
  const auto result = test::solve(scheduler, scenario, rng);
  EXPECT_GE(result.system_utility, 0.0);
}

TEST(GreedyTest, RespectsSlotCapacity) {
  // 6 users > 4 slots => at most 4 offloaded (fewer if some are dropped as
  // non-beneficial).
  Rng rng_a(1);
  const mec::Scenario tight = mec::ScenarioBuilder()
                                  .num_users(6)
                                  .num_servers(2)
                                  .num_subchannels(2)
                                  .build(rng_a);
  Rng rng(2);
  EXPECT_LE(
      test::solve(GreedyScheduler(), tight, rng).assignment.num_offloaded(),
      4u);
}

TEST(GreedyTest, OffloadsOnlyBeneficialUsers) {
  // The permissibility rule (Sec. III-A-4): every kept offloader has a
  // non-negative benefit, so the system utility can never be negative.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const mec::Scenario scenario = small_scenario(seed + 40);
    Rng rng(seed);
    const auto result = test::solve(GreedyScheduler(), scenario, rng);
    EXPECT_GE(result.system_utility, 0.0) << "seed " << seed;
    const jtora::CompiledProblem problem(scenario);
    const jtora::UtilityEvaluator evaluator(problem);
    const jtora::Evaluation eval = evaluator.evaluate(result.assignment);
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      if (eval.users[u].offloaded) {
        EXPECT_GE(eval.users[u].utility, 0.0) << "user " << u;
      }
    }
  }
}

TEST(GreedyTest, DeterministicWithoutRng) {
  const mec::Scenario scenario = small_scenario(15);
  Rng rng_a(1);
  Rng rng_b(999);
  const auto a = test::solve(GreedyScheduler(), scenario, rng_a);
  const auto b = test::solve(GreedyScheduler(), scenario, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(GreedyTest, EachUserGetsItsStrongestAvailableSlot) {
  // The first user in signal order must sit on its globally strongest slot.
  const mec::Scenario scenario = small_scenario(17);
  Rng rng(1);
  const auto result = test::solve(GreedyScheduler(), scenario, rng);
  // Find the globally strongest (u, s, j).
  double best = -1.0;
  std::size_t bu = 0, bs = 0, bj = 0;
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
        const double sig =
            scenario.user(u).tx_power_w * scenario.gain(u, s, j);
        if (sig > best) {
          best = sig;
          bu = u;
          bs = s;
          bj = j;
        }
      }
    }
  }
  EXPECT_EQ(result.assignment.slot_of(bu), (jtora::Slot{bs, bj}));
}

TEST(LocalSearchTest, ImprovesOverItsRandomStart) {
  const mec::Scenario scenario = small_scenario(19);
  Rng rng_init(5);
  const jtora::Assignment start =
      random_feasible_assignment(scenario, rng_init, 0.5);
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  const double start_utility = evaluator.system_utility(start);
  Rng rng(5);
  const auto result =
      test::solve(LocalSearchScheduler(), scenario, rng, &start);
  EXPECT_GE(result.system_utility, start_utility);
}

TEST(LocalSearchTest, RespectsIterationBudget) {
  // L = 1: at most 100 proposals, plus the start's evaluation.
  const mec::Scenario scenario = small_scenario(21);
  Rng rng(6);
  const auto result = test::solve(LocalSearchScheduler(1), scenario, rng);
  EXPECT_LE(result.evaluations, 101u);
}

TEST(LocalSearchTest, ConfigValidation) {
  EXPECT_THROW(LocalSearchScheduler{0}, InvalidArgumentError);
}

TEST(HjtoraTest, ProducesNonNegativeUtility) {
  // Phase 1 admits only strictly improving moves starting from the all-local
  // zero, so the result can never be negative.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const mec::Scenario scenario = small_scenario(seed + 700);
    Rng rng(seed);
    const auto result = test::solve(HjtoraScheduler(), scenario, rng);
    EXPECT_GE(result.system_utility, 0.0);
  }
}

TEST(HjtoraTest, DeterministicWithoutRng) {
  const mec::Scenario scenario = small_scenario(23);
  Rng rng_a(1);
  Rng rng_b(2);
  const auto a = test::solve(HjtoraScheduler(), scenario, rng_a);
  const auto b = test::solve(HjtoraScheduler(), scenario, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
}

TEST(HjtoraTest, AtLeastAsGoodAsGreedyOnAverage) {
  double hjtora_total = 0.0;
  double greedy_total = 0.0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const mec::Scenario scenario = small_scenario(seed + 900, 2000.0);
    Rng rng(seed);
    hjtora_total +=
        test::solve(HjtoraScheduler(), scenario, rng).system_utility;
    greedy_total +=
        test::solve(GreedyScheduler(), scenario, rng).system_utility;
  }
  EXPECT_GE(hjtora_total, greedy_total);
}

}  // namespace
}  // namespace tsajs::algo
