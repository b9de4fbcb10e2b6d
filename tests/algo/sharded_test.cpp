#include "algo/sharded.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>

#include "algo/greedy.h"
#include "algo/registry.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "common/rng.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 45,
                            std::size_t servers = 9,
                            std::size_t subchannels = 3) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TsajsConfig small_tsajs() {
  TsajsConfig config;
  config.chain_length = 10;
  return config;
}

TEST(ShardedSchedulerTest, OneShardBitIdenticalToInner) {
  const mec::Scenario scenario = make_scenario(1);
  const jtora::CompiledProblem problem(scenario);
  // Reach wider than the deployment -> one shard -> pure passthrough.
  ShardedConfig config;
  config.reach_m = 1e7;
  const ShardedScheduler sharded(std::make_unique<TsajsScheduler>(small_tsajs()),
                                 config);
  const TsajsScheduler inner(small_tsajs());
  Rng rng_a(42);
  Rng rng_b(42);
  const ScheduleResult a = test::solve(sharded, problem, rng_a);
  const ScheduleResult b = test::solve(inner, problem, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);  // bitwise
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(ShardedSchedulerTest, SingleSiteFallsThrough) {
  const mec::Scenario scenario = make_scenario(2, 10, 1, 3);
  const jtora::CompiledProblem problem(scenario);
  const ShardedScheduler sharded(std::make_unique<GreedyScheduler>());
  const GreedyScheduler inner;
  Rng rng_a(7);
  Rng rng_b(7);
  EXPECT_EQ(test::solve(sharded, problem, rng_a).assignment,
            test::solve(inner, problem, rng_b).assignment);
}

TEST(ShardedSchedulerTest, MultiShardSolveValidatesAndIsDeterministic) {
  const mec::Scenario scenario = make_scenario(3, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  const ShardedScheduler scheduler(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);

  Rng rng_a(5);
  // run_and_validate audits feasibility, availability, and the reported
  // utility against an independent evaluation.
  const ScheduleResult a = test::validated(scheduler, problem, rng_a);
  EXPECT_GT(a.evaluations, 0u);

  Rng rng_b(5);
  const ScheduleResult b = test::validated(scheduler, problem, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
}

TEST(ShardedSchedulerTest, ThreadCountDoesNotChangeTheResult) {
  const mec::Scenario scenario = make_scenario(4, 50);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig sequential;
  sequential.reach_m = 2000.0;
  sequential.threads = 1;
  ShardedConfig pooled = sequential;
  pooled.threads = 4;
  const ShardedScheduler one(std::make_unique<GreedyScheduler>(), sequential);
  const ShardedScheduler four(std::make_unique<GreedyScheduler>(), pooled);
  Rng rng_a(9);
  Rng rng_b(9);
  const ScheduleResult a = test::solve(one, problem, rng_a);
  const ScheduleResult b = test::solve(four, problem, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
}

TEST(ShardedSchedulerTest, TinyWallClockBudgetStillFeasible) {
  const mec::Scenario scenario = make_scenario(7, 40);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  config.budget.max_seconds = 1e-9;  // fires before any fixup round
  const ShardedScheduler scheduler(std::make_unique<GreedyScheduler>(),
                                   config);
  Rng rng(13);
  // The merged shard solution is feasible on its own, so validation holds
  // even when the budget cancels the fixup.
  const ScheduleResult result = test::validated(scheduler, problem, rng);
  result.assignment.check_consistency();
}

// The parallel shard path — shard solves and the colored fixup — must be
// bit-identical to the sequential one at every thread count, for a
// stochastic inner scheme. The solve is unbudgeted, so neither the budget
// split nor the reclaim pass runs here (ReclaimPassIsPinnedAt1_2_8Threads).
TEST(ShardedSchedulerTest, ParallelSolveBitIdenticalAt1_2_8Threads) {
  const mec::Scenario scenario = make_scenario(21, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig base;
  base.reach_m = 2000.0;
  base.threads = 1;
  const ShardedScheduler sequential(
      std::make_unique<TsajsScheduler>(small_tsajs()), base);
  Rng rng_ref(31);
  const ScheduleResult reference = test::solve(sequential, problem, rng_ref);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    ShardedConfig pooled = base;
    pooled.threads = threads;
    const ShardedScheduler parallel(
        std::make_unique<TsajsScheduler>(small_tsajs()), pooled);
    Rng rng(31);
    const ScheduleResult result = test::solve(parallel, problem, rng);
    EXPECT_EQ(result.assignment, reference.assignment);
    EXPECT_EQ(result.system_utility, reference.system_utility);  // bitwise
    EXPECT_EQ(result.evaluations, reference.evaluations);
  }
}

// Iteration budgets split across mixed-size shards must stay a pure
// function of (problem, seed): the outcome is identical at 1 and 4 threads,
// bit for bit. The cap truncates every shard, so no shard leaves iterations
// over and the reclaim pass has nothing to hand out.
TEST(ShardedSchedulerTest, IterationBudgetSplitIsDeterministicAcrossThreads) {
  // 60 users over 9 servers, reach 2000 -> several shards of uneven size.
  const mec::Scenario scenario = make_scenario(22, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  // Small enough that shards exhaust their slices (TSAJS runs thousands of
  // evaluations unbudgeted), large enough that every shard solves.
  config.budget.max_iterations = 200;
  config.threads = 1;
  const ShardedScheduler one(std::make_unique<TsajsScheduler>(small_tsajs()),
                             config);
  config.threads = 4;
  const ShardedScheduler four(std::make_unique<TsajsScheduler>(small_tsajs()),
                              config);
  Rng rng_a(17);
  Rng rng_b(17);
  const ScheduleResult a = test::validated(one, problem, rng_a);
  const ScheduleResult b = test::validated(four, problem, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
  // The cap bit: effort is far below the ~20k evaluations of an unbudgeted
  // solve on this instance. The total may legitimately exceed the nominal
  // 200 — each shard overshoots its slice by up to one plateau, and the
  // boundary-fixup previews count as evaluations too — so only a loose
  // ceiling is asserted.
  EXPECT_GT(a.evaluations, 0u);
  EXPECT_LE(a.evaluations, 20 * config.budget.max_iterations);
}

// The reclaim pass: under an iteration budget, the iterations that shards
// finishing under their slice leave unused go to the truncated shards,
// which re-solve warm from their own result. On this drop some shards
// finish and others are truncated, so the pass runs: without it the solve
// spends 33,199 evaluations instead of 34,710. The pins hold at every
// thread count, so the pass's parallel_for runs under each.
TEST(ShardedSchedulerTest, ReclaimPassIsPinnedAt1_2_8Threads) {
  const mec::Scenario scenario = make_scenario(1, 65, 19);
  const jtora::CompiledProblem problem(scenario);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    ShardedConfig config;
    config.reach_m = 2000.0;
    config.threads = threads;
    config.budget.max_iterations = 400000;
    const ShardedScheduler scheduler(
        std::make_unique<TsajsScheduler>(small_tsajs()), config);
    Rng rng(29);
    const ScheduleResult result = test::validated(scheduler, problem, rng);
    EXPECT_EQ(result.system_utility, 0x1.a13105455cb72p+3);
    EXPECT_EQ(result.evaluations, 34710u);
    EXPECT_EQ(test::slot_crc(result.assignment), 0xc4c7e07du);
  }
}

// The fixup's guard: a colour class whose moves, replayed on the global
// problem, lose utility to the far-field couplings its halos cut off is
// undone by replaying its moves backwards. On this drop the guard undoes a
// class; without it the solve returns 0x1.804df36acbce2p+3.
TEST(ShardedSchedulerTest, FixupUndoesALosingClassAt1_2_8Threads) {
  const mec::Scenario scenario = make_scenario(4, 80, 19);
  const jtora::CompiledProblem problem(scenario);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    ShardedConfig config;
    config.reach_m = 1000.0;
    config.threads = threads;
    const ShardedScheduler scheduler(std::make_unique<GreedyScheduler>(),
                                     config);
    Rng rng(29);
    const ScheduleResult result = test::validated(scheduler, problem, rng);
    EXPECT_EQ(result.system_utility, 0x1.80ba01516518fp+3);
    EXPECT_EQ(result.evaluations, 1358u);
    EXPECT_EQ(test::slot_crc(result.assignment), 0x7ede9e9du);
  }
}

// Warm start: a global hint routes through per-shard slices to the inner
// scheme. The warm solve must be deterministic, feasible under the full
// audit, and bit-identical across thread counts.
TEST(ShardedSchedulerTest, WarmStartIsDeterministicAndThreadInvariant) {
  const mec::Scenario scenario = make_scenario(23, 55);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  const ShardedScheduler scheduler(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);

  Rng cold_rng(41);
  const ScheduleResult cold = test::solve(scheduler, problem, cold_rng);

  Rng rng_a(43);
  const ScheduleResult warm_a =
      test::validated(scheduler, problem, rng_a, &cold.assignment);
  Rng rng_b(43);
  const ScheduleResult warm_b =
      test::validated(scheduler, problem, rng_b, &cold.assignment);
  EXPECT_EQ(warm_a.assignment, warm_b.assignment);
  EXPECT_EQ(warm_a.system_utility, warm_b.system_utility);

  config.threads = 4;
  const ShardedScheduler pooled(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  Rng rng_c(43);
  const ScheduleResult warm_c =
      test::validated(pooled, problem, rng_c, &cold.assignment);
  EXPECT_EQ(warm_c.assignment, warm_a.assignment);
  EXPECT_EQ(warm_c.system_utility, warm_a.system_utility);
}

// The scheduler is stateless between calls: one that solved other
// problems first (fewer users, and a different server count, hence another
// partition) returns exactly what a fresh instance returns.
TEST(ShardedSchedulerTest, EarlierSolvesDoNotChangeTheResult) {
  const mec::Scenario first = make_scenario(24, 40);
  const mec::Scenario other_grid = make_scenario(26, 60, 19, 3);
  const mec::Scenario second = make_scenario(25, 48);
  const jtora::CompiledProblem problem_a(first);
  const jtora::CompiledProblem problem_c(other_grid);
  const jtora::CompiledProblem problem_b(second);
  ShardedConfig config;
  config.reach_m = 2000.0;
  const ShardedScheduler used(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  const ShardedScheduler fresh(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);

  Rng warmup(3);
  (void)test::solve(used, problem_a, warmup);
  (void)test::solve(used, problem_c, warmup);

  Rng rng_a(55);
  Rng rng_b(55);
  const ScheduleResult after = test::solve(used, problem_b, rng_a);
  const ScheduleResult cold = test::solve(fresh, problem_b, rng_b);
  EXPECT_EQ(after.assignment, cold.assignment);
  EXPECT_EQ(after.system_utility, cold.system_utility);
  EXPECT_EQ(after.evaluations, cold.evaluations);
}

// Single-shard passthrough still applies the budget and the hint: the
// wrapper must match the inner scheme's own budgeted and warm-started
// solves bit for bit.
TEST(ShardedSchedulerTest, SingleShardPassthroughAppliesBudgetAndHint) {
  const mec::Scenario scenario = make_scenario(26);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 1e7;  // one shard
  config.budget.max_iterations = 40;
  const ShardedScheduler sharded(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  const TsajsScheduler inner(small_tsajs());

  Rng rng_a(61);
  Rng rng_b(61);
  const ScheduleResult a = test::solve(sharded, problem, rng_a);
  const ScheduleResult b =
      test::solve(inner, problem, rng_b, nullptr, &config.budget);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.evaluations, b.evaluations);

  const jtora::Assignment hint(scenario);  // all-local
  Rng rng_c(62);
  Rng rng_d(62);
  const ScheduleResult c = test::solve(sharded, problem, rng_c, &hint);
  const ScheduleResult d =
      test::solve(inner, problem, rng_d, &hint, &config.budget);
  EXPECT_EQ(c.assignment, d.assignment);
  EXPECT_EQ(c.evaluations, d.evaluations);
}

// Registry wiring: --shard-threads drives the wrapper, and the inner
// scheme is built with its budget cleared (the wrapper owns the split), so
// a budgeted sharded:tsajs does not double-cap.
TEST(ShardedSchedulerTest, RegistryShardThreadsAreBitwiseInvisible) {
  const mec::Scenario scenario = make_scenario(27, 50);
  const jtora::CompiledProblem problem(scenario);
  RegistryOptions options;
  options.chain_length = 10;
  options.shard_reach_m = 2000.0;
  options.budget.max_iterations = 300;
  const auto sequential = make_scheduler("sharded:tsajs", options);
  options.shard_threads = 4;
  const auto pooled = make_scheduler("sharded:tsajs", options);
  Rng rng_a(71);
  Rng rng_b(71);
  const ScheduleResult a = test::solve(*sequential, problem, rng_a);
  const ScheduleResult b = test::solve(*pooled, problem, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(ShardedSchedulerTest, RegistryBuildsShardedWrappers) {
  const auto scheduler = make_scheduler("sharded:greedy");
  ASSERT_NE(scheduler, nullptr);
  EXPECT_EQ(scheduler->name(), "sharded:greedy");
  const auto tsajs = make_scheduler("sharded:tsajs");
  EXPECT_EQ(tsajs->name(), "sharded:tsajs");
  EXPECT_THROW((void)make_scheduler("sharded:nope"), NotFoundError);
  EXPECT_THROW((void)make_scheduler("sharded:sharded:greedy"),
               InvalidArgumentError);
}

TEST(ShardedSchedulerTest, HedgeFactorValidation) {
  ShardedConfig config;
  config.hedge_factor = 0.5;  // between 0 (off) and 1 is meaningless
  EXPECT_THROW(ShardedScheduler(std::make_unique<GreedyScheduler>(), config),
               InvalidArgumentError);
  config.hedge_factor = -1.0;
  EXPECT_THROW(ShardedScheduler(std::make_unique<GreedyScheduler>(), config),
               InvalidArgumentError);
  config.hedge_factor = 1.0;
  EXPECT_NO_THROW(
      ShardedScheduler(std::make_unique<GreedyScheduler>(), config));
}

// Hedged retries under an iteration budget read only the reported
// evaluation counts (never the clock), so the whole solve — including which
// shards hedge and what the greedy fallback returns — stays a pure function
// of (problem, seed): bit-identical at 1, 2, and 8 threads.
TEST(ShardedSchedulerTest, HedgedRetriesBitIdenticalAt1_2_8Threads) {
  const mec::Scenario scenario = make_scenario(28, 60);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig base;
  base.reach_m = 2000.0;
  // Slices small enough that TSAJS overshoots them by more than the hedge
  // factor (each plateau adds a whole chain), so retries actually fire.
  base.budget.max_iterations = 60;
  base.hedge_factor = 1.0;
  base.threads = 1;
  const ShardedScheduler sequential(
      std::make_unique<TsajsScheduler>(small_tsajs()), base);
  Rng rng_ref(37);
  const ScheduleResult reference =
      test::validated(sequential, problem, rng_ref);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads: " + std::to_string(threads));
    ShardedConfig pooled = base;
    pooled.threads = threads;
    const ShardedScheduler parallel(
        std::make_unique<TsajsScheduler>(small_tsajs()), pooled);
    Rng rng(37);
    const ScheduleResult result = test::validated(parallel, problem, rng);
    EXPECT_EQ(result.assignment, reference.assignment);
    EXPECT_EQ(result.system_utility, reference.system_utility);  // bitwise
    EXPECT_EQ(result.evaluations, reference.evaluations);
  }
  // The hedge really bit: the greedy fallback's evaluations are folded in,
  // so the effort differs from the same configuration with hedging off.
  ShardedConfig unhedged = base;
  unhedged.hedge_factor = 0.0;
  const ShardedScheduler plain(
      std::make_unique<TsajsScheduler>(small_tsajs()), unhedged);
  Rng rng_plain(37);
  const ScheduleResult no_hedge = test::validated(plain, problem, rng_plain);
  EXPECT_NE(no_hedge.evaluations, reference.evaluations);
}

// Wall-clock hedging: a deadline so tight every shard overruns immediately
// must fall back to the RNG-free greedy and still produce a fully valid
// assignment — no throw, no hang.
TEST(ShardedSchedulerTest, WallClockHedgeFallsBackToGreedy) {
  const mec::Scenario scenario = make_scenario(29, 50);
  const jtora::CompiledProblem problem(scenario);
  ShardedConfig config;
  config.reach_m = 2000.0;
  config.budget.max_seconds = 1e-6;
  config.hedge_factor = 1.0;
  const ShardedScheduler scheduler(
      std::make_unique<TsajsScheduler>(small_tsajs()), config);
  Rng rng(41);
  const ScheduleResult result = test::validated(scheduler, problem, rng);
  result.assignment.check_consistency();
}

// Registry wiring: --shard-hedge-factor reaches the wrapper and keeps the
// thread-invariance guarantee.
TEST(ShardedSchedulerTest, RegistryHedgeFactorStaysThreadInvariant) {
  const mec::Scenario scenario = make_scenario(30, 55);
  const jtora::CompiledProblem problem(scenario);
  RegistryOptions options;
  options.chain_length = 10;
  options.shard_reach_m = 2000.0;
  options.budget.max_iterations = 80;
  options.shard_hedge_factor = 1.5;
  const auto sequential = make_scheduler("sharded:tsajs", options);
  options.shard_threads = 4;
  const auto pooled = make_scheduler("sharded:tsajs", options);
  Rng rng_a(73);
  Rng rng_b(73);
  const ScheduleResult a = test::solve(*sequential, problem, rng_a);
  const ScheduleResult b = test::solve(*pooled, problem, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(ShardedSchedulerTest, ConfigValidation) {
  ShardedConfig bad_reach;
  bad_reach.reach_m = -1.0;
  EXPECT_THROW(
      ShardedScheduler(std::make_unique<GreedyScheduler>(), bad_reach),
      InvalidArgumentError);
  EXPECT_THROW(ShardedScheduler(nullptr), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::algo
