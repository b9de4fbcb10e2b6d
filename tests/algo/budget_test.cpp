// Anytime solve budgets: a budgeted TSAJS must stay feasible, never throw,
// and never return less than the all-local degradation floor — and an
// effectively-unlimited budget must leave the search bit-identical.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "common/rng.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_u90(Rng& rng) {
  return mec::ScenarioBuilder()
      .num_users(90)
      .num_servers(9)
      .num_subchannels(3)
      .build(rng);
}

TEST(SolveBudgetTest, DefaultIsUnlimited) {
  const SolveBudget budget;
  EXPECT_TRUE(budget.unlimited());
  budget.validate();
}

TEST(SolveBudgetTest, ValidateRejectsNonFiniteDeadlines) {
  SolveBudget budget;
  budget.max_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(budget.validate(), InvalidArgumentError);
  budget.max_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(budget.validate(), InvalidArgumentError);
  // A negative deadline is legal: it means "already expired" and resolves
  // to the all-local floor at the first safe boundary — never a throw.
  budget.max_seconds = -1.0;
  EXPECT_NO_THROW(budget.validate());
  EXPECT_FALSE(budget.unlimited());
}

TEST(SolveBudgetTest, SchedulerConstructionAcceptsExpiredBudget) {
  TsajsConfig config;
  config.budget.max_seconds = -0.5;
  EXPECT_NO_THROW(TsajsScheduler{config});
  config.budget.max_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(TsajsScheduler{config}, InvalidArgumentError);
}

// Zero in either field means "no limit on that axis", and only both-zero is
// the unlimited budget.
TEST(SolveBudgetTest, ZeroFieldsMeanUnlimitedAxes) {
  SolveBudget budget;
  EXPECT_TRUE(budget.unlimited());
  budget.max_iterations = 10;
  EXPECT_FALSE(budget.unlimited());
  budget.max_iterations = 0;
  budget.max_seconds = 1.0;
  EXPECT_FALSE(budget.unlimited());
}

// An already-expired (negative) deadline must degrade to the all-local
// floor — utility 0, nothing offloaded — without throwing, on both the
// direct TSAJS path and through the registry stack.
TEST(SolveBudgetTest, NegativeDeadlineDegradesToAllLocalFloor) {
  Rng env(42);
  const mec::Scenario scenario = make_u90(env);

  TsajsConfig config;
  config.budget.max_seconds = -1.0;
  const TsajsScheduler scheduler(config);
  Rng solve_rng(7);
  const ScheduleResult result =
      test::validated(scheduler, scenario, solve_rng);
  EXPECT_GE(result.system_utility, 0.0);

  RegistryOptions options;
  options.budget.max_seconds = -1.0;
  const auto stacked = make_scheduler("tsajs", options);
  Rng stack_rng(7);
  const ScheduleResult stacked_result =
      test::validated(*stacked, scenario, stack_rng);
  EXPECT_GE(stacked_result.system_utility, 0.0);
}

// A zero deadline with a zero iteration cap is the unlimited budget — the
// solve must run the full anneal, bit-identical to no budget at all.
TEST(SolveBudgetTest, ZeroDeadlineZeroIterationsIsUnlimited) {
  Rng env(11);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(20).build(env);

  const TsajsScheduler unbudgeted;
  TsajsConfig config;
  config.budget.max_seconds = 0.0;
  config.budget.max_iterations = 0;
  const TsajsScheduler budgeted(config);

  Rng rng_a(3);
  Rng rng_b(3);
  const ScheduleResult a = test::validated(unbudgeted, scenario, rng_a);
  const ScheduleResult b = test::validated(budgeted, scenario, rng_b);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.assignment, b.assignment);
}

// The acceptance scenario in deterministic form: U = 90 with an iteration
// budget so tight the annealer stops at the very first plateau. The solve
// must pass the full run_and_validate audit and must not return less than
// the all-local fallback (utility 0).
TEST(SolveBudgetTest, TinyIterationBudgetAtU90StaysFeasible) {
  Rng env(42);
  const mec::Scenario scenario = make_u90(env);

  TsajsConfig config;
  config.budget.max_iterations = 1;
  const TsajsScheduler scheduler(config);

  // An uncaught throw fails the test, which is exactly the contract.
  Rng solve_rng(7);
  const ScheduleResult result =
      test::validated(scheduler, scenario, solve_rng);
  EXPECT_GE(result.system_utility, 0.0);
  // The budget actually bit: far fewer evaluations than an unbudgeted
  // anneal (which runs thousands of plateaus).
  EXPECT_LE(result.evaluations, scheduler.config().chain_length + 1);
}

// Force the degradation floor: start from a dense random solution, passed as
// the solve's hint (on a congested U = 90 instance it sits at negative
// utility), and allow a single proposal before the budget fires. The solver
// must detect that its best decision is still worse than all-local and
// degrade to the guaranteed fallback instead of returning the bad start.
TEST(SolveBudgetTest, BudgetedSolveDegradesToAllLocalFloor) {
  Rng env(42);
  const mec::Scenario scenario = make_u90(env);

  // Precondition of the fixture: the dense start really is underwater.
  Rng probe(7);
  const jtora::Assignment dense =
      random_feasible_assignment(scenario, probe, 1.0);
  const jtora::CompiledProblem compiled(scenario);
  const jtora::UtilityEvaluator evaluator(compiled);
  ASSERT_LT(evaluator.system_utility(dense), 0.0);

  TsajsConfig config;
  config.chain_length = 1;
  config.budget.max_iterations = 1;
  const TsajsScheduler scheduler(config);

  Rng solve_rng(7);
  const ScheduleResult result =
      test::validated(scheduler, scenario, solve_rng, &dense);
  EXPECT_EQ(result.system_utility, 0.0);
  EXPECT_EQ(result.assignment.num_offloaded(), 0u);
}

// A budget large enough to never fire must leave the anneal bit-identical
// to the unbudgeted solver: same utility, same decision, same effort.
TEST(SolveBudgetTest, HugeBudgetIsBitIdenticalToUnlimited) {
  Rng env(11);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(20).build(env);

  const TsajsScheduler unbudgeted;
  TsajsConfig config;
  config.budget.max_iterations = 1'000'000'000;
  const TsajsScheduler budgeted(config);

  Rng rng_a(3);
  Rng rng_b(3);
  const ScheduleResult a = test::validated(unbudgeted, scenario, rng_a);
  const ScheduleResult b = test::validated(budgeted, scenario, rng_b);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.assignment, b.assignment);
}

// The wall-clock form of the acceptance criterion: a 1 ms deadline at
// U = 90 (via the registry, as benches configure it). Timing-dependent by
// nature, so only the contract is asserted: no throw, feasible, and never
// below the all-local floor.
TEST(SolveBudgetTest, OneMillisecondDeadlineAtU90NeverThrows) {
  Rng env(42);
  const mec::Scenario scenario = make_u90(env);

  RegistryOptions options;
  options.budget.max_seconds = 1e-3;
  const auto scheduler = make_scheduler("tsajs", options);

  Rng solve_rng(5);
  const ScheduleResult result =
      test::validated(*scheduler, scenario, solve_rng);
  EXPECT_GE(result.system_utility, 0.0);
}

// Warm starts honor the budget too: the hint path goes through the same
// plateau checks.
TEST(SolveBudgetTest, WarmStartRespectsIterationBudget) {
  Rng env(13);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(30).build(env);

  TsajsConfig config;
  config.budget.max_iterations = 1;
  const TsajsScheduler scheduler(config);

  const jtora::Assignment hint(scenario);  // all-local hint
  Rng solve_rng(9);
  const ScheduleResult result =
      test::validated(scheduler, scenario, solve_rng, &hint);
  EXPECT_GE(result.system_utility, 0.0);
  EXPECT_LE(result.evaluations, scheduler.config().chain_length + 1);
}

// BudgetAware contract: a request budget equal to the configured one must
// be bit-identical to an unbudgeted request — same RNG stream, same
// decision, same effort. The sharded wrapper relies on this to hand shards
// their slices without rebuilding the inner scheduler.
TEST(SolveBudgetTest, ScheduleWithinEqualsConfiguredBudgetBitwise) {
  Rng env(17);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(25).build(env);
  const jtora::CompiledProblem problem(scenario);

  TsajsConfig config;
  config.budget.max_iterations = 500;
  const TsajsScheduler scheduler(config);

  Rng rng_a(21);
  Rng rng_b(21);
  const ScheduleResult plain = test::solve(scheduler, problem, rng_a);
  const ScheduleResult within =
      test::solve(scheduler, problem, rng_b, nullptr, &config.budget);
  EXPECT_EQ(plain.assignment, within.assignment);
  EXPECT_EQ(plain.system_utility, within.system_utility);
  EXPECT_EQ(plain.evaluations, within.evaluations);
}

// The per-call budget overrides the configured one: an *unbudgeted*
// scheduler handed a one-iteration cap must stop at the first plateau.
TEST(SolveBudgetTest, ScheduleWithinOverridesConfiguredBudget) {
  Rng env(42);
  const mec::Scenario scenario = make_u90(env);
  const jtora::CompiledProblem problem(scenario);

  const TsajsScheduler scheduler;  // unlimited configured budget
  SolveBudget cap;
  cap.max_iterations = 1;
  Rng rng(7);
  const ScheduleResult result =
      test::solve(scheduler, problem, rng, nullptr, &cap);
  EXPECT_GE(result.system_utility, 0.0);
  EXPECT_LE(result.evaluations, scheduler.config().chain_length + 1);
}

}  // namespace
}  // namespace tsajs::algo
