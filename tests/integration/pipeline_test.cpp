// End-to-end parameterized sweeps: every scheme on a grid of network shapes,
// checking the invariants that must hold for ANY (scheme, instance) pair:
//   * the returned decision satisfies constraints (12b)-(12f),
//   * the reported utility matches an independent evaluation,
//   * the CRA allocation exhausts no server and serves every offloader,
//   * the fast and detailed utility paths agree,
//   * on tiny instances nothing beats the exhaustive optimum.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "algo/exhaustive.h"
#include "algo/registry.h"
#include "jtora/incremental.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs {
namespace {

struct Shape {
  std::size_t users;
  std::size_t servers;
  std::size_t subchannels;
  double megacycles;
};

// gtest_discover_tests appends the printed parameter to each instance's
// ctest name, so print the shape readably ("u20_s9_n3_w1000") rather than
// as a dump of its bytes.
void PrintTo(const Shape& shape, std::ostream* os) {
  *os << 'u' << shape.users << "_s" << shape.servers << "_n"
      << shape.subchannels << "_w" << shape.megacycles;
}

using Param = std::tuple<std::string, Shape>;

class SchemeInstanceTest : public ::testing::TestWithParam<Param> {};

mec::Scenario build(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(shape.users)
      .num_servers(shape.servers)
      .num_subchannels(shape.subchannels)
      .task_megacycles(shape.megacycles)
      .build(rng);
}

TEST_P(SchemeInstanceTest, InvariantsHoldOnEverySolve) {
  const auto& [scheme, shape] = GetParam();
  const mec::Scenario scenario = build(shape, 1234);
  const auto scheduler = algo::make_scheduler(scheme);
  Rng rng(99);
  const algo::ScheduleResult result =
      test::validated(*scheduler, scenario, rng);

  // Constraints (12b)-(12d) via the bijection check.
  result.assignment.check_consistency();
  EXPECT_LE(result.assignment.num_offloaded(),
            std::min(scenario.num_users(), scenario.num_slots()));

  // Independent evaluation agrees (run_and_validate already asserts this;
  // assert again explicitly for the detailed path).
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  const jtora::Evaluation eval = evaluator.evaluate(result.assignment);
  EXPECT_NEAR(eval.system_utility, result.system_utility,
              1e-6 * std::max(1.0, std::fabs(result.system_utility)));

  // CRA feasibility: (12e) positive share per offloader, (12f) capacity.
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    double used = 0.0;
    for (const std::size_t u : result.assignment.users_on_server(s)) {
      EXPECT_GT(eval.allocation.cpu_hz[u], 0.0);
      used += eval.allocation.cpu_hz[u];
    }
    EXPECT_LE(used, scenario.server(s).cpu_hz * (1.0 + 1e-9));
  }

  // Local users must carry no allocation.
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (!result.assignment.is_offloaded(u)) {
      EXPECT_EQ(eval.allocation.cpu_hz[u], 0.0);
    }
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto& [scheme, shape] = info.param;
  std::string name = scheme + "_u" + std::to_string(shape.users) + "_s" +
                     std::to_string(shape.servers) + "_n" +
                     std::to_string(shape.subchannels) + "_w" +
                     std::to_string(static_cast<int>(shape.megacycles));
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInstanceTest,
    ::testing::Combine(
        ::testing::Values("tsajs", "tsajs-geo", "hjtora", "local-search",
                          "greedy"),
        ::testing::Values(Shape{4, 2, 1, 1000.0}, Shape{8, 3, 2, 2000.0},
                          Shape{20, 9, 3, 1000.0},
                          Shape{40, 9, 3, 3000.0})),
    param_name);

// --- tiny-instance optimality sweep ----------------------------------------

class OptimalityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimalityTest, NoSchemeBeatsExhaustive) {
  const std::uint64_t seed = GetParam();
  const mec::Scenario scenario = build(Shape{5, 3, 2, 2000.0}, seed);
  Rng rng_exh(seed);
  const double optimum =
      test::solve(algo::ExhaustiveScheduler(), scenario, rng_exh)
          .system_utility;
  for (const char* scheme : {"tsajs", "hjtora", "local-search", "greedy"}) {
    Rng rng(seed + 17);
    const double utility =
        test::solve(*algo::make_scheduler(scheme), scenario, rng)
            .system_utility;
    EXPECT_LE(utility,
              optimum + 1e-9 * std::max(1.0, std::fabs(optimum)))
        << scheme;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalityTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --- evaluator identity sweep ----------------------------------------------

class EvaluatorIdentityTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(EvaluatorIdentityTest, FastDetailedAndIncrementalAgree) {
  const auto& [beta_time, seed] = GetParam();
  Rng srng(seed);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(12)
                                     .num_servers(4)
                                     .num_subchannels(3)
                                     .beta_time(beta_time)
                                     .build(srng);
  Rng rng(seed * 3 + 1);
  const jtora::Assignment x =
      algo::random_feasible_assignment(scenario, rng, 0.6);
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  const double fast = evaluator.system_utility(x);
  const double detailed = evaluator.evaluate(x).system_utility;
  const jtora::IncrementalEvaluator incremental(problem, x);
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(fast));
  EXPECT_NEAR(fast, detailed, tolerance);
  EXPECT_NEAR(fast, incremental.utility(), tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    BetaSweep, EvaluatorIdentityTest,
    ::testing::Combine(::testing::Values(0.05, 0.25, 0.5, 0.75, 0.95),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace tsajs
