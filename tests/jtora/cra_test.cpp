#include "jtora/cra.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/scheduler.h"
#include "common/error.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_scenario(std::size_t users, std::size_t servers,
                            std::size_t subchannels, std::uint64_t seed = 42,
                            double beta_time = 0.5) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .beta_time(beta_time)
      .build(rng);
}

TEST(CraTest, EtaMatchesDefinition) {
  Rng rng(1);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(1).beta_time(0.7).build(rng);
  // eta_u = lambda * beta_time * f_local = 1 * 0.7 * 1e9.
  EXPECT_DOUBLE_EQ(eta(scenario.user(0)), 0.7e9);
}

TEST(CraTest, SingleUserGetsFullCapacity) {
  const mec::Scenario scenario = make_scenario(3, 2, 2);
  Assignment x(scenario);
  x.offload(1, 0, 0);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  EXPECT_DOUBLE_EQ(result.cpu_hz[1], scenario.server(0).cpu_hz);
  EXPECT_EQ(result.cpu_hz[0], 0.0);
  EXPECT_EQ(result.cpu_hz[2], 0.0);
}

TEST(CraTest, HomogeneousUsersSplitEqually) {
  const mec::Scenario scenario = make_scenario(4, 2, 3);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.offload(2, 0, 2);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  const double third = scenario.server(0).cpu_hz / 3.0;
  EXPECT_NEAR(result.cpu_hz[0], third, 1e-3);
  EXPECT_NEAR(result.cpu_hz[1], third, 1e-3);
  EXPECT_NEAR(result.cpu_hz[2], third, 1e-3);
}

TEST(CraTest, AllocationProportionalToSqrtEta) {
  // Heterogeneous etas via per-user beta_time overrides.
  Rng rng(3);
  const mec::Scenario scenario =
      mec::ScenarioBuilder()
          .num_users(2)
          .num_servers(1)
          .num_subchannels(2)
          .customize_users([](std::size_t u, mec::UserEquipment& ue) {
            ue.beta_time = (u == 0) ? 0.9 : 0.1;
            ue.beta_energy = 1.0 - ue.beta_time;
          })
          .build(rng);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  // Eq. 22: ratio = sqrt(eta_0 / eta_1) = sqrt(0.9 / 0.1) = 3.
  EXPECT_NEAR(result.cpu_hz[0] / result.cpu_hz[1], 3.0, 1e-9);
  EXPECT_NEAR(result.cpu_hz[0] + result.cpu_hz[1],
              scenario.server(0).cpu_hz, 1e-3);
}

TEST(CraTest, CapacityConstraintTightAtOptimum) {
  // Eq. 20b holds with equality per non-empty server (cost is decreasing
  // in every f_us).
  const mec::Scenario scenario = make_scenario(9, 3, 3, 5);
  Rng rng(6);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.9);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    double sum = 0.0;
    for (const std::size_t u : x.users_on_server(s)) sum += result.cpu_hz[u];
    if (!x.users_on_server(s).empty()) {
      EXPECT_NEAR(sum, scenario.server(s).cpu_hz,
                  1e-9 * scenario.server(s).cpu_hz);
    }
  }
}

TEST(CraTest, ClosedFormObjectiveMatchesEq23) {
  const mec::Scenario scenario = make_scenario(6, 2, 3, 7);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(2, 0, 1);
  x.offload(4, 1, 0);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  // Eq. 23 evaluated by hand.
  const double s0 = std::sqrt(eta(scenario.user(0))) +
                    std::sqrt(eta(scenario.user(2)));
  const double s1 = std::sqrt(eta(scenario.user(4)));
  const double expected = s0 * s0 / scenario.server(0).cpu_hz +
                          s1 * s1 / scenario.server(1).cpu_hz;
  EXPECT_NEAR(result.objective, expected, expected * 1e-12);
  EXPECT_NEAR(solver.optimal_objective(x), expected, expected * 1e-12);
}

TEST(CraTest, ObjectiveOfAgreesWithClosedFormAllocation) {
  const mec::Scenario scenario = make_scenario(8, 3, 3, 9);
  Rng rng(10);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.8);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  EXPECT_NEAR(solver.objective_of(x, result.cpu_hz), result.objective,
              result.objective * 1e-12);
}

TEST(CraTest, EmptyAssignmentHasZeroObjective) {
  const mec::Scenario scenario = make_scenario(3, 2, 2);
  const Assignment x(scenario);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  EXPECT_EQ(solver.solve(x).objective, 0.0);
  EXPECT_EQ(solver.optimal_objective(x), 0.0);
}

// --- Property tests: the KKT closed form really is the optimum. -----------

TEST(CraProperty, ClosedFormMatchesNumericSolver) {
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    const mec::Scenario scenario = make_scenario(12, 3, 4, seed);
    Rng rng(seed * 7 + 1);
    const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.8);
    if (x.num_offloaded() == 0) continue;
    const CompiledProblem problem(scenario);
    const CraSolver solver(problem);
    const CraResult closed = solver.solve(x);
    const CraResult numeric = solver.solve_numeric(x);
    EXPECT_NEAR(numeric.objective, closed.objective,
                closed.objective * 1e-4)
        << "seed " << seed;
    // The numeric solver can only match, never beat, the KKT optimum.
    EXPECT_GE(numeric.objective, closed.objective * (1.0 - 1e-9));
  }
}

TEST(CraProperty, RandomFeasiblePerturbationsNeverBeatClosedForm) {
  const mec::Scenario scenario = make_scenario(10, 3, 4, 77);
  Rng rng(78);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.9);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult closed = solver.solve(x);
  for (int trial = 0; trial < 500; ++trial) {
    // Random positive split of each server's capacity among its users.
    std::vector<double> alloc(scenario.num_users(), 0.0);
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      const auto users = x.users_on_server(s);
      if (users.empty()) continue;
      std::vector<double> weights(users.size());
      double total = 0.0;
      for (auto& w : weights) {
        w = rng.uniform(0.01, 1.0);
        total += w;
      }
      for (std::size_t i = 0; i < users.size(); ++i) {
        alloc[users[i]] = scenario.server(s).cpu_hz * weights[i] / total;
      }
    }
    const double value = solver.objective_of(x, alloc);
    EXPECT_GE(value, closed.objective * (1.0 - 1e-12));
  }
}

TEST(CraTest, AllZeroEtaServerSplitsEqually) {
  // beta_time = 0 for everyone => eta_u = 0 => the split is arbitrary; the
  // solver must still hand out positive, capacity-respecting shares.
  Rng rng(101);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(3)
                                     .num_servers(1)
                                     .num_subchannels(3)
                                     .beta_time(0.0)
                                     .build(rng);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.offload(2, 0, 2);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  const double third = scenario.server(0).cpu_hz / 3.0;
  for (const std::size_t u : {0u, 1u, 2u}) {
    EXPECT_NEAR(result.cpu_hz[u], third, 1e-6);
  }
  EXPECT_EQ(result.objective, 0.0);
}

TEST(CraTest, MixedZeroEtaUserGetsEpsilonShare) {
  Rng rng(102);
  const mec::Scenario scenario =
      mec::ScenarioBuilder()
          .num_users(2)
          .num_servers(1)
          .num_subchannels(2)
          .customize_users([](std::size_t u, mec::UserEquipment& ue) {
            ue.beta_time = (u == 0) ? 0.0 : 0.5;
            ue.beta_energy = 1.0 - ue.beta_time;
          })
          .build(rng);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  // The pure-energy user holds a tiny positive share; the other takes
  // essentially the whole server.
  EXPECT_GT(result.cpu_hz[0], 0.0);
  EXPECT_LT(result.cpu_hz[0], 1e-6 * scenario.server(0).cpu_hz);
  EXPECT_NEAR(result.cpu_hz[1], scenario.server(0).cpu_hz,
              1e-6 * scenario.server(0).cpu_hz);
  EXPECT_LE(result.cpu_hz[0] + result.cpu_hz[1],
            scenario.server(0).cpu_hz * (1.0 + 1e-12));
}

TEST(CraTest, ObjectiveOfRejectsZeroAllocationForOffloader) {
  const mec::Scenario scenario = make_scenario(3, 2, 2);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  std::vector<double> alloc(scenario.num_users(), 0.0);
  EXPECT_THROW((void)solver.objective_of(x, alloc), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::jtora
