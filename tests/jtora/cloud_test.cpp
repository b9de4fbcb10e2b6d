// Three-tier placement: assignment forwarding bits, the compiled cloud
// tables, the CRA cloud pool, and the utility decomposition with forwarded
// users.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/cra.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/cloud.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

mec::Scenario make_cloud_scenario(std::uint64_t seed = 13,
                                  std::size_t users = 8,
                                  std::size_t servers = 3,
                                  std::size_t subchannels = 3,
                                  std::size_t max_forwarded = 0) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .cloud(/*cpu_hz=*/60e9, /*backhaul_bps=*/150e6,
             /*backhaul_latency_s=*/0.01, max_forwarded)
      .build(rng);
}

TEST(CloudAssignmentTest, ForwardingBitLifecycle) {
  const mec::Scenario scenario = make_cloud_scenario();
  Assignment x(scenario);
  EXPECT_TRUE(x.cloud_enabled());
  EXPECT_EQ(x.num_forwarded(), 0u);
  EXPECT_FALSE(x.can_forward(0));  // local users cannot forward

  x.offload(0, 1, 0);
  EXPECT_TRUE(x.can_forward(0));
  x.set_forwarded(0, true);
  EXPECT_TRUE(x.is_forwarded(0));
  EXPECT_EQ(x.num_forwarded(), 1u);
  EXPECT_EQ(x.forwarded_users(), std::vector<std::size_t>{0});
  x.check_consistency();

  // Slot moves recall: the new server may have a different backhaul.
  x.offload(0, 2, 1);
  EXPECT_FALSE(x.is_forwarded(0));
  EXPECT_EQ(x.num_forwarded(), 0u);

  x.set_forwarded(0, true);
  x.make_local(0);
  EXPECT_FALSE(x.is_forwarded(0));
  EXPECT_EQ(x.num_forwarded(), 0u);
  x.check_consistency();
}

TEST(CloudAssignmentTest, SwapRecallsBothUsers) {
  const mec::Scenario scenario = make_cloud_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 1, 1);
  x.set_forwarded(0, true);
  x.set_forwarded(1, true);
  x.swap(0, 1);
  EXPECT_FALSE(x.is_forwarded(0));
  EXPECT_FALSE(x.is_forwarded(1));
  EXPECT_EQ(x.num_forwarded(), 0u);
  x.check_consistency();
}

TEST(CloudAssignmentTest, AdmissionCapIsEnforced) {
  const mec::Scenario scenario =
      make_cloud_scenario(17, 8, 3, 3, /*max_forwarded=*/1);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 1, 0);
  x.set_forwarded(0, true);
  EXPECT_TRUE(x.can_forward(0));  // already in: may stay
  EXPECT_FALSE(x.can_forward(1));
  EXPECT_THROW(x.set_forwarded(1, true), InvalidArgumentError);
  x.set_forwarded(0, false);
  EXPECT_TRUE(x.can_forward(1));
  x.set_forwarded(1, true);
  EXPECT_EQ(x.num_forwarded(), 1u);
}

TEST(CloudAssignmentTest, DeadBackhaulForbidsForwarding) {
  const mec::Scenario base = make_cloud_scenario();
  mec::Availability mask(base.num_servers(), base.num_subchannels());
  mask.fail_backhaul(1);
  const mec::Scenario scenario = base.with_availability(mask);
  Assignment x(scenario);
  x.offload(0, 1, 0);  // the slot itself is fine
  EXPECT_FALSE(x.can_forward(0));
  EXPECT_THROW(x.set_forwarded(0, true), InvalidArgumentError);
  x.offload(1, 0, 0);
  EXPECT_TRUE(x.can_forward(1));  // other backhauls unaffected
}

TEST(CloudAssignmentTest, TwoTierAssignmentsCarryNoForwardState) {
  Rng rng(23);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(4).build(rng);
  Assignment x(scenario);
  EXPECT_FALSE(x.cloud_enabled());
  x.offload(0, 0, 0);
  EXPECT_FALSE(x.is_forwarded(0));
  EXPECT_FALSE(x.can_forward(0));
  EXPECT_THROW(x.set_forwarded(0, true), InvalidArgumentError);
}

TEST(CloudCompiledProblemTest, ForwardTimeTableMatchesDefinition) {
  const mec::Scenario scenario = make_cloud_scenario();
  const CompiledProblem problem(scenario);
  ASSERT_TRUE(scenario.has_cloud());
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    // t_fwd(u) = d_u / r_backhaul + tau, bit for bit.
    const double expected = scenario.user(u).task.input_bits / 150e6 + 0.01;
    EXPECT_EQ(problem.forward_time_s(u), expected) << "user " << u;
  }
}

TEST(CloudCompiledProblemTest, BitwiseEqualSeesTheTier) {
  Rng rng_a(31);
  Rng rng_b(31);
  const mec::Scenario plain =
      mec::ScenarioBuilder().num_users(5).build(rng_a);
  const mec::Scenario cloudy = mec::ScenarioBuilder()
                                   .num_users(5)
                                   .cloud(60e9, 150e6, 0.01)
                                   .build(rng_b);
  const CompiledProblem a(plain);
  const CompiledProblem b(cloudy);
  const CompiledProblem c(cloudy);
  EXPECT_FALSE(a.bitwise_equal(b));
  EXPECT_TRUE(b.bitwise_equal(c));
}

TEST(CloudCompiledProblemTest, InPlaceRecompilePreservesCloudTables) {
  const mec::Scenario scenario = make_cloud_scenario();
  CompiledProblem fresh(scenario);
  CompiledProblem recycled(scenario);
  recycled.compile(scenario);  // in-place second compile
  EXPECT_TRUE(fresh.bitwise_equal(recycled));
  EXPECT_EQ(recycled.forward_time_s(0),
            scenario.user(0).task.input_bits / 150e6 + 0.01);
}

TEST(CloudCraTest, SoleForwardedUserGetsFullCloudPool) {
  const mec::Scenario scenario = make_cloud_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.set_forwarded(0, true);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  // User 0 computes in the cloud pool (alone there); user 1 keeps the
  // whole edge server for itself.
  EXPECT_DOUBLE_EQ(result.cpu_hz[0], 60e9);
  EXPECT_DOUBLE_EQ(result.cpu_hz[1], scenario.server(0).cpu_hz);
}

TEST(CloudCraTest, CloudPoolSplitsLikeAVirtualServer) {
  const mec::Scenario scenario = make_cloud_scenario();
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 1, 0);
  x.offload(2, 2, 0);
  x.set_forwarded(0, true);
  x.set_forwarded(1, true);
  x.set_forwarded(2, true);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const CraResult result = solver.solve(x);
  // Homogeneous users (equal eta): the cloud splits evenly, per Eq. 22.
  EXPECT_NEAR(result.cpu_hz[0], 20e9, 1e-3);
  EXPECT_NEAR(result.cpu_hz[1], 20e9, 1e-3);
  EXPECT_NEAR(result.cpu_hz[2], 20e9, 1e-3);
  EXPECT_DOUBLE_EQ(solver.optimal_objective(x),
                   solver.objective_of(x, result.cpu_hz));
}

TEST(CloudCraTest, NumericSolverConfirmsClosedFormWithForwarding) {
  const mec::Scenario scenario = make_cloud_scenario(41);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.offload(2, 1, 0);
  x.set_forwarded(1, true);
  x.set_forwarded(2, true);
  const CompiledProblem problem(scenario);
  const CraSolver solver(problem);
  const double closed = solver.optimal_objective(x);
  const CraResult numeric = solver.solve_numeric(x);
  EXPECT_NEAR(numeric.objective, closed, 1e-6 * closed);
}

TEST(CloudUtilityTest, ScalarAndPerUserDecompositionsAgree) {
  // The J*(X) == sum_u lambda_u * J_u identity must survive forwarding:
  // the forward cost enters gamma via time_cost_scale * t_fwd and the
  // forwarded user's delay via extra_delay_s.
  const mec::Scenario scenario = make_cloud_scenario(43);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  Assignment x(scenario);
  x.offload(0, 0, 0);
  x.offload(1, 0, 1);
  x.offload(2, 1, 0);
  x.offload(3, 2, 2);
  x.set_forwarded(0, true);
  x.set_forwarded(3, true);

  const double scalar = evaluator.system_utility(x);
  const Evaluation eval = evaluator.evaluate(x);
  EXPECT_NEAR(eval.system_utility, scalar, 1e-9 * std::abs(scalar) + 1e-12);

  double summed = 0.0;
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    summed += scenario.user(u).lambda * eval.users[u].utility;
  }
  EXPECT_NEAR(summed, scalar, 1e-9 * std::abs(scalar) + 1e-12);
}

TEST(CloudUtilityTest, ForwardedOutcomeCarriesTheBackhaulDelay) {
  const mec::Scenario scenario = make_cloud_scenario(47);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  Assignment x(scenario);
  x.offload(0, 1, 0);
  x.set_forwarded(0, true);
  const Evaluation eval = evaluator.evaluate(x);
  EXPECT_TRUE(eval.users[0].forwarded);
  EXPECT_DOUBLE_EQ(eval.users[0].forward_s, problem.forward_time_s(0));
  EXPECT_GT(eval.users[0].forward_s, 0.0);
  // The forwarded delay is serial: upload + forward + cloud execute.
  EXPECT_GE(eval.users[0].total_delay_s, eval.users[0].forward_s);

  // Same slot without forwarding: no backhaul term, edge execution.
  x.set_forwarded(0, false);
  const Evaluation edge = evaluator.evaluate(x);
  EXPECT_FALSE(edge.users[0].forwarded);
  EXPECT_DOUBLE_EQ(edge.users[0].forward_s, 0.0);
}

TEST(CloudUtilityTest, ForwardingRelievesAnOverloadedEdge) {
  // A tiny edge CPU with many co-located users: moving compute to a big
  // cloud pool must raise J*(X) despite the backhaul cost.
  Rng rng(53);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(6)
                                     .num_servers(2)
                                     .num_subchannels(3)
                                     .server_cpu_hz(2e9)
                                     .cloud(100e9, 200e6, 0.005)
                                     .build(rng);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  Assignment x(scenario);
  for (std::size_t u = 0; u < 6; ++u) x.offload(u, u / 3, u % 3);
  const double edge_only = evaluator.system_utility(x);
  for (std::size_t u = 0; u < 6; ++u) x.set_forwarded(u, true);
  const double all_forwarded = evaluator.system_utility(x);
  EXPECT_GT(all_forwarded, edge_only);
}

}  // namespace
}  // namespace tsajs::jtora
