#include "jtora/compiled_problem.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "jtora/assignment.h"
#include "jtora/cra.h"
#include "jtora/incremental.h"
#include "jtora/rate.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "mec/scenario_workspace.h"
#include "support/solve.h"

namespace tsajs::jtora {
namespace {

mec::Scenario plain_scenario(std::uint64_t seed, std::size_t users = 12,
                             std::size_t servers = 4,
                             std::size_t subchannels = 2) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

// ---------------------------------------------------------------------------
// Golden hexfloat pins. The values below were captured on the pre-
// CompiledProblem implementation (evaluators deriving their own constants
// straight from the Scenario); the refactored stack must reproduce every one
// of them bit for bit.
// ---------------------------------------------------------------------------

TEST(CompiledProblemGoldenTest, PlainScenarioBitIdenticalToPreRefactor) {
  const mec::Scenario scenario = plain_scenario(2026);
  Rng rng(99);
  const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.6);

  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  EXPECT_EQ(evaluator.system_utility(x), -0x1.202b72b69852ep+10);

  const Evaluation eval = evaluator.evaluate(x);
  EXPECT_EQ(eval.system_utility, -0x1.202b72b69852ep+10);
  EXPECT_EQ(eval.gamma_cost, 0x1.2211d91cfeb94p+10);
  EXPECT_EQ(eval.lambda_cost, 0x1.999999999999ap-2);

  EXPECT_EQ(eval.users[0].total_delay_s, 0x1.f4a63f700470ep+9);
  EXPECT_EQ(eval.users[0].energy_j, 0x1.406234e356cf7p+3);
  EXPECT_EQ(eval.users[0].utility, -0x1.f4a68e00ba4ffp+8);
  EXPECT_EQ(eval.users[1].total_delay_s, 0x1p+0);
  EXPECT_EQ(eval.users[1].energy_j, 0x1.4p+2);
  EXPECT_EQ(eval.users[1].utility, 0x0p+0);
  EXPECT_EQ(eval.users[2].total_delay_s, 0x1p+0);
  EXPECT_EQ(eval.users[2].energy_j, 0x1.4p+2);
  EXPECT_EQ(eval.users[2].utility, 0x0p+0);
  EXPECT_EQ(eval.users[3].total_delay_s, 0x1.5734e8299ee73p+7);
  EXPECT_EQ(eval.users[3].energy_j, 0x1.b70c6cc089dc3p+0);
  EXPECT_EQ(eval.users[3].utility, -0x1.53e486bb8584cp+6);
}

TEST(CompiledProblemGoldenTest, TsajsSolveBitIdenticalToPreRefactor) {
  // Pins the whole solve: the scheduler's RNG stream, the incremental
  // evaluator's running sums, and the returned utility. Any perturbation of
  // the compiled constants or the proposal evaluation order changes these.
  Rng build_rng(31);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(10)
                                     .num_servers(3)
                                     .num_subchannels(2)
                                     .build(build_rng);
  algo::TsajsConfig config;
  config.chain_length = 8;
  {
    const algo::TsajsScheduler scheduler(config);
    Rng rng(5);
    const algo::ScheduleResult result = test::solve(scheduler, scenario, rng);
    EXPECT_EQ(result.system_utility, 0x1.a358984a1ce73p+1);
    EXPECT_EQ(result.evaluations, 5209u);
    EXPECT_EQ(result.assignment.num_offloaded(), 4u);
  }
  {
    algo::TsajsConfig naive = config;
    naive.use_incremental_evaluator = false;
    Rng rng(5);
    const algo::ScheduleResult result =
        test::solve(algo::TsajsScheduler(naive), scenario, rng);
    EXPECT_EQ(result.system_utility, 0x1.a358984a1ce58p+1);
    EXPECT_EQ(result.evaluations, 5209u);
  }
}

// ---------------------------------------------------------------------------
// Property: every evaluator bound to one shared CompiledProblem is bit-
// identical to the same evaluator bound to a second, independent
// compilation of the scenario.
// ---------------------------------------------------------------------------

void expect_shared_matches_fresh(const mec::Scenario& scenario,
                                 const Assignment& x) {
  const CompiledProblem problem(scenario);
  const CompiledProblem fresh(scenario);

  const UtilityEvaluator shared_utility(problem);
  const UtilityEvaluator fresh_utility(fresh);
  EXPECT_EQ(shared_utility.system_utility(x), fresh_utility.system_utility(x));
  const Evaluation shared_eval = shared_utility.evaluate(x);
  const Evaluation fresh_eval = fresh_utility.evaluate(x);
  EXPECT_EQ(shared_eval.system_utility, fresh_eval.system_utility);
  EXPECT_EQ(shared_eval.gain_term, fresh_eval.gain_term);
  EXPECT_EQ(shared_eval.gamma_cost, fresh_eval.gamma_cost);
  EXPECT_EQ(shared_eval.lambda_cost, fresh_eval.lambda_cost);
  ASSERT_EQ(shared_eval.users.size(), fresh_eval.users.size());
  for (std::size_t u = 0; u < shared_eval.users.size(); ++u) {
    EXPECT_EQ(shared_eval.users[u].total_delay_s,
              fresh_eval.users[u].total_delay_s);
    EXPECT_EQ(shared_eval.users[u].energy_j, fresh_eval.users[u].energy_j);
    EXPECT_EQ(shared_eval.users[u].utility, fresh_eval.users[u].utility);
  }

  const RateEvaluator shared_rate(problem);
  const RateEvaluator fresh_rate(fresh);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (!x.slot_of(u).has_value()) continue;
    const LinkMetrics a = shared_rate.link(x, u);
    const LinkMetrics b = fresh_rate.link(x, u);
    EXPECT_EQ(a.sinr, b.sinr);
    EXPECT_EQ(a.rate_bps, b.rate_bps);
    EXPECT_EQ(a.upload_s, b.upload_s);
    EXPECT_EQ(a.tx_energy_j, b.tx_energy_j);
  }

  const CraSolver shared_cra(problem);
  const CraSolver fresh_cra(fresh);
  const CraResult a = shared_cra.solve(x);
  const CraResult b = fresh_cra.solve(x);
  EXPECT_EQ(a.objective, b.objective);
  ASSERT_EQ(a.cpu_hz.size(), b.cpu_hz.size());
  for (std::size_t u = 0; u < a.cpu_hz.size(); ++u) {
    EXPECT_EQ(a.cpu_hz[u], b.cpu_hz[u]);
  }

  const IncrementalEvaluator shared_inc(problem, x);
  const IncrementalEvaluator fresh_inc(fresh, x);
  EXPECT_EQ(shared_inc.utility(), fresh_inc.utility());
}

TEST(CompiledProblemTest, SharedEvaluatorsMatchFreshOnesBitwise) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const mec::Scenario scenario = plain_scenario(seed, 9, 3, 2);
    Rng rng(seed + 1000);
    const Assignment x = algo::random_feasible_assignment(scenario, rng, 0.7);
    expect_shared_matches_fresh(scenario, x);
  }
}

TEST(CompiledProblemTest, SharedEvaluatorsMatchFreshOnesOnEmptyAssignment) {
  const mec::Scenario scenario = plain_scenario(7, 6, 3, 2);
  const Assignment x(scenario);  // all-local
  expect_shared_matches_fresh(scenario, x);
  const CompiledProblem problem(scenario);
  const UtilityEvaluator evaluator(problem);
  EXPECT_EQ(evaluator.system_utility(x), 0.0);
}

// ---------------------------------------------------------------------------
// The flat (user, server) table against the scenario, on every sub-channel.
// ---------------------------------------------------------------------------

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(CompiledProblemTest, FlatTablesMatchTheScenarioOnEverySubchannel) {
  // Random drops with a fault mask and a cloud tier each drawn on or off.
  // One table entry serves the whole link: it must equal the scenario's
  // p_u * h_us^j for every j.
  Rng rng(2031);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t servers = 2 + rng.uniform_index(7);
    const std::size_t subchannels = 1 + rng.uniform_index(4);
    mec::ScenarioBuilder spec;
    spec.num_users(4 + rng.uniform_index(21))
        .num_servers(servers)
        .num_subchannels(subchannels);
    if (rng.bernoulli(0.5)) {
      spec.cloud(/*cpu_hz=*/80e9, /*backhaul_bps=*/120e6,
                 /*backhaul_latency_s=*/0.015, /*max_forwarded=*/0);
    }
    mec::Scenario scenario = spec.build(rng);
    if (rng.bernoulli(0.5)) {
      mec::Availability mask(servers, subchannels);
      mask.block_slot(rng.uniform_index(servers),
                      rng.uniform_index(subchannels));
      mask.fail_server(rng.uniform_index(servers));
      scenario = scenario.with_availability(mask);
    }
    const CompiledProblem problem(scenario);
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      for (std::size_t s = 0; s < servers; ++s) {
        for (std::size_t j = 0; j < subchannels; ++j) {
          EXPECT_EQ(bits(problem.signal(u, s)),
                    bits(scenario.user(u).tx_power_w * scenario.gain(u, s, j)))
              << "trial " << trial << " link " << u << "," << s << " j " << j;
        }
        EXPECT_EQ(problem.signal_row(u)[s], problem.signal(u, s));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recompilation in place (the buffers of an earlier compile are reused).
// ---------------------------------------------------------------------------

TEST(CompiledProblemTest, RecompileIsIdenticalToFreshCompile) {
  // Same builder settings, different drops: user parameters are identical,
  // placement and shadowing (the gain tensor) differ.
  const mec::Scenario first = plain_scenario(21, 8, 3, 2);
  const mec::Scenario second = plain_scenario(22, 8, 3, 2);

  CompiledProblem reused(first);
  reused.compile(second);  // same user parameters, new gains
  const CompiledProblem fresh(second);
  EXPECT_TRUE(reused.bitwise_equal(fresh));

  Rng rng(5);
  const Assignment x = algo::random_feasible_assignment(second, rng, 0.7);
  EXPECT_EQ(UtilityEvaluator(reused).system_utility(x),
            UtilityEvaluator(fresh).system_utility(x));
}

TEST(CompiledProblemTest, RecompileTracksChangedUserParameters) {
  // Same dims, different task loads: recompiling in place must give the
  // constants a fresh compile of the new scenario gives.
  const mec::Scenario base = plain_scenario(41, 8, 3, 2);
  Rng rng(41);  // same drop as `base` (same placement + shadowing)
  const mec::Scenario heavier =
      mec::ScenarioBuilder()
          .num_users(8)
          .num_servers(3)
          .num_subchannels(2)
          .customize_users([](std::size_t, mec::UserEquipment& ue) {
            ue.task = mec::Task(ue.task.input_bits, 2.0 * ue.task.cycles);
          })
          .build(rng);

  CompiledProblem reused(base);
  reused.compile(heavier);
  const CompiledProblem fresh(heavier);
  EXPECT_TRUE(reused.bitwise_equal(fresh));
}

TEST(CompiledProblemTest, SelfCheckDetectsStaleConstants) {
  // A problem compiled from a ScenarioWorkspace's commit stays bound to the
  // workspace's scenario. Restaging the workspace with heavier tasks and
  // committing again, without a matching compile(), leaves the per-user
  // constants stale. The incremental evaluator's self_check must catch that
  // by recompiling from the bound scenario and comparing bitwise.
  const mec::Scenario base = plain_scenario(61, 8, 3, 2);
  mec::ScenarioWorkspace ws(base.servers(), base.spectrum(), base.noise_w());
  const auto stage = [&](double cycle_scale) -> const mec::Scenario& {
    ws.begin_epoch();
    for (std::size_t u = 0; u < base.num_users(); ++u) {
      mec::UserEquipment ue = base.user(u);
      ue.task = mec::Task(ue.task.input_bits, cycle_scale * ue.task.cycles);
      ws.users().push_back(ue);
    }
    ws.gains() = base.gains();
    return ws.commit();
  };

  CompiledProblem problem(stage(1.0));
  const Assignment x(base);
  EXPECT_NO_THROW(IncrementalEvaluator(problem, x).self_check());

  const mec::Scenario& restaged = stage(3.0);  // misuse: no compile()
  EXPECT_THROW(IncrementalEvaluator(problem, x).self_check(), Error);

  // Recompiling against the restaged scenario passes the same check.
  problem.compile(restaged);
  EXPECT_NO_THROW(IncrementalEvaluator(problem, x).self_check());
}

}  // namespace
}  // namespace tsajs::jtora
