// Warm-start capability: repair_hint feasibility under arbitrary churn,
// determinism of hinted solves, and run_and_validate on a hinted request.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "algo/greedy.h"
#include "algo/hjtora.h"
#include "algo/local_search.h"
#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::size_t users, std::size_t servers,
                            std::size_t subchannels, std::uint64_t seed) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TEST(RepairHintTest, FeasibleUnderArbitraryChurn) {
  // Property: whatever the hint was solved against — more users, fewer
  // users, different server/sub-channel dimensions — the repaired
  // assignment is feasible on the *new* scenario (constraints 12b-12d,
  // enforced by check_consistency) and keeps every hint slot that still
  // exists and is claimed first.
  const std::size_t dims[][3] = {
      {12, 3, 2}, {5, 2, 3}, {20, 4, 1}, {8, 1, 1}, {3, 5, 4}};
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    const auto& old_dim = dims[trial % 5];
    const auto& new_dim = dims[(trial + 1 + trial / 5) % 5];
    const mec::Scenario old_scenario =
        make_scenario(old_dim[0], old_dim[1], old_dim[2], 100 + trial);
    const mec::Scenario new_scenario =
        make_scenario(new_dim[0], new_dim[1], new_dim[2], 200 + trial);
    Rng rng(300 + trial);
    const jtora::Assignment hint =
        random_feasible_assignment(old_scenario, rng, 0.8);

    const jtora::Assignment repaired = repair_hint(new_scenario, hint);
    repaired.check_consistency();
    EXPECT_EQ(repaired.num_users(), new_scenario.num_users());
    // Every kept slot must come from the hint; users beyond the hint's
    // population enter local.
    const std::size_t shared =
        std::min(hint.num_users(), new_scenario.num_users());
    for (std::size_t u = 0; u < new_scenario.num_users(); ++u) {
      const auto slot = repaired.slot_of(u);
      if (u >= shared) {
        EXPECT_FALSE(slot.has_value());
        continue;
      }
      if (slot.has_value()) {
        ASSERT_TRUE(hint.slot_of(u).has_value());
        EXPECT_EQ(slot->server, hint.slot_of(u)->server);
        EXPECT_EQ(slot->subchannel, hint.slot_of(u)->subchannel);
      }
    }
  }
}

TEST(RepairHintTest, IdentityWhenNothingChanged) {
  // Same scenario, feasible hint: the repair is a no-op.
  const mec::Scenario scenario = make_scenario(10, 3, 2, 7);
  Rng rng(8);
  const jtora::Assignment hint = random_feasible_assignment(scenario, rng, 1.0);
  const jtora::Assignment repaired = repair_hint(scenario, hint);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(repaired.slot_of(u).has_value(), hint.slot_of(u).has_value());
  }
  EXPECT_EQ(repaired.num_offloaded(), hint.num_offloaded());
}

TEST(WarmStartTest, ScheduleFromIsDeterministic) {
  const mec::Scenario scenario = make_scenario(12, 3, 2, 11);
  Rng hint_rng(5);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.6);
  TsajsConfig config;
  config.chain_length = 8;
  const TsajsScheduler scheduler(config);
  Rng rng_a(21);
  Rng rng_b(21);
  const ScheduleResult a = test::solve(scheduler, scenario, rng_a, &hint);
  const ScheduleResult b = test::solve(scheduler, scenario, rng_b, &hint);
  EXPECT_DOUBLE_EQ(a.system_utility, b.system_utility);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(a.assignment.slot_of(u), b.assignment.slot_of(u));
  }
}

TEST(WarmStartTest, WarmResultNeverBelowRepairedHint) {
  // TSAJS returns its best-visited state, LocalSearch only climbs, and
  // Greedy's fill/prune steps each require strict improvement — so every
  // kWarmStart scheduler dominates the (repaired) hint it was given.
  const mec::Scenario scenario = make_scenario(14, 3, 2, 31);
  Rng hint_rng(9);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.7);
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  const double hint_utility =
      evaluator.system_utility(repair_hint(scenario, hint));

  TsajsConfig tsajs_config;
  tsajs_config.chain_length = 6;
  const TsajsScheduler tsajs(tsajs_config);
  const LocalSearchScheduler local_search;
  const GreedyScheduler greedy;
  for (const Scheduler* scheduler :
       {static_cast<const Scheduler*>(&tsajs),
        static_cast<const Scheduler*>(&local_search),
        static_cast<const Scheduler*>(&greedy)}) {
    Rng rng(77);
    const ScheduleResult result =
        test::validated(*scheduler, scenario, rng, &hint);
    EXPECT_GE(result.system_utility, hint_utility - 1e-9)
        << scheduler->name();
  }
}

TEST(WarmStartTest, RunAndValidateFallsBackForColdSchedulers) {
  // hJTORA lacks kWarmStart: a hinted request must silently produce
  // exactly the cold-path result.
  const mec::Scenario scenario = make_scenario(10, 3, 2, 13);
  Rng hint_rng(3);
  const jtora::Assignment hint =
      random_feasible_assignment(scenario, hint_rng, 0.5);
  const HjtoraScheduler scheduler;
  Rng rng_hint(55);
  Rng rng_cold(55);
  const ScheduleResult with_hint =
      test::validated(scheduler, scenario, rng_hint, &hint);
  const ScheduleResult cold = test::validated(scheduler, scenario, rng_cold);
  EXPECT_DOUBLE_EQ(with_hint.system_utility, cold.system_utility);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    EXPECT_EQ(with_hint.assignment.slot_of(u), cold.assignment.slot_of(u));
  }
}

}  // namespace
}  // namespace tsajs::algo
