#include "algo/scheduler.h"

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "common/error.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::size_t users = 8, std::size_t servers = 3,
                            std::size_t subchannels = 2,
                            std::uint64_t seed = 42) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(servers)
      .num_subchannels(subchannels)
      .build(rng);
}

TEST(RandomFeasibleAssignmentTest, RespectsProbabilityExtremes) {
  const mec::Scenario scenario = make_scenario(6, 3, 3);
  Rng rng(1);
  const jtora::Assignment none =
      random_feasible_assignment(scenario, rng, 0.0);
  EXPECT_EQ(none.num_offloaded(), 0u);
  const jtora::Assignment all = random_feasible_assignment(scenario, rng, 1.0);
  // 6 users, 9 slots: everyone fits.
  EXPECT_EQ(all.num_offloaded(), 6u);
}

TEST(RandomFeasibleAssignmentTest, NeverExceedsSlotCapacity) {
  const mec::Scenario scenario = make_scenario(20, 2, 2, 7);
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const jtora::Assignment x =
        random_feasible_assignment(scenario, rng, 1.0);
    EXPECT_LE(x.num_offloaded(), scenario.num_slots());
    x.check_consistency();
  }
}

TEST(RandomFeasibleAssignmentTest, RejectsBadProbability) {
  const mec::Scenario scenario = make_scenario();
  Rng rng(3);
  EXPECT_THROW((void)random_feasible_assignment(scenario, rng, -0.1),
               InvalidArgumentError);
  EXPECT_THROW((void)random_feasible_assignment(scenario, rng, 1.1),
               InvalidArgumentError);
}

TEST(RunAndValidateTest, FillsSolveSecondsAndChecksUtility) {
  const mec::Scenario scenario = make_scenario();
  const auto scheduler = make_scheduler("greedy");
  Rng rng(4);
  const ScheduleResult result =
      test::validated(*scheduler, scenario, rng);
  EXPECT_GE(result.solve_seconds, 0.0);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(RegistryTest, AllNamesConstructible) {
  for (const auto& name : scheduler_names()) {
    const auto scheduler = make_scheduler(name);
    ASSERT_NE(scheduler, nullptr);
    EXPECT_EQ(scheduler->name(), name);
  }
}

TEST(RegistryTest, UnknownNameThrows) {
  // The last five are unreported schemes the registry no longer carries.
  for (const char* name :
       {"nope", "genetic", "pso", "tabu", "random", "tsajs-x4"}) {
    EXPECT_THROW((void)make_scheduler(name), NotFoundError) << name;
  }
}

TEST(RegistryTest, ParseSchemeListDefault) {
  const auto schemes = parse_scheme_list("");
  EXPECT_EQ(schemes, (std::vector<std::string>{"tsajs", "hjtora",
                                               "local-search", "greedy"}));
}

TEST(RegistryTest, ParseSchemeListExplicit) {
  const auto schemes = parse_scheme_list("greedy,tsajs");
  EXPECT_EQ(schemes, (std::vector<std::string>{"greedy", "tsajs"}));
}

TEST(RegistryTest, ParseSchemeListValidatesNames) {
  EXPECT_THROW((void)parse_scheme_list("greedy,bogus"), NotFoundError);
}

TEST(RegistryTest, ChainLengthReachesTsajsConfig) {
  RegistryOptions options;
  options.chain_length = 50;
  const auto scheduler = make_scheduler("tsajs", options);
  const auto* tsajs = dynamic_cast<const TsajsScheduler*>(scheduler.get());
  ASSERT_NE(tsajs, nullptr);
  EXPECT_EQ(tsajs->config().chain_length, 50u);
}

}  // namespace
}  // namespace tsajs::algo
