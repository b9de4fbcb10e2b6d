// Tests of the multi-start extension scheduler.
#include <gtest/gtest.h>

#include "algo/greedy.h"
#include "algo/multi_start.h"
#include "algo/registry.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::uint64_t seed, std::size_t users = 8) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(3)
      .num_subchannels(2)
      .task_megacycles(2000.0)
      .build(rng);
}

TEST(MultiStartTest, RejectsBadConstruction) {
  EXPECT_THROW(MultiStartScheduler(nullptr, 4), InvalidArgumentError);
  EXPECT_THROW(MultiStartScheduler(std::make_unique<GreedyScheduler>(), 0),
               InvalidArgumentError);
}

TEST(MultiStartTest, NameEncodesRestarts) {
  const MultiStartScheduler scheduler(std::make_unique<TsajsScheduler>(), 4);
  EXPECT_EQ(scheduler.name(), "tsajs-x4");
}

TEST(MultiStartTest, NeverWorseThanSingleRunBestOverSeeds) {
  // Multi-start keeps the max over restarts; on the same scenario its
  // result must be >= the expected single-run result distribution's draws
  // with the derived child seeds — verified here against each child run.
  const mec::Scenario scenario = make_scenario(5, 10);
  TsajsConfig config;
  config.chain_length = 5;  // keep the test fast
  Rng rng(13);
  Rng probe(13);
  const MultiStartScheduler multi(std::make_unique<TsajsScheduler>(config),
                                  3);
  const auto result = test::solve(multi, scenario, rng);
  for (std::size_t r = 0; r < 3; ++r) {
    Rng child(probe.derive_seed(r));
    const auto single = test::solve(TsajsScheduler(config), scenario, child);
    EXPECT_GE(result.system_utility, single.system_utility - 1e-12);
  }
}

TEST(MultiStartTest, AccumulatesEvaluations) {
  const mec::Scenario scenario = make_scenario(6);
  TsajsConfig config;
  config.chain_length = 5;
  Rng rng_single(1);
  const auto single = test::solve(TsajsScheduler(config), scenario, rng_single);
  Rng rng_multi(1);
  const MultiStartScheduler multi(std::make_unique<TsajsScheduler>(config),
                                  3);
  const auto result = test::solve(multi, scenario, rng_multi);
  EXPECT_GE(result.evaluations, 2 * single.evaluations);
}

TEST(RegistryExtensionTest, NewNamesResolve) {
  EXPECT_EQ(make_scheduler("tsajs-x4")->name(), "tsajs-x4");
}

}  // namespace
}  // namespace tsajs::algo
