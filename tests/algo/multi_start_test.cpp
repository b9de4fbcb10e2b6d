// Determinism guarantees of the parallel multi-start path: threading is a
// wall-clock knob only — seeds, winners, and tie-breaks must be bit-identical
// to the sequential loop.
#include "algo/multi_start.h"

#include <gtest/gtest.h>

#include "algo/registry.h"
#include "algo/tsajs.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_scenario(std::size_t users = 10, std::uint64_t seed = 42) {
  Rng rng(seed);
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(3)
      .num_subchannels(2)
      .build(rng);
}

std::unique_ptr<Scheduler> fast_tsajs() {
  TsajsConfig config;
  config.chain_length = 5;  // keep the test quick; restarts still differ
  return std::make_unique<TsajsScheduler>(config);
}

TEST(MultiStartParallelTest, BitIdenticalToSequential) {
  const mec::Scenario scenario = make_scenario();
  const MultiStartScheduler sequential(fast_tsajs(), 8, /*num_threads=*/1);
  const MultiStartScheduler parallel(fast_tsajs(), 8, /*num_threads=*/4);

  Rng rng_seq(2025);
  Rng rng_par(2025);
  const ScheduleResult a = test::solve(sequential, scenario, rng_seq);
  const ScheduleResult b = test::solve(parallel, scenario, rng_par);

  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);  // bit-identical, not NEAR
  EXPECT_EQ(a.evaluations, b.evaluations);
  // The caller-visible RNG must have advanced identically too (same number
  // of derive_seed calls), so downstream draws stay in lockstep.
  EXPECT_EQ(rng_seq.next_u64(), rng_par.next_u64());
}

TEST(MultiStartParallelTest, HardwareThreadsAlsoBitIdentical) {
  const mec::Scenario scenario = make_scenario(8, 7);
  const MultiStartScheduler sequential(fast_tsajs(), 5, 1);
  const MultiStartScheduler hardware(fast_tsajs(), 5, /*num_threads=*/0);
  Rng rng_a(11);
  Rng rng_b(11);
  const ScheduleResult a = test::solve(sequential, scenario, rng_a);
  const ScheduleResult b = test::solve(hardware, scenario, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
}

TEST(MultiStartParallelTest, RepeatedParallelRunsAreStable) {
  // Scheduling twice with the same seed must reproduce exactly even when
  // worker interleaving differs between runs.
  const mec::Scenario scenario = make_scenario(6, 3);
  const MultiStartScheduler parallel(fast_tsajs(), 6, 3);
  Rng rng_a(99);
  Rng rng_b(99);
  const ScheduleResult a = test::solve(parallel, scenario, rng_a);
  const ScheduleResult b = test::solve(parallel, scenario, rng_b);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.system_utility, b.system_utility);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(MultiStartParallelTest, RegistryThreadsOptionWiresThrough) {
  RegistryOptions options;
  options.threads = 4;
  const auto scheduler = make_scheduler("tsajs-x4", options);
  EXPECT_EQ(scheduler->name(), "tsajs-x4");
  // Same scheme with and without threads must agree bit-for-bit.
  const mec::Scenario scenario = make_scenario(6, 5);
  Rng rng_par(17);
  Rng rng_seq(17);
  const auto par = test::solve(*scheduler, scenario, rng_par);
  const auto seq = test::solve(*make_scheduler("tsajs-x4"), scenario, rng_seq);
  EXPECT_EQ(par.assignment, seq.assignment);
  EXPECT_EQ(par.system_utility, seq.system_utility);
}

}  // namespace
}  // namespace tsajs::algo
