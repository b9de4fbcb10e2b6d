// Scheme goldens: bit-for-bit pins on every registered scheme, each solved
// through solve(SolveRequest) three ways — cold, from a warm hint, and
// under a max_iterations budget. `exhaustive` runs on a 5-user 3x2 drop;
// every other scheme runs on one 30-user drop with a fault mask and a cloud
// tier. The pinned values (utility as a hexfloat, the evaluation count and
// the CRC-32 of the slot vector) move only if some scheme's RNG stream or
// arithmetic moves; a change that legitimately alters a decision
// re-captures them and says why.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "common/rng.h"
#include "jtora/compiled_problem.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

struct Outcome {
  double utility;
  std::size_t evaluations;
  std::uint32_t crc;
};

struct SchemeGolden {
  const char* scheme;
  Outcome cold;
  Outcome warm;
  Outcome budgeted;
};

// gtest_discover_tests names an instance after its printed parameter
// (".../tsajs"); without this, the name carries the struct's raw bytes,
// pointer and padding included, and changes from build to build.
void PrintTo(const SchemeGolden& golden, std::ostream* os) {
  *os << golden.scheme;
}

mec::Scenario exhaustive_drop() {
  Rng rng(515);
  return mec::ScenarioBuilder()
      .num_users(5)
      .num_servers(3)
      .num_subchannels(2)
      .build(rng);
}

mec::Scenario masked_cloud_drop() {
  Rng rng(3030);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(30)
                                 .num_servers(7)
                                 .num_subchannels(3)
                                 .cloud(30e9, 100e6, 0.02, 4)
                                 .build(rng);
  mec::Availability mask(7, 3);
  mask.fail_server(2);
  mask.block_slot(4, 1);
  mask.block_slot(6, 0);
  mask.fail_backhaul(5);
  return base.with_availability(mask);
}

void expect_outcome(const ScheduleResult& result, const Outcome& golden) {
  EXPECT_EQ(result.system_utility, golden.utility);
  EXPECT_EQ(result.evaluations, golden.evaluations);
  EXPECT_EQ(test::slot_crc(result.assignment), golden.crc);
}

class SchemeGoldenTest : public ::testing::TestWithParam<SchemeGolden> {};

TEST_P(SchemeGoldenTest, ColdWarmAndBudgetedSolvesArePinned) {
  const SchemeGolden& golden = GetParam();
  const std::string scheme = golden.scheme;
  const mec::Scenario scenario =
      scheme == "exhaustive" ? exhaustive_drop() : masked_cloud_drop();
  const jtora::CompiledProblem problem(scenario);
  const std::unique_ptr<Scheduler> scheduler = make_scheduler(scheme);

  Rng hint_rng(404);
  const jtora::Assignment hint = random_feasible_assignment(scenario, hint_rng);
  SolveBudget budget;
  budget.max_iterations = 400;

  Rng cold_rng(11);
  Rng warm_rng(12);
  Rng budget_rng(13);
  {
    SCOPED_TRACE("cold");
    expect_outcome(test::solve(*scheduler, problem, cold_rng), golden.cold);
  }
  {
    SCOPED_TRACE("warm");
    expect_outcome(test::solve(*scheduler, problem, warm_rng, &hint),
                   golden.warm);
  }
  {
    SCOPED_TRACE("budgeted");
    expect_outcome(
        test::solve(*scheduler, problem, budget_rng, nullptr, &budget),
        golden.budgeted);
  }
}

// Captured at the commit that still carried the deprecated solve shims, so
// the migration of every caller onto SolveRequest is pinned against it.
INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeGoldenTest,
    ::testing::Values(
        SchemeGolden{"exhaustive",
                     {0x1.ac90d13578475p-2, 4051u, 0x5e3e7296u},
                     {0x1.ac90d13578475p-2, 4051u, 0x5e3e7296u},
                     {0x1.ac90d13578475p-2, 4051u, 0x5e3e7296u}},
        SchemeGolden{"tsajs",
                     {0x1.23682972aca38p+1, 15721u, 0xbecaad09u},
                     {0x1.23682972ac272p+1, 5041u, 0x62d99e28u},
                     {0x1.6653a6bacc3e7p-1, 421u, 0xade67225u}},
        SchemeGolden{"tsajs-geo",
                     {0x1.23682972aca26p+1, 21511u, 0x452d4252u},
                     {0x1.23682972ac272p+1, 6811u, 0x62d99e28u},
                     {0x1.6653a6bacc3e7p-1, 421u, 0xade67225u}},
        SchemeGolden{"hjtora",
                     {0x1.23682972aca29p+1, 2707u, 0x00cb5ab3u},
                     {0x1.23682972aca29p+1, 2707u, 0x00cb5ab3u},
                     {0x1.23682972aca29p+1, 2707u, 0x00cb5ab3u}},
        SchemeGolden{"local-search",
                     {0x1.23682972aca29p+1, 1502u, 0x452d4252u},
                     {0x1.23682972aca29p+1, 1569u, 0x273f86c9u},
                     {0x1.23682972aca29p+1, 1259u, 0xdade21f9u}},
        SchemeGolden{"greedy",
                     {0x1.23682972aca29p+1, 23u, 0x00cb5ab3u},
                     {0x1.1cc3949b0403fp+0, 19u, 0xb6d132f8u},
                     {0x1.23682972aca29p+1, 23u, 0x00cb5ab3u}},
        SchemeGolden{"sharded:tsajs",
                     {0x1.23682972aca29p+1, 27262u, 0x19bd3c94u},
                     {0x1.23682972aca29p+1, 8992u, 0xb8cce562u},
                     {0x1.18f87a4692f77p+1, 1266u, 0x895e554cu}}));

}  // namespace
}  // namespace tsajs::algo
