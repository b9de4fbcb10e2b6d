// Property tests of the previews' rejection floor. A floored slot preview
// must either equal the unfloored preview bit for bit or return -infinity
// while the unfloored change lies below the floor; and on a converged warm
// state the annealer's floor (-750 T at T = 1e-6) must decide most
// proposals without pricing their co-channel occupants.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "algo/neighborhood.h"
#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "common/rng.h"
#include "jtora/compiled_problem.h"
#include "jtora/incremental.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::jtora {
namespace {

using Kind = algo::Neighborhood::Move::Kind;

constexpr double kMinusInf = -std::numeric_limits<double>::infinity();

/// 4-24 users on 2-8 servers with 1-4 sub-channels; each of the cloud tier
/// (with and without an admission cap) and a fault mask (a blocked slot, a
/// failed server, a dead backhaul) is drawn on or off.
mec::Scenario random_scenario(Rng& rng) {
  const std::size_t users = 4 + rng.uniform_index(21);
  const std::size_t servers = 2 + rng.uniform_index(7);
  const std::size_t subchannels = 1 + rng.uniform_index(4);
  const bool cloud = rng.bernoulli(0.5);
  mec::ScenarioBuilder builder;
  builder.num_users(users).num_servers(servers).num_subchannels(subchannels);
  if (cloud) {
    builder.cloud(/*cpu_hz=*/80e9, /*backhaul_bps=*/120e6,
                  /*backhaul_latency_s=*/0.015,
                  /*max_forwarded=*/rng.bernoulli(0.5) ? 3 : 0);
  }
  const mec::Scenario base = builder.build(rng);
  if (!rng.bernoulli(0.5)) return base;
  mec::Availability mask(servers, subchannels);
  mask.block_slot(rng.uniform_index(servers), rng.uniform_index(subchannels));
  if (servers > 2) mask.fail_server(rng.uniform_index(servers));
  if (cloud) mask.fail_backhaul(rng.uniform_index(servers));
  return base.with_availability(mask);
}

bool is_slot_move(Kind kind) {
  return kind == Kind::kOffload || kind == Kind::kMakeLocal ||
         kind == Kind::kSwap || kind == Kind::kReplace;
}

TEST(RejectionFloorProperty, FlooredPreviewIsExactOrProvablyBelowTheFloor) {
  std::size_t kind_count[7] = {};
  std::size_t pruned = 0;
  std::size_t exact = 0;
  std::size_t with_forwarded = 0;
  Rng scenario_rng(2026);
  for (int trial = 0; trial < 60; ++trial) {
    const mec::Scenario scenario = random_scenario(scenario_rng);
    const CompiledProblem problem(scenario);
    const algo::Neighborhood neighborhood(scenario);
    Rng rng(static_cast<std::uint64_t>(trial) * 7919 + 1);
    const double offload_prob = 0.2 + 0.2 * static_cast<double>(trial % 4);
    IncrementalEvaluator inc(
        problem, algo::random_feasible_assignment(scenario, rng, offload_prob));
    for (int step = 0; step < 400; ++step) {
      const algo::Neighborhood::Move move = neighborhood.propose(inc, rng);
      if (is_slot_move(move.kind)) {
        ++kind_count[static_cast<int>(move.kind)];
        if (inc.num_forwarded() > 0) ++with_forwarded;
        const double unfloored = neighborhood.preview(inc, move);
        const double delta = unfloored - inc.utility();
        // The floors at and one ulp under the exact change are the ones a
        // bound without its slack or its rounding margin crosses.
        const double floors[] = {delta,
                                 std::nextafter(delta, kMinusInf),
                                 std::nextafter(delta, -kMinusInf),
                                 delta + 1e-6 * (1.0 + std::fabs(delta)),
                                 delta - 1e-6 * (1.0 + std::fabs(delta)),
                                 -750.0 * 1e-6,
                                 -750.0 * 4.0,
                                 -1.0};
        for (const double floor : floors) {
          const double floored = neighborhood.preview(inc, move, floor);
          if (floored == kMinusInf) {
            ++pruned;
            ASSERT_LT(delta, floor)
                << "trial " << trial << " step " << step << " kind "
                << static_cast<int>(move.kind);
          } else {
            ++exact;
            ASSERT_EQ(std::bit_cast<std::uint64_t>(floored),
                      std::bit_cast<std::uint64_t>(unfloored))
                << "trial " << trial << " step " << step << " kind "
                << static_cast<int>(move.kind);
          }
        }
      }
      // Walk on: commit half the proposals (tier moves included), so the
      // previews see forwarded occupants, crowded and sparse sub-channels.
      if (rng.bernoulli(0.5)) neighborhood.apply_move(inc, move);
    }
    EXPECT_NO_THROW(inc.self_check());
  }
  for (const Kind kind :
       {Kind::kOffload, Kind::kMakeLocal, Kind::kSwap, Kind::kReplace}) {
    EXPECT_GT(kind_count[static_cast<int>(kind)], 100u)
        << "move kind " << static_cast<int>(kind) << " barely exercised";
  }
  EXPECT_GT(with_forwarded, 1000u);
  EXPECT_GT(pruned, 1000u);
  EXPECT_GT(exact, 1000u);
}

TEST(RejectionFloorProperty, AnnealerFloorDecidesMostWarmProposals) {
  // The converged warm state of a full 16x4 cell: a cold TSAJS solve, then
  // a warm one from it, as a streaming decision runs.
  Rng rng(5);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(64)
                                     .num_servers(16)
                                     .num_subchannels(4)
                                     .build(rng);
  const CompiledProblem problem(scenario);
  const algo::TsajsScheduler tsajs;
  const algo::ScheduleResult cold = test::solve(tsajs, problem, rng);
  const algo::ScheduleResult warm =
      test::solve(tsajs, problem, rng, &cold.assignment);
  const IncrementalEvaluator inc(problem, warm.assignment);
  const algo::Neighborhood neighborhood(scenario);
  const double floor = -750.0 * 1e-6;
  constexpr int kProposals = 20000;
  int decided = 0;
  for (int i = 0; i < kProposals; ++i) {
    const algo::Neighborhood::Move move = neighborhood.propose(inc, rng);
    if (neighborhood.preview(inc, move, floor) == kMinusInf) ++decided;
  }
  // Pinned exactly: the bound is deterministic, so a count that drops is a
  // bound that lost decisions. A change that decides more re-pins it.
  EXPECT_EQ(decided, 17411);
}

}  // namespace
}  // namespace tsajs::jtora
