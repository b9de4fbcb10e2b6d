// Property tests of IncrementalEvaluator::best_offload, the bound-pruned
// argmax of the sharded boundary fixup. Against a test-local exact scan
// (every row of preview_offload_subchannel without a floor, first strict
// improvement on staying local) it must pick the same slot, with the same
// utility bits and the same count of scored slots, on random scenarios,
// on gains rescaled link by link, on exact ties between two identical
// servers, and with a seed slot outside the candidate list.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "algo/neighborhood.h"
#include "algo/scheduler.h"
#include "common/error.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/incremental.h"
#include "mec/availability.h"
#include "mec/scenario.h"
#include "mec/scenario_builder.h"

namespace tsajs::jtora {
namespace {

using BestSlot = IncrementalEvaluator::BestSlot;

/// The fixup's argmax without any bound: score every row exactly, count
/// every free, available slot, and keep the first strict improvement on
/// staying local.
BestSlot exact_scan(const IncrementalEvaluator& eval, std::size_t u,
                    std::span<const std::size_t> candidates) {
  BestSlot best{std::nullopt, eval.utility(), 1};
  std::vector<double> row(candidates.size());
  const std::size_t subchannels = eval.problem().num_subchannels();
  for (std::size_t j = 0; j < subchannels; ++j) {
    eval.preview_offload_subchannel(u, j, candidates, row.data(),
                                    IncrementalEvaluator::kNoFloor);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (std::isnan(row[i])) continue;
      ++best.evaluations;
      if (row[i] > best.utility) {
        best.utility = row[i];
        best.slot = Slot{candidates[i], j};
      }
    }
  }
  return best;
}

/// Runs both on `eval` (where `u` is local) and compares slot, utility
/// bits and scored-slot count. Returns the exact answer.
BestSlot expect_same_argmax(const IncrementalEvaluator& eval, std::size_t u,
                            const std::vector<std::size_t>& candidates,
                            std::optional<Slot> seed, int trial) {
  const BestSlot exact = exact_scan(eval, u, candidates);
  const BestSlot bounded = eval.best_offload(u, candidates, seed);
  EXPECT_EQ(bounded.slot, exact.slot) << "trial " << trial << " user " << u;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bounded.utility),
            std::bit_cast<std::uint64_t>(exact.utility))
      << "trial " << trial << " user " << u;
  EXPECT_EQ(bounded.evaluations, exact.evaluations)
      << "trial " << trial << " user " << u;
  return exact;
}

/// Rebuilds `base` with each (user, server) link's gain scaled by its own
/// factor in [10^lo, 10^hi], the same on every sub-channel of the link (the
/// Scenario accepts no other channel), so a user's best server departs
/// from the drop's geometry. A positive range makes offloading pay for
/// most users.
mec::Scenario with_link_gains(const mec::Scenario& base, Rng& rng,
                              double lo = -2.0, double hi = 2.0) {
  Matrix3<double> gains = base.gains();
  for (std::size_t u = 0; u < base.num_users(); ++u) {
    for (std::size_t s = 0; s < base.num_servers(); ++s) {
      const double factor = std::pow(10.0, rng.uniform(lo, hi));
      for (std::size_t j = 0; j < base.num_subchannels(); ++j) {
        gains(u, s, j) *= factor;
      }
    }
  }
  return mec::Scenario(base.users(), base.servers(), base.spectrum(),
                       base.noise_w(), std::move(gains), base.availability(),
                       base.cloud());
}

/// 4-24 users on 2-8 servers with 1-4 sub-channels; the cloud tier (with
/// and without an admission cap), a fault mask and rescaled link gains are
/// each drawn on or off.
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
  mec::Scenario scenario = builder.build(rng);
  if (rng.bernoulli(0.5)) scenario = with_link_gains(scenario, rng);
  if (!rng.bernoulli(0.5)) return scenario;
  mec::Availability mask(servers, subchannels);
  mask.block_slot(rng.uniform_index(servers), rng.uniform_index(subchannels));
  if (servers > 2) mask.fail_server(rng.uniform_index(servers));
  if (cloud) mask.fail_backhaul(rng.uniform_index(servers));
  return scenario.with_availability(mask);
}

/// A random, shuffled, non-empty selection of servers, now and then with
/// one server listed twice.
std::vector<std::size_t> random_candidates(std::size_t servers, Rng& rng) {
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < servers; ++s) {
    if (rng.bernoulli(0.7)) candidates.push_back(s);
  }
  if (candidates.empty()) candidates.push_back(rng.uniform_index(servers));
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.uniform_index(i)]);
  }
  if (rng.bernoulli(0.1)) candidates.push_back(candidates.front());
  return candidates;
}

TEST(FixupArgmaxProperty, MatchesTheExactScanOnRandomScenarios) {
  std::size_t moved = 0;
  std::size_t stayed = 0;
  std::size_t with_forwarded = 0;
  Rng scenario_rng(2027);
  for (int trial = 0; trial < 80; ++trial) {
    const mec::Scenario scenario = random_scenario(scenario_rng);
    const CompiledProblem problem(scenario);
    const algo::Neighborhood neighborhood(scenario);
    Rng rng(static_cast<std::uint64_t>(trial) * 7919 + 3);
    IncrementalEvaluator inc(
        problem, algo::random_feasible_assignment(scenario, rng, 0.5));
    for (int step = 0; step < 300; ++step) {
      // Walk on with the annealer's own moves (forward and recall
      // included), so the occupants are sometimes forwarded.
      neighborhood.apply_move(inc, neighborhood.propose(inc, rng));
      if (step % 10 != 0) continue;
      const std::size_t u = rng.uniform_index(scenario.num_users());
      if (inc.is_forwarded(u)) continue;  // the fixup never re-places these
      if (inc.num_forwarded() > 0) ++with_forwarded;
      IncrementalEvaluator lifted = inc;
      const std::optional<Slot> seed = lifted.slot_of(u);
      lifted.make_local(u);
      const BestSlot exact = expect_same_argmax(
          lifted, u, random_candidates(scenario.num_servers(), rng), seed,
          trial);
      ++(exact.slot.has_value() ? moved : stayed);
    }
  }
  EXPECT_GT(moved, 200u);
  EXPECT_GT(stayed, 50u);
  EXPECT_GT(with_forwarded, 100u);
}

TEST(FixupArgmaxProperty, MatchesTheExactScanFromEachUsersBestSlot) {
  // A converged sweep's users mostly sit on their best slot already, so
  // the seed is the floor that decides; here every user starts there, on
  // rescaled link gains.
  Rng scenario_rng(88);
  std::size_t seeded = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const mec::Scenario scenario = with_link_gains(
        mec::ScenarioBuilder()
            .num_users(12 + scenario_rng.uniform_index(13))
            .num_servers(3 + scenario_rng.uniform_index(6))
            .num_subchannels(2 + scenario_rng.uniform_index(3))
            .build(scenario_rng),
        scenario_rng, -1.0, 3.0);
    const CompiledProblem problem(scenario);
    Rng rng(static_cast<std::uint64_t>(trial) + 500);
    IncrementalEvaluator inc(
        problem, algo::random_feasible_assignment(scenario, rng, 0.6));
    std::vector<std::size_t> all(scenario.num_servers());
    for (std::size_t s = 0; s < all.size(); ++s) all[s] = s;
    // Two greedy best-response rounds over every user.
    for (int round = 0; round < 2; ++round) {
      for (std::size_t u = 0; u < scenario.num_users(); ++u) {
        inc.make_local(u);
        const BestSlot best = exact_scan(inc, u, all);
        if (best.slot) inc.offload(u, best.slot->server, best.slot->subchannel);
      }
    }
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      IncrementalEvaluator lifted = inc;
      const std::optional<Slot> seed = lifted.slot_of(u);
      if (seed.has_value()) ++seeded;
      lifted.make_local(u);
      expect_same_argmax(lifted, u, all, seed, trial);
      expect_same_argmax(lifted, u, random_candidates(all.size(), rng), seed,
                         trial);
    }
  }
  EXPECT_GT(seeded, 300u);
}

TEST(FixupArgmaxProperty, SeedOutsideTheCandidatesDoesNotRaiseTheFloor) {
  // The user's slot is its best anywhere, and its server is not a
  // candidate: the scan never meets that value, so it must not prune.
  Rng scenario_rng(404);
  std::size_t below_seed = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const mec::Scenario scenario = with_link_gains(
        mec::ScenarioBuilder()
            .num_users(10 + scenario_rng.uniform_index(10))
            .num_servers(3 + scenario_rng.uniform_index(5))
            .num_subchannels(1 + scenario_rng.uniform_index(3))
            .task_megacycles(4000.0)
            .build(scenario_rng),
        scenario_rng, 1.0, 4.0);
    const CompiledProblem problem(scenario);
    Rng rng(static_cast<std::uint64_t>(trial) + 900);
    IncrementalEvaluator inc(
        problem, algo::random_feasible_assignment(scenario, rng, 0.5));
    const std::size_t u = rng.uniform_index(scenario.num_users());
    inc.make_local(u);
    std::vector<std::size_t> all(scenario.num_servers());
    for (std::size_t s = 0; s < all.size(); ++s) all[s] = s;
    const BestSlot best = exact_scan(inc, u, all);
    if (!best.slot.has_value()) continue;
    std::vector<std::size_t> others;
    for (const std::size_t s : all) {
      if (s != best.slot->server) others.push_back(s);
    }
    const BestSlot exact = expect_same_argmax(inc, u, others, best.slot, trial);
    if (exact.slot.has_value() && exact.utility < best.utility) ++below_seed;
  }
  // Cases where a seed that raised the floor would have hidden the answer.
  EXPECT_GT(below_seed, 20u);
}

TEST(FixupArgmaxProperty, TiesGoToTheFirstSlotInScanOrder) {
  // Servers 0 and 1 are one base station listed twice: same position,
  // CPU and gains, both empty, so u prices exactly the same on either.
  // Sub-channel 1 is u's best: the users on sub-channels 0 and 2 interfere
  // strongly at those servers, and nobody else uses it. u held (1, 1), the
  // seed, which the scan meets after (0, 1); the exact scan keeps (0, 1).
  Rng build_rng(17);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(6)
                                 .num_servers(4)
                                 .num_subchannels(3)
                                 .task_megacycles(4000.0)
                                 .build(build_rng);
  std::vector<mec::EdgeServer> servers = base.servers();
  servers[1] = servers[0];
  Matrix3<double> gains = base.gains();
  const std::size_t u = 2;
  for (std::size_t v = 0; v < base.num_users(); ++v) {
    for (std::size_t j = 0; j < base.num_subchannels(); ++j) {
      gains(v, 1, j) = gains(v, 0, j);
    }
  }
  // Whole links are scaled, every sub-channel alike.
  const auto scale_link = [&](std::size_t v, std::size_t s, double factor) {
    for (std::size_t j = 0; j < base.num_subchannels(); ++j) {
      gains(v, s, j) *= factor;
    }
  };
  for (const std::size_t s : {std::size_t{0}, std::size_t{1}}) {
    scale_link(u, s, 1e5);
    for (const std::size_t v : {0u, 3u, 4u}) scale_link(v, s, 1e4);
    // User 5, the tied row's occupant in the crowded case, and u barely
    // hear each other there, so the move still beats staying local.
    scale_link(5, s, 1e-3);
  }
  scale_link(u, 2, 1e-3);
  const mec::Scenario scenario(base.users(), servers, base.spectrum(),
                               base.noise_w(), std::move(gains));
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(u, 1, 1);
  x.offload(0, 2, 0);
  x.offload(3, 3, 2);
  x.offload(4, 3, 0);
  for (const bool crowded : {false, true}) {
    Assignment start = x;
    if (crowded) start.offload(5, 2, 1);  // an occupant on the tied row
    IncrementalEvaluator lifted(problem, start);
    lifted.make_local(u);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(lifted.preview_offload(u, 0, 1)),
              std::bit_cast<std::uint64_t>(lifted.preview_offload(u, 1, 1)));
    const std::vector<std::size_t> candidates = {0, 1, 2, 3};
    const BestSlot exact =
        expect_same_argmax(lifted, u, candidates, Slot{1, 1}, crowded ? 1 : 0);
    EXPECT_EQ(exact.slot, (Slot{0, 1})) << "crowded " << crowded;
  }
}

TEST(FixupArgmaxProperty, RequiresALocalUserAndValidServers) {
  Rng rng(9);
  const mec::Scenario scenario =
      mec::ScenarioBuilder().num_users(6).num_servers(3).num_subchannels(2)
          .build(rng);
  const CompiledProblem problem(scenario);
  Assignment x(scenario);
  x.offload(2, 1, 0);
  const IncrementalEvaluator eval(problem, x);
  const std::vector<std::size_t> candidates = {0, 2};
  EXPECT_THROW((void)eval.best_offload(2, candidates, std::nullopt),
               InvalidArgumentError);
  const std::vector<std::size_t> out_of_range = {1, 3};
  EXPECT_THROW((void)eval.best_offload(4, out_of_range, std::nullopt),
               InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::jtora
