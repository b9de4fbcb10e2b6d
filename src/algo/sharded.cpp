#include "algo/sharded.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "algo/greedy.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "geo/partition.h"
#include "jtora/incremental.h"
#include "jtora/sharded_problem.h"
#include "jtora/utility.h"

namespace tsajs::algo {

void ShardedConfig::validate() const {
  TSAJS_REQUIRE(reach_m >= 0.0 && std::isfinite(reach_m),
                "interference reach must be finite and non-negative");
  TSAJS_REQUIRE(std::isfinite(hedge_factor) &&
                    (hedge_factor == 0.0 || hedge_factor >= 1.0),
                "hedge factor must be 0 (disabled) or >= 1");
  budget.validate();
}

ShardedScheduler::ShardedScheduler(std::unique_ptr<Scheduler> inner,
                                   ShardedConfig config)
    : inner_(std::move(inner)),
      hedge_fallback_(std::make_unique<GreedyScheduler>()),
      config_(config) {
  TSAJS_REQUIRE(inner_ != nullptr, "sharded scheduler needs an inner scheme");
  config_.validate();
}

std::string ShardedScheduler::name() const {
  // Matches the registry's "sharded:<inner>" spelling, so names round-trip
  // through make_scheduler.
  return "sharded:" + inner_->name();
}

namespace {

/// Boundary fixup rounds after the shard solves. Each round sweeps the
/// boundary users once (colored); rounds stop early when a sweep changes
/// nothing.
constexpr std::size_t kFixupPasses = 2;

/// What the boundary fixup needs of the partition alone.
struct FixupPlan {
  /// Shards grouped so same-color shards never share a halo server; class
  /// lists ascend, classes commit in list order.
  std::vector<std::vector<std::size_t>> color_classes;
  /// Per shard: its own servers plus all adjacent shards' servers,
  /// ascending global ids — the candidate set its boundary sweep scans and
  /// the only servers its moves can touch.
  std::vector<std::vector<std::size_t>> halo_servers;
};

/// Greedy coloring of the shard graph under *distance-2* conflicts: two
/// shards conflict when they are adjacent or share a common neighbor.
/// Same-color shards then have no adjacent shard in common, so their halos
/// (own + adjacent cells) are disjoint — which is what lets a whole color
/// class propose *and commit* concurrently-computed boundary moves without
/// two shards ever writing the same server. Greedy over ascending shard
/// ids with the lowest free color is deterministic; on the square-tile
/// partition the conflict graph has bounded degree (<= 24 tiles within
/// distance 2), so the class count stays small no matter the city size.
FixupPlan build_fixup_plan(const geo::InterferencePartition& partition) {
  const std::size_t num_shards = partition.num_shards();
  FixupPlan plan;
  plan.halo_servers.resize(num_shards);
  std::vector<std::size_t> color(num_shards, 0);
  std::vector<std::uint8_t> used(num_shards + 1, 0);
  for (std::size_t k = 0; k < num_shards; ++k) {
    std::fill(used.begin(), used.end(), 0);
    for (const std::size_t a : partition.adjacent_shards(k)) {
      if (a < k) used[color[a]] = 1;
      for (const std::size_t b : partition.adjacent_shards(a)) {
        if (b < k && b != k) used[color[b]] = 1;
      }
    }
    std::size_t c = 0;
    while (used[c] != 0) ++c;
    color[k] = c;
    if (c >= plan.color_classes.size()) plan.color_classes.resize(c + 1);
    plan.color_classes[c].push_back(k);  // k ascends, so each list ascends

    std::vector<std::size_t>& halo = plan.halo_servers[k];
    halo = partition.cells(k);
    for (const std::size_t a : partition.adjacent_shards(k)) {
      const std::vector<std::size_t>& cells = partition.cells(a);
      halo.insert(halo.end(), cells.begin(), cells.end());
    }
    std::sort(halo.begin(), halo.end());
  }
  return plan;
}

/// One accepted boundary-user placement from a shard sweep, in the global
/// frame. Replayed verbatim on the master evaluator at commit time.
struct UserMove {
  std::size_t user = 0;
  std::optional<jtora::Slot> from;
  std::optional<jtora::Slot> to;
};

struct ShardSweep {
  std::vector<UserMove> moves;
  std::size_t evaluations = 0;
};

/// Propose phase of the colored fixup for one shard: sweep the shard's
/// boundary users (ascending) on a *private copy* of the master evaluator,
/// restricting candidate servers to the shard's halo, and record each
/// strict improvement. The copy sees the other same-color shards' state as
/// it was at the start of the class (Jacobi within a class) — but since
/// their halos are disjoint, none of their moves touches a server this
/// sweep scores against, so replaying the recorded moves on the master
/// reproduces this sweep's occupancy evolution exactly.
ShardSweep sweep_shard(const jtora::IncrementalEvaluator& master,
                       const std::vector<std::size_t>& boundary_users,
                       const std::vector<std::size_t>& halo,
                       const Stopwatch& timer, double deadline) {
  ShardSweep out;
  jtora::IncrementalEvaluator eval = master;  // flat arrays, shared problem
  std::size_t scanned = 0;
  for (const std::size_t u : boundary_users) {
    // Honor the anytime deadline inside the sweep, not just between
    // passes; every prefix of the recorded moves is feasible.
    if (deadline > 0.0 && (scanned++ & 31) == 0 &&
        timer.elapsed_seconds() >= deadline) {
      break;
    }
    // A cloud-forwarded user's compute does not touch its server's pool and
    // its uplink was already priced by the shard solve; re-placing it here
    // would silently recall it. Tier decisions stay with the shard solves.
    if (eval.is_forwarded(u)) continue;
    const std::optional<jtora::Slot> orig = eval.slot_of(u);
    // Lift the user out so its own slot becomes free and is re-scored on
    // equal terms with every halo slot; priced first, it also starts the
    // argmax's pruning floor.
    if (orig.has_value()) eval.apply_make_local(u);
    const jtora::IncrementalEvaluator::BestSlot best =
        eval.best_offload(u, halo, orig);
    out.evaluations += best.evaluations;
    if (best.slot.has_value()) {
      eval.apply_offload(u, best.slot->server, best.slot->subchannel);
    }
    if (orig != best.slot) out.moves.push_back(UserMove{u, orig, best.slot});
  }
  return out;
}

/// Commit phase: replay every sweep's moves on the master evaluator, shard
/// order within the class. Halo disjointness makes the replayed utilities
/// match what each private sweep computed up to far-field interference the
/// halo cut off. In the (rare) case those neglected couplings net out to a
/// loss, the whole class is undone by replaying its moves backwards, each
/// one inverted: the mover goes local, then back to the slot it came from.
/// Sweeps never move a forwarded user, so no cloud bit needs restoring.
/// Returns the number of users moved, 0 when undone.
std::size_t commit_class(jtora::IncrementalEvaluator& master,
                         const std::vector<ShardSweep>& sweeps) {
  std::size_t moved = 0;
  for (const ShardSweep& sweep : sweeps) moved += sweep.moves.size();
  if (moved == 0) return 0;
  const double before = master.utility();
  for (const ShardSweep& sweep : sweeps) {
    for (const UserMove& move : sweep.moves) {
      master.apply_make_local(move.user);
      if (move.to.has_value()) {
        master.apply_offload(move.user, move.to->server, move.to->subchannel);
      }
    }
  }
  if (master.utility() >= before) return moved;
  for (auto sweep = sweeps.rbegin(); sweep != sweeps.rend(); ++sweep) {
    for (auto move = sweep->moves.rbegin(); move != sweep->moves.rend();
         ++move) {
      master.apply_make_local(move->user);
      if (move->from.has_value()) {
        master.apply_offload(move->user, move->from->server,
                             move->from->subchannel);
      }
    }
  }
  return 0;
}

}  // namespace

ScheduleResult ShardedScheduler::solve(const SolveRequest& request) const {
  request.validate();
  // A request budget overrides the configured one as the global cap being
  // split across shards; absent both, the solve is unbudgeted.
  const SolveBudget& budget =
      request.budget != nullptr ? *request.budget : config_.budget;
  return sharded_solve(*request.problem, request.hint, budget, *request.rng);
}

ScheduleResult ShardedScheduler::passthrough(
    const jtora::CompiledProblem& problem, const jtora::Assignment* hint,
    const SolveBudget& budget, Rng& rng) const {
  // An unlimited budget is not forwarded, keeping the historical delegation
  // paths bit for bit (the inner scheme falls back to its own configured
  // budget); a real budget rides the request and caps the unsharded solve
  // when the inner scheme is budget-aware. Likewise the hint is always
  // forwarded — a non-warm-startable inner ignores it, which is exactly the
  // historical dynamic_cast fallback.
  SolveRequest inner_request;
  inner_request.problem = &problem;
  inner_request.hint = hint;
  inner_request.budget = budget.unlimited() ? nullptr : &budget;
  inner_request.rng = &rng;
  return inner_->solve(inner_request);
}

ScheduleResult ShardedScheduler::sharded_solve(
    const jtora::CompiledProblem& problem, const jtora::Assignment* hint,
    const SolveBudget& budget, Rng& rng) const {
  const Stopwatch timer;
  const mec::Scenario& scenario = problem.scenario();

  // An already-expired deadline: no budget slice could let any shard do
  // work, so degrade straight to the guaranteed-feasible all-local floor —
  // the same contract a budget-aware inner scheme honors (never throw).
  if (budget.max_seconds < 0.0) {
    return ScheduleResult{jtora::Assignment(scenario), 0.0,
                          timer.elapsed_seconds(), 0};
  }

  std::vector<geo::Point> sites;
  sites.reserve(scenario.num_servers());
  for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
    sites.push_back(scenario.server(s).position);
  }
  const double reach = config_.reach_m > 0.0
                           ? config_.reach_m
                           : geo::InterferencePartition::auto_reach(sites);
  // A single site (auto reach 0) cannot be partitioned; neither can a
  // deployment whose sites all share one tile. Both degenerate to the
  // wrapped scheme verbatim — same Rng, same result, bit for bit.
  if (reach <= 0.0) return passthrough(problem, hint, budget, rng);

  const geo::InterferencePartition partition(sites, reach);
  if (partition.num_shards() == 1) {
    return passthrough(problem, hint, budget, rng);
  }
  const jtora::ShardedProblem sharded(problem, partition);
  const std::size_t num_shards = sharded.num_shards();

  // Capability probes replace the historical dynamic_casts: the budget is
  // only split when the inner scheme will actually honor the slices, and a
  // hint is only repaired when something downstream will read it.
  const bool capped_inner =
      !budget.unlimited() && inner_->supports(kBudgetAware);
  const bool warm_inner = hint != nullptr && inner_->supports(kWarmStart);

  // Work-proportional budget slices, derived once in shard order.
  // Weight = users x servers, the size of a shard's placement grid — a
  // proxy for how much search effort its solve deserves.
  std::vector<std::uint64_t> weights(num_shards, 0);
  std::uint64_t weight_sum = 0;
  for (std::size_t k = 0; k < num_shards; ++k) {
    const jtora::ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.problem == nullptr) continue;
    weights[k] = static_cast<std::uint64_t>(shard.users.size()) *
                 static_cast<std::uint64_t>(
                     std::max<std::size_t>(std::size_t{1}, shard.servers.size()));
    weight_sum += weights[k];
  }
  std::vector<std::size_t> iter_slice(num_shards, 0);
  if (capped_inner && budget.max_iterations != 0) {
    iter_slice = jtora::split_units(budget.max_iterations, weights, true);
  }
  std::vector<double> sec_slice(num_shards, 0.0);
  if (capped_inner && budget.max_seconds > 0.0 && weight_sum > 0) {
    for (std::size_t k = 0; k < num_shards; ++k) {
      if (weights[k] == 0) continue;
      sec_slice[k] =
          std::max(1e-9, budget.max_seconds * (static_cast<double>(weights[k]) /
                                               static_cast<double>(weight_sum)));
    }
  }

  // The hint is repaired once against the global scenario, then sliced per
  // shard inside the workers (shard_hint is a const read — thread-safe).
  std::optional<jtora::Assignment> repaired;
  if (hint != nullptr && (warm_inner || capped_inner)) {
    repaired = repair_hint(scenario, *hint);
  }

  // Derive every child seed up front, in shard order — the only point that
  // touches the caller's rng, so each shard's solve is independent of
  // execution order and thread count.
  // Seeds k and num_shards + k feed shard k's phase-1 solve and its
  // reclaim re-solve respectively.
  std::vector<std::uint64_t> seeds(2 * num_shards);
  for (std::size_t k = 0; k < seeds.size(); ++k) seeds[k] = rng.derive_seed(k);

  // Hedged retries (config_.hedge_factor > 0) judge each shard after its
  // solve returns: by its evaluation count under an iteration budget, by
  // its elapsed time under a wall-clock one.
  const bool hedging = config_.hedge_factor > 0.0 && capped_inner;

  struct Outcome {
    std::optional<ScheduleResult> result;
    bool truncated = false;
  };
  std::vector<Outcome> outcomes(num_shards);
  const auto solve_shard = [&](std::size_t k) {
    const jtora::ShardedProblem::Shard& shard = sharded.shard(k);
    if (shard.problem == nullptr) return;  // no user homes here
    Rng child(seeds[k]);
    Outcome& out = outcomes[k];
    const Stopwatch shard_timer;
    SolveRequest shard_request;
    shard_request.problem = shard.problem.get();
    shard_request.rng = &child;
    std::optional<jtora::Assignment> shard_hint;
    if (repaired.has_value()) {
      shard_hint = sharded.shard_hint(k, *repaired);
      shard_request.hint = &*shard_hint;
    }
    if (capped_inner) {
      SolveBudget slice;
      slice.max_iterations = iter_slice[k];
      slice.max_seconds = sec_slice[k];
      shard_request.budget = &slice;
      out.result = inner_->solve(shard_request);
      // Truncated = the slice (not mere preference) stopped the solve; only
      // these shards compete for reclaimed budget. The iteration test is a
      // pure function of the result, keeping iteration-only budgets
      // bit-deterministic; the wall-clock test is anytime by nature.
      out.truncated =
          (slice.max_iterations != 0 &&
           out.result->evaluations >= slice.max_iterations) ||
          (slice.max_seconds > 0.0 &&
           shard_timer.elapsed_seconds() >= slice.max_seconds);
      if (hedging) {
        // Overrun = the solve blew past hedge_factor x its slice. Under an
        // iteration budget the test reads only the result (bit-identical at
        // any thread count); under a wall-clock budget it reads the shard's
        // elapsed time, which that mode never guaranteed to be stable.
        const bool iter_overrun =
            slice.max_iterations != 0 &&
            static_cast<double>(out.result->evaluations) >
                config_.hedge_factor *
                    static_cast<double>(slice.max_iterations);
        const bool clock_overrun =
            slice.max_seconds > 0.0 &&
            shard_timer.elapsed_seconds() >=
                config_.hedge_factor * slice.max_seconds;
        if (iter_overrun || clock_overrun) {
          // Deterministic retry: the greedy fallback is RNG-free, so the
          // hedged result is a pure function of the shard problem (and the
          // hint). Keep the better of the two; the shard stops competing
          // for reclaimed budget — it already proved it cannot spend its
          // slice well.
          SolveRequest fallback_request = shard_request;
          fallback_request.budget = nullptr;
          const ScheduleResult fallback =
              hedge_fallback_->solve(fallback_request);
          out.result->evaluations += fallback.evaluations;
          if (fallback.system_utility > out.result->system_utility) {
            out.result->assignment = fallback.assignment;
            out.result->system_utility = fallback.system_utility;
          }
          out.truncated = false;
        }
      }
    } else {
      out.result = inner_->solve(shard_request);
    }
  };

  // One pool serves the shard solves, the reclaim pass, and the fixup
  // sweeps. A light grain batches shards per task when there are many more
  // shards than workers; results are slot-addressed, so chunking cannot
  // change them.
  std::optional<ThreadPool> pool;
  if (config_.threads != 1 && num_shards > 1) pool.emplace(config_.threads);
  const std::size_t grain =
      pool.has_value()
          ? std::max<std::size_t>(std::size_t{1},
                                  num_shards / (pool->num_threads() * 8))
          : std::size_t{1};
  if (pool.has_value()) {
    pool->parallel_for(num_shards, solve_shard, grain);
  } else {
    for (std::size_t k = 0; k < num_shards; ++k) solve_shard(k);
  }

  // Deadline-aware reclaim: budget the fast shards did not use flows to
  // the truncated ones. The iteration pool is the non-truncated shards'
  // unused allocations (deterministic); the wall-clock pool is whatever
  // remains of the global deadline now. Each truncated shard re-solves
  // *warm from its own phase-1 result* under its share of the pool and
  // keeps the better of the two.
  if (capped_inner) {
    std::vector<std::uint64_t> reclaim_weights(num_shards, 0);
    std::uint64_t reclaim_weight_sum = 0;
    bool any_truncated = false;
    for (std::size_t k = 0; k < num_shards; ++k) {
      if (outcomes[k].result.has_value() && outcomes[k].truncated) {
        reclaim_weights[k] = weights[k];
        reclaim_weight_sum += weights[k];
        any_truncated = true;
      }
    }
    std::size_t iter_pool = 0;
    if (budget.max_iterations != 0) {
      for (std::size_t k = 0; k < num_shards; ++k) {
        const Outcome& out = outcomes[k];
        if (!out.result.has_value() || out.truncated) continue;
        iter_pool +=
            iter_slice[k] - std::min(out.result->evaluations, iter_slice[k]);
      }
    }
    const double sec_pool =
        budget.max_seconds > 0.0
            ? std::max(0.0, budget.max_seconds - timer.elapsed_seconds())
            : 0.0;
    if (any_truncated && (iter_pool > 0 || sec_pool > 0.0)) {
      // No >=1 clamp here: a shard whose reclaimed share rounds to nothing
      // simply keeps its phase-1 result.
      const std::vector<std::size_t> iter_extra =
          jtora::split_units(iter_pool, reclaim_weights, false);
      const auto resolve_shard = [&](std::size_t k) {
        if (reclaim_weights[k] == 0) return;
        SolveBudget slice;
        slice.max_iterations = iter_extra[k];
        if (sec_pool > 0.0) {
          slice.max_seconds =
              std::max(1e-9, sec_pool * (static_cast<double>(weights[k]) /
                                         static_cast<double>(reclaim_weight_sum)));
        }
        if (slice.unlimited()) return;  // nothing reclaimed for this shard
        Rng child(seeds[num_shards + k]);
        ScheduleResult& phase1 = *outcomes[k].result;
        SolveRequest reclaim_request;
        reclaim_request.problem = sharded.shard(k).problem.get();
        reclaim_request.hint = &phase1.assignment;
        reclaim_request.budget = &slice;
        reclaim_request.rng = &child;
        const ScheduleResult warm = inner_->solve(reclaim_request);
        phase1.evaluations += warm.evaluations;
        if (warm.system_utility > phase1.system_utility) {
          phase1.assignment = warm.assignment;
          phase1.system_utility = warm.system_utility;
        }
      };
      if (pool.has_value()) {
        pool->parallel_for(num_shards, resolve_shard, grain);
      } else {
        for (std::size_t k = 0; k < num_shards; ++k) resolve_shard(k);
      }
    }
  }

  // Merge in shard order. Shards own disjoint server sets, so the merged
  // assignment is feasible by construction.
  jtora::Assignment merged(scenario);
  std::size_t evaluations = 0;
  for (std::size_t k = 0; k < num_shards; ++k) {
    if (!outcomes[k].result.has_value()) continue;
    evaluations += outcomes[k].result->evaluations;
    sharded.merge_into(k, outcomes[k].result->assignment, merged);
  }

  // Boundary fixup on the *global* problem: shard solves scored boundary
  // users without cross-shard interference, so their placements can be
  // mispriced. If the shard phase already exhausted the anytime deadline,
  // do not even build the fixup machinery — score the merged assignment
  // once and return it.
  const double deadline = budget.max_seconds;
  if (deadline > 0.0 && timer.elapsed_seconds() >= deadline) {
    const double utility =
        jtora::UtilityEvaluator(problem).system_utility(merged);
    return ScheduleResult{std::move(merged), utility, timer.elapsed_seconds(),
                          evaluations};
  }

  const FixupPlan plan = build_fixup_plan(partition);
  jtora::IncrementalEvaluator master(problem, merged);
  std::vector<ShardSweep> sweeps;
  for (std::size_t pass = 0; pass < kFixupPasses; ++pass) {
    if (deadline > 0.0 && timer.elapsed_seconds() >= deadline) break;
    std::size_t moved = 0;
    for (const std::vector<std::size_t>& color_class : plan.color_classes) {
      if (deadline > 0.0 && timer.elapsed_seconds() >= deadline) break;
      sweeps.assign(color_class.size(), ShardSweep{});
      const auto sweep_one = [&](std::size_t i) {
        const std::size_t k = color_class[i];
        const std::vector<std::size_t>& users = sharded.boundary_users_of(k);
        if (users.empty()) return;
        sweeps[i] =
            sweep_shard(master, users, plan.halo_servers[k], timer, deadline);
      };
      if (pool.has_value()) {
        pool->parallel_for(color_class.size(), sweep_one);
      } else {
        for (std::size_t i = 0; i < color_class.size(); ++i) sweep_one(i);
      }
      for (const ShardSweep& sweep : sweeps) evaluations += sweep.evaluations;
      moved += commit_class(master, sweeps);
    }
    if (moved == 0) break;
  }

  // Settle the running sums so the reported utility matches an independent
  // evaluation to well under the validation tolerance.
  master.rebuild();
  return ScheduleResult{master.assignment(), master.utility(),
                        timer.elapsed_seconds(), evaluations};
}

}  // namespace tsajs::algo
