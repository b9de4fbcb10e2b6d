// ShardedScheduler — interference-locality decomposition for city-scale
// solves.
//
// The wrapped scheduler ("inner") sees per-shard subproblems produced by
// jtora::ShardedProblem over a geo::InterferencePartition of the cell
// sites: beyond the interference reach, co-channel coupling is negligible,
// so shards are (nearly) independent and solve in parallel on a
// common::ThreadPool. Afterwards a deterministic *boundary fixup*
// re-scores every user homed in a boundary cell against the full global
// problem — the one place the decomposition neglected cross-shard
// interference — using the IncrementalEvaluator's bound-pruned argmax
// (best_offload, the same pick as scoring every halo slot) and keeping
// only strict improvements.
//
// Parallelism & determinism (see DESIGN.md "Parallel sharded solving"):
//   * Shard solves: child seeds derive from the caller Rng up front in
//     shard order, results land in preallocated per-shard slots, and the
//     merge scans them in shard order — bit-identical for every thread
//     count.
//   * Budget split: the anytime SolveBudget is sliced across shards
//     work-proportionally (weight = shard users x servers; largest-
//     remainder apportionment for the iteration cap), handed to a
//     budget-aware inner scheme via its SolveRequest, and followed by a
//     deadline-aware reclaim pass: slack the fast shards left behind —
//     unused iterations plus whatever remains of the wall clock — is
//     re-split over the truncated shards, which re-solve warm from their
//     own phase-1 result. With an iteration budget the whole policy is a
//     pure function of (problem, seed); wall-clock caps are anytime by
//     nature and never bit-stable.
//   * Boundary fixup: shards are greedily colored on the *squared* shard
//     adjacency (conflict = adjacent or sharing a neighbor), so same-color
//     shards have disjoint server halos. Each color class sweeps its
//     shards' boundary users concurrently against private snapshots of the
//     master evaluator (candidates restricted to the shard's halo) and
//     commits in shard order — Jacobi within a class, Gauss-Seidel across
//     classes — which makes the sweep thread-count independent by
//     construction. A class whose replayed moves lower the committed
//     utility is undone by replaying them backwards, each inverted. At
//     most two passes run, stopping early when a pass changes nothing.
//     Each pass re-checks the deadline before it starts, before every
//     color class, and every 32 users inside a sweep.
//
// Warm start: the scheduler is warm-startable — a global hint is repaired
// once, sliced per shard (jtora::ShardedProblem::shard_hint), and rides
// each shard's SolveRequest, so the dynamic simulator's carried-assignment
// path works transparently.
//
// Stateless, like every Scheduler: each solve() builds the partition, the
// fixup coloring and the per-shard compilations and drops them on return,
// so one instance serves concurrent solves (exp::TrialRunner's workers).
//
// Degenerate decompositions pass straight through: with a single shard (or
// a single cell site, where no finite reach separates anything) solve()
// delegates to the inner scheduler with the caller's own Rng — budget and
// hint still applied — so the result is bit-identical to the unsharded
// solve.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "algo/scheduler.h"

namespace tsajs::algo {

struct ShardedConfig {
  /// Interference reach [m] for the partition; 0 (default) derives it from
  /// the deployment via geo::InterferencePartition::auto_reach.
  double reach_m = 0.0;
  /// Worker threads for the shard solves and the colored fixup sweeps:
  /// 1 = sequential (default), 0 = hardware concurrency. Results are
  /// identical for every setting.
  std::size_t threads = 1;
  /// Anytime budget for the whole sharded solve. The iteration cap and the
  /// wall-clock deadline are split across the shard solves when the inner
  /// scheme is budget-aware (work-proportional + reclaim, see above); the
  /// wall-clock deadline additionally guards the fixup rounds. The merged
  /// shard solution is always feasible, so firing the budget at any point
  /// still returns a valid anytime result.
  SolveBudget budget;
  /// Hedged-retry trigger for shard solves that *overrun* their budget
  /// slice (0 disables; otherwise must be >= 1). A shard whose phase-1
  /// solve blows past `hedge_factor` x its apportioned slice is treated as
  /// stuck: its result is replaced by the better of itself and a
  /// deterministic greedy fallback solve, and it no longer competes for
  /// reclaimed budget. Overrun detection is a pure function of the shard's
  /// reported evaluation count under an iteration budget — sequential and
  /// N-thread solves stay bit-identical — and of the shard's elapsed time
  /// under a wall-clock budget (wall-clock mode was never bit-stable). A
  /// budget-aware inner scheme stops at its own slice deadline, so an
  /// overrun shows after the solve returns. No effect unless the solve is
  /// budgeted.
  double hedge_factor = 0.0;

  void validate() const;
};

class ShardedScheduler : public Scheduler {
 public:
  explicit ShardedScheduler(std::unique_ptr<Scheduler> inner,
                            ShardedConfig config = {});

  [[nodiscard]] std::string name() const override;

  /// Warm start: the request hint is repaired against the problem, sliced
  /// per shard, and handed down to the inner scheme's solve (which uses it
  /// when warm-startable); the boundary fixup then runs as in a cold solve.
  /// A request budget overrides `config().budget` as the global anytime
  /// budget being split across shards.
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override;

  /// The wrapper itself honors both optional fields: a hint is sliced per
  /// shard, a budget is split work-proportionally — regardless of what the
  /// inner scheme supports (an incapable inner just solves its shards cold
  /// and uncapped).
  [[nodiscard]] std::uint32_t capabilities() const noexcept override {
    return kWarmStart | kBudgetAware;
  }

 private:
  [[nodiscard]] ScheduleResult sharded_solve(
      const jtora::CompiledProblem& problem, const jtora::Assignment* hint,
      const SolveBudget& budget, Rng& rng) const;
  /// Degenerate (single-shard) path: delegate to the inner scheme with the
  /// caller's Rng, still applying the effective budget and hint.
  [[nodiscard]] ScheduleResult passthrough(
      const jtora::CompiledProblem& problem, const jtora::Assignment* hint,
      const SolveBudget& budget, Rng& rng) const;

  std::unique_ptr<Scheduler> inner_;
  /// Deterministic, RNG-free fallback for hedged shard retries (greedy).
  std::unique_ptr<Scheduler> hedge_fallback_;
  ShardedConfig config_;
};

}  // namespace tsajs::algo
