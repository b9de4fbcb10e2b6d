// Multi-start wrapper around any stochastic scheduler; the registry's
// "tsajs-x4" is four TSAJS restarts.
//
// Simulated annealing's outcome depends on its start and proposal stream;
// the cheapest variance reduction is to run R independent restarts and keep
// the best decision. This wrapper does that generically, deriving a child
// RNG per restart so results stay reproducible.
//
// Restarts are embarrassingly parallel: with `num_threads != 1` they run on
// a ThreadPool. The per-restart seeds are derived up front in restart order
// (`rng.derive_seed(0..R-1)`) and the reduction scans results in restart
// order, so the parallel path is **bit-identical** to the sequential one —
// same seeds, same winner, same tie-breaks — regardless of thread count or
// completion order.
#pragma once

#include <memory>

#include "algo/scheduler.h"

namespace tsajs::algo {

class MultiStartScheduler final : public Scheduler {
 public:
  /// Wraps `inner`, running it `restarts` times per solve() call.
  /// `num_threads` controls restart parallelism: 1 (default) runs
  /// sequentially, 0 uses the hardware concurrency, any other value that
  /// many workers. Results are identical for every setting.
  MultiStartScheduler(std::unique_ptr<Scheduler> inner, std::size_t restarts,
                      std::size_t num_threads = 1);

  [[nodiscard]] std::string name() const override;

  /// Every restart shares the request's single compiled problem — the
  /// tables are immutable during a solve, so restarts (parallel or not)
  /// read the same compilation instead of each paying for their own.
  /// Warm start: restart 0 runs the inner scheduler warm from the request
  /// hint, the remaining restarts stay cold for diversity. Budget: every
  /// restart runs under the request budget (each restart gets the full cap,
  /// mirroring how a configured budget applies per restart). Either field
  /// is silently ignored when the inner scheme lacks the capability (the
  /// inner solve()'s own contract).
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override;

  /// Honest pass-through: the wrapper honors exactly what the inner
  /// scheme honors.
  [[nodiscard]] std::uint32_t capabilities() const noexcept override;

  [[nodiscard]] std::size_t restarts() const noexcept { return restarts_; }
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return num_threads_;
  }

 private:
  [[nodiscard]] ScheduleResult run_restarts(
      const jtora::CompiledProblem& problem, const jtora::Assignment* hint,
      const SolveBudget* budget, Rng& rng) const;

  std::unique_ptr<Scheduler> inner_;
  std::size_t restarts_;
  std::size_t num_threads_;
};

}  // namespace tsajs::algo
