// Hill-climbing local search — the paper's "LocalSearch" baseline.
//
// "Continuously search for neighboring states of the current state ... and
// accept better neighboring states to gradually improve the quality of the
// solution. The search stops when the algorithm converges or reaches the
// maximum number of iterations."
//
// Uses the same neighborhood operator as TSAJS (Algorithm 2) but accepts
// only strict improvements — so it converges to the nearest local optimum,
// which is the gap the annealer is designed to escape.
#pragma once

#include "algo/scheduler.h"

namespace tsajs::algo {

class LocalSearchScheduler final : public Scheduler {
 public:
  /// Budget proportional to TSAJS's effort knob L (`chain_length`), as a
  /// fixed multiple: a hard cap of 100·L iterations and convergence after
  /// 20·L consecutive non-improving proposals. The budget does not depend
  /// on the instance size, so its runtime stays flat (paper Fig. 8).
  /// Requires L >= 1.
  explicit LocalSearchScheduler(std::size_t chain_length = 20);

  [[nodiscard]] std::string name() const override { return "local-search"; }

  /// Cold: hill-climbs from the all-local start (offload probability 0 in
  /// random_feasible_assignment): a pure hill climber keeps whatever start
  /// it gets, and a random start can be deeply negative on large instances,
  /// which no reasonable implementation of the baseline would ship. Warm
  /// (request.hint): hill-climbs from the repaired hint instead.
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override;

  [[nodiscard]] std::uint32_t capabilities() const noexcept override {
    return kWarmStart;
  }

 private:
  [[nodiscard]] ScheduleResult climb(const jtora::CompiledProblem& problem,
                                     jtora::Assignment initial,
                                     Rng& rng) const;

  std::size_t max_iterations_;
  std::size_t patience_;
};

}  // namespace tsajs::algo
