// TSAJS: threshold-triggered simulated annealing — paper Algorithm 1.
//
// Standard simulated annealing over offloading decisions with two twists
// from the paper:
//  * the initial temperature is set to N (the number of sub-channels);
//  * cooling is *threshold-triggered*: per temperature plateau of L
//    proposals, accepted-worse moves are counted; while the running count
//    stays below maxCount = 1.75 L the temperature decays slowly
//    (alpha1 = 0.97), and once the threshold is hit it decays fast
//    (alpha2 = 0.90) and the count resets. This spends iterations where the
//    landscape still offers uphill escapes and rushes through the
//    quenched tail. The search stops once T falls below T_min = 1e-9.
//
// The returned decision is the best one seen anywhere during the search.
#pragma once

#include "algo/scheduler.h"

namespace tsajs::algo {

/// Cooling variants; Geometric (always alpha1) is the ablation of the
/// paper's threshold trigger.
enum class CoolingMode { kThresholdTriggered, kGeometric };

struct TsajsConfig {
  /// Markov-chain length per temperature (paper's L; Figs. 4/7/8 vary it).
  std::size_t chain_length = 30;
  CoolingMode cooling = CoolingMode::kThresholdTriggered;
  /// Evaluate proposals with the O(co-channel) incremental evaluator
  /// instead of a full recompute: every proposal is *previewed* read-only
  /// and only accepted moves are applied, so rejected moves (the vast
  /// majority at low temperature) cost a single pass over the affected
  /// co-channel users. Identical results (a property test pins the two
  /// evaluators to each other); order-of-magnitude faster solves.
  bool use_incremental_evaluator = true;
  /// Anytime budget. The annealer checks it at every plateau (chain)
  /// boundary and returns the best feasible decision seen so far; if the
  /// budget fires while that best is still worse than all-local, the solve
  /// degrades to the all-local assignment (utility 0) so a budgeted TSAJS
  /// never returns less than the guaranteed-feasible fallback. The default
  /// (unlimited) budget leaves the search bit-identical to pre-budget code.
  SolveBudget budget;

  void validate() const;
};

class TsajsScheduler final : public Scheduler {
 public:
  explicit TsajsScheduler(TsajsConfig config = {});

  [[nodiscard]] std::string name() const override;

  /// Cold (no hint): Algorithm 1 — random feasible start (line 5), T <- N
  /// (line 3). Warm (request.hint set): the hint is repaired against the
  /// problem's scenario (repair_hint) and annealing starts from it at
  /// the warm temperature 1e-6 instead of T = N: a warm start is already
  /// near-optimal, so the chain restarts far down the cooling curve and
  /// spends its whole budget polishing. A request budget overrides
  /// `config().budget` for this call; the anytime caps are checked at each
  /// plateau boundary, and a request budget equal to the configured one is
  /// bit-identical to an unbudgeted request.
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override;

  [[nodiscard]] std::uint32_t capabilities() const noexcept override {
    return kWarmStart | kBudgetAware;
  }

  [[nodiscard]] const TsajsConfig& config() const noexcept { return config_; }

 private:
  /// anneal_solve + the budgeted all-local degradation floor.
  [[nodiscard]] ScheduleResult budgeted_solve(
      const jtora::CompiledProblem& problem, jtora::Assignment initial,
      double initial_temperature, const SolveBudget& budget, Rng& rng) const;
  [[nodiscard]] ScheduleResult anneal_solve(
      const jtora::CompiledProblem& problem, jtora::Assignment initial,
      double initial_temperature, const SolveBudget& budget, Rng& rng) const;

  TsajsConfig config_;
};

}  // namespace tsajs::algo
