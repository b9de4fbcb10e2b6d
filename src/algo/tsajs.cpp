#include "algo/tsajs.h"

#include <cmath>

#include "algo/neighborhood.h"
#include "common/error.h"
#include "common/stopwatch.h"
#include "jtora/incremental.h"

namespace tsajs::algo {

namespace {

// Algorithm 1's schedule constants.
constexpr double kMinTemperature = 1e-9;  ///< T_min: the search stops below
constexpr double kAlphaSlow = 0.97;       ///< alpha1
constexpr double kAlphaFast = 0.90;       ///< alpha2
constexpr double kThresholdFactor = 1.75;  ///< maxCount = 1.75 L
/// Worse proposals with Delta <= -kRejectExponent * T are rejected whatever
/// the uniform draw: exp(-750) lies more than 100x below half the smallest
/// subnormal, so exp(Delta / T) rounds to exactly +0 and never exceeds
/// u in [0, 1). Previews may decide them without pricing every user they
/// touch (DESIGN.md §8).
constexpr double kRejectExponent = 750.0;
/// Initial temperature of warm solves (a SolveRequest carrying a hint).
/// Well below N by design: the warm chain is effectively a stochastic
/// descent with occasional tiny uphill escapes (bench/bench_dynamic.cpp).
constexpr double kWarmReheat = 1e-6;
static_assert(kWarmReheat > kMinTemperature);

}  // namespace

void TsajsConfig::validate() const {
  TSAJS_REQUIRE(chain_length >= 1, "chain length must be at least 1");
  budget.validate();
}

TsajsScheduler::TsajsScheduler(TsajsConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

std::string TsajsScheduler::name() const {
  return config_.cooling == CoolingMode::kThresholdTriggered ? "tsajs"
                                                             : "tsajs-geo";
}

namespace {

// The annealing loop, generic over the evaluation strategy. `Propose` takes
// (rng, rejection floor) and returns the candidate utility without changing
// the current state — or -infinity for a proposal whose utility change it
// proved to lie below the floor, which takes the same reject branch, with
// the same uniform draw, as its exact value would; `Commit` realizes the
// last proposal and returns the utility actually reached (the evaluation
// strategy's own bookkeeping value); `Snapshot` returns the current
// assignment by value. Rejection is free by construction: an unrealized
// proposal leaves no trace.
template <typename Propose, typename Commit, typename Snapshot>
ScheduleResult anneal(const TsajsConfig& config, const SolveBudget& budget,
                      Rng& rng, double initial_temperature,
                      double initial_utility,
                      Propose&& propose, Commit&& commit,
                      Snapshot&& snapshot) {
  // Algorithm 1 lines 3-4: temperature schedule parameters.
  double temperature = initial_temperature;
  TSAJS_CHECK(temperature > kMinTemperature,
              "initial temperature must exceed the minimum");
  const double max_count =
      kThresholdFactor * static_cast<double>(config.chain_length);

  double current_utility = initial_utility;
  ScheduleResult result{snapshot(), current_utility, 0.0, 1};

  // Anytime budget: consulted only at plateau boundaries, and only when the
  // caller set one, so an unlimited solve takes the identical path.
  const bool budgeted = !budget.unlimited();
  const Stopwatch deadline_timer;

  std::size_t worse_accept_count = 0;  // Algorithm 1's `count`.
  while (temperature > kMinTemperature) {
    const double rejection_floor = -kRejectExponent * temperature;
    for (std::size_t i = 0; i < config.chain_length; ++i) {
      // Lines 10-12: neighbor + closed-form CRA folded into the objective.
      const double candidate_utility = propose(rng, rejection_floor);
      ++result.evaluations;

      const double delta = candidate_utility - current_utility;
      if (delta > 0.0) {
        current_utility = commit();
        if (current_utility > result.system_utility) {
          result.assignment = snapshot();
          result.system_utility = current_utility;
        }
      } else {
        // Lines 20-22: accept a worse solution with probability
        // exp(Delta / T), and count it. Every such proposal draws one
        // uniform; exp is priced only for a finite Delta < 0, since
        // Delta = 0 accepts (exp = 1 > u) and -infinity or NaN rejects
        // (exp = +0 or NaN > u is false) whatever the draw.
        const double u = rng.uniform();
        if (delta == 0.0 ||
            (std::isfinite(delta) && std::exp(delta / temperature) > u)) {
          current_utility = commit();
          ++worse_accept_count;
        }
        // else: reject — the unrealized proposal simply evaporates.
      }
    }
    // Anytime budget: a plateau boundary is a safe point — `result` always
    // holds the best feasible decision seen so far, so stopping here is
    // "return best-so-far", never "return partial state". A negative
    // deadline compares as already expired.
    if (budgeted &&
        ((budget.max_iterations != 0 &&
          result.evaluations >= budget.max_iterations) ||
         (budget.max_seconds != 0.0 &&
          deadline_timer.elapsed_seconds() >= budget.max_seconds))) {
      break;
    }
    // Lines 26-30: threshold-triggered cooling.
    if (config.cooling == CoolingMode::kGeometric) {
      temperature *= kAlphaSlow;
    } else if (static_cast<double>(worse_accept_count) < max_count) {
      temperature *= kAlphaSlow;
    } else {
      temperature *= kAlphaFast;
      worse_accept_count = 0;
    }
  }
  return result;
}

}  // namespace

ScheduleResult TsajsScheduler::solve(const SolveRequest& request) const {
  request.validate();
  const jtora::CompiledProblem& problem = *request.problem;
  const SolveBudget& budget =
      request.budget != nullptr ? *request.budget : config_.budget;
  Rng& rng = *request.rng;
  if (request.hint != nullptr) {
    // The hint replaces the random start; repair makes it feasible for this
    // scenario whatever it was shaped for. Annealing restarts from the low
    // warm temperature instead of re-melting at T = N.
    return budgeted_solve(problem, repair_hint(problem.scenario(), *request.hint),
                          kWarmReheat, budget, rng);
  }
  // Algorithm 1 line 5: random feasible initial solution, which the paper
  // only requires to be feasible. The start is all-local (offload
  // probability 0): on large instances a dense random start sits so deep in
  // negative-utility territory that the annealing budget cannot climb out,
  // whereas from all-local the "move" and "toggle" operators grow the
  // offload set organically. The draw still consumes one uniform per user.
  jtora::Assignment initial =
      random_feasible_assignment(problem.scenario(), rng, 0.0);
  // Line 3: T <- N.
  const auto initial_temperature =
      static_cast<double>(problem.num_subchannels());
  return budgeted_solve(problem, std::move(initial), initial_temperature,
                        budget, rng);
}

ScheduleResult TsajsScheduler::budgeted_solve(
    const jtora::CompiledProblem& problem, jtora::Assignment initial,
    double initial_temperature, const SolveBudget& budget, Rng& rng) const {
  ScheduleResult result = anneal_solve(problem, std::move(initial),
                                       initial_temperature, budget, rng);
  if (!budget.unlimited() && result.system_utility < 0.0) {
    // The budget fired before the search reached anything at least as good
    // as all-local execution (system utility exactly 0, feasible by
    // construction): degrade to it rather than return a worse start.
    result.assignment = jtora::Assignment(problem.scenario());
    result.system_utility = 0.0;
  }
  return result;
}

ScheduleResult TsajsScheduler::anneal_solve(
    const jtora::CompiledProblem& problem, jtora::Assignment initial,
    double initial_temperature, const SolveBudget& budget, Rng& rng) const {
  const Neighborhood neighborhood(problem.scenario());

  if (config_.use_incremental_evaluator) {
    // Preview/commit protocol: propose() only *describes* the move and
    // previews its utility from the shared problem's caches; nothing is
    // mutated until the annealer accepts, so a rejected proposal leaves
    // nothing to undo.
    jtora::IncrementalEvaluator state(problem, initial);
    Neighborhood::Move move;
    return anneal(
        config_, budget, rng, initial_temperature, state.utility(),
        /*propose=*/
        [&](Rng& r, double rejection_floor) {
          move = neighborhood.propose(state, r);
          return neighborhood.preview(state, move, rejection_floor);
        },
        /*commit=*/
        [&] {
          neighborhood.apply_move(state, move);
          return state.utility();
        },
        /*snapshot=*/[&] { return state.assignment(); });
  }

  const jtora::UtilityEvaluator evaluator(problem);
  jtora::Assignment current = initial;
  jtora::Assignment candidate = current;
  double candidate_utility = 0.0;
  return anneal(
      config_, budget, rng, initial_temperature,
      evaluator.system_utility(current),
      /*propose=*/
      [&](Rng& r, double /*rejection_floor*/) {
        candidate = current;
        neighborhood.step(candidate, r);
        candidate_utility = evaluator.system_utility(candidate);
        return candidate_utility;
      },
      /*commit=*/
      [&] {
        current = candidate;
        return candidate_utility;
      },
      /*snapshot=*/[&] { return current; });
}

}  // namespace tsajs::algo
