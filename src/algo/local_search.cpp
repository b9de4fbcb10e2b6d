#include "algo/local_search.h"

#include <utility>

#include "algo/neighborhood.h"
#include "common/error.h"

namespace tsajs::algo {

LocalSearchScheduler::LocalSearchScheduler(std::size_t chain_length)
    : max_iterations_(100 * chain_length), patience_(20 * chain_length) {
  TSAJS_REQUIRE(chain_length >= 1, "chain length must be at least 1");
}

ScheduleResult LocalSearchScheduler::solve(const SolveRequest& request) const {
  request.validate();
  const jtora::CompiledProblem& problem = *request.problem;
  Rng& rng = *request.rng;
  if (request.hint != nullptr) {
    return climb(problem, repair_hint(problem.scenario(), *request.hint), rng);
  }
  return climb(problem, random_feasible_assignment(problem.scenario(), rng, 0.0),
               rng);
}

ScheduleResult LocalSearchScheduler::climb(
    const jtora::CompiledProblem& problem, jtora::Assignment initial,
    Rng& rng) const {
  const jtora::UtilityEvaluator evaluator(problem);
  const Neighborhood neighborhood(problem.scenario());

  jtora::Assignment current = std::move(initial);
  double current_utility = evaluator.system_utility(current);
  ScheduleResult result{current, current_utility, 0.0, 1};

  std::size_t since_improvement = 0;
  for (std::size_t it = 0; it < max_iterations_; ++it) {
    jtora::Assignment candidate = current;
    neighborhood.step(candidate, rng);
    const double candidate_utility = evaluator.system_utility(candidate);
    ++result.evaluations;
    if (candidate_utility > current_utility) {
      current = std::move(candidate);
      current_utility = candidate_utility;
      since_improvement = 0;
    } else if (++since_improvement >= patience_) {
      break;
    }
  }
  result.assignment = std::move(current);
  result.system_utility = current_utility;
  return result;
}

}  // namespace tsajs::algo
