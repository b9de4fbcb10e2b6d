#include "jtora/partial.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace tsajs::jtora {

PartialOffloadEvaluator::PartialOffloadEvaluator(
    const CompiledProblem& problem)
    : problem_(&problem), full_(problem) {}

PartialOutcome PartialOffloadEvaluator::best_split(std::size_t u,
                                                   const LinkMetrics& link,
                                                   double cpu_hz) const {
  TSAJS_REQUIRE(u < problem_->num_users(), "user index out of range");
  TSAJS_REQUIRE(cpu_hz > 0.0, "CPU share must be positive");
  const mec::UserEquipment& ue = problem_->scenario().user(u);
  const double t_local = problem_->local_time_s(u);
  const double e_local = problem_->local_energy_j(u);

  // Per-unit-x costs of the two pipelines.
  const double local_slope = t_local;  // (1-x) w / f_local = (1-x)*t_local
  const double remote_slope =
      link.upload_s + link.download_s + ue.task.cycles / cpu_hz;
  const double energy_upload_slope = link.tx_energy_j;  // p * x d / R

  const auto outcome_at = [&](double x) {
    PartialOutcome o;
    o.split = x;
    o.delay_s = std::max((1.0 - x) * local_slope, x * remote_slope);
    o.energy_j = (1.0 - x) * e_local + x * energy_upload_slope;
    o.utility = ue.beta_time * (t_local - o.delay_s) / t_local +
                ue.beta_energy * (e_local - o.energy_j) / e_local;
    return o;
  };

  // Candidates: all-local, the paper's full offload, and the equal-time
  // kink (both pipelines finish together).
  PartialOutcome best = outcome_at(0.0);
  best.utility = 0.0;  // exact zero by definition of J (Eq. 10 factor)
  const PartialOutcome full = outcome_at(1.0);
  if (full.utility > best.utility) best = full;
  const double denom = local_slope + remote_slope;
  if (denom > 0.0 && std::isfinite(remote_slope)) {
    const double x_kink = std::clamp(local_slope / denom, 0.0, 1.0);
    const PartialOutcome kink = outcome_at(x_kink);
    if (kink.utility > best.utility) best = kink;
  }
  return best;
}

PartialEvaluation PartialOffloadEvaluator::evaluate(
    const Assignment& x) const {
  const Evaluation full_eval = full_.evaluate(x);
  PartialEvaluation eval;
  eval.users.resize(problem_->num_users());
  for (std::size_t u = 0; u < problem_->num_users(); ++u) {
    if (!x.is_offloaded(u)) {
      eval.users[u].delay_s = problem_->local_time_s(u);
      eval.users[u].energy_j = problem_->local_energy_j(u);
      continue;
    }
    eval.users[u] = best_split(u, full_eval.users[u].link,
                               full_eval.allocation.cpu_hz[u]);
    eval.system_utility +=
        problem_->scenario().user(u).lambda * eval.users[u].utility;
  }
  return eval;
}

}  // namespace tsajs::jtora
