#include "jtora/utility.h"

#include <cmath>

#include "common/error.h"
#include "jtora/batch_kernels.h"

namespace tsajs::jtora {

UtilityEvaluator::UtilityEvaluator(const CompiledProblem& problem)
    : problem_(&problem), rate_(problem), cra_(problem) {}

double UtilityEvaluator::system_utility(const Assignment& x) const {
  // Ascending-user gain/gamma adds, ascending-server interference sums (the
  // order RateEvaluator::interference_w walks); golden tests pin the bits.
  thread_local batch::OccupantLists lists;
  lists.gather(x, problem_->num_servers(), problem_->num_subchannels());
  const double noise = problem_->noise_w();
  double gain = 0.0;
  double gamma = 0.0;
  for (const std::size_t u : x.offloaded_users()) {
    const Slot slot = *x.slot_of(u);
    gain += problem_->gain_const(u);
    const double interference =
        batch::interference_at(*problem_, lists, u, slot.server,
                               slot.subchannel);
    const double signal = problem_->signal(u, slot.subchannel, slot.server);
    const double sinr = signal / (interference + noise);
    const double log_term = std::log2(1.0 + sinr);
    // Gamma(X) = sum (phi_u + psi_u p_u) / log2(1 + gamma_us)  (Eq. 19),
    // plus the downlink and cloud-forwarding delay terms of the extensions.
    gamma += problem_->gamma_coef(u) / log_term;
    if (problem_->has_downlink()) {
      gamma += problem_->time_cost_scale(u) *
               problem_->downlink_time_s(u, slot.server, slot.subchannel);
    }
    if (x.is_forwarded(u)) {
      gamma += problem_->time_cost_scale(u) *
               problem_->forward_time_s(u, slot.server);
    }
  }
  const double lambda_cost = cra_.optimal_objective(x);
  // Eq. 24.
  return gain - gamma - lambda_cost;
}

double UtilityEvaluator::user_utility(std::size_t u, const LinkMetrics& link,
                                      double cpu_hz,
                                      double extra_delay_s) const {
  TSAJS_REQUIRE(u < problem_->num_users(), "user index out of range");
  TSAJS_REQUIRE(cpu_hz > 0.0, "allocated CPU must be positive (12e)");
  const mec::UserEquipment& ue = problem_->scenario().user(u);
  const double local_time = problem_->local_time_s(u);
  const double local_energy = problem_->local_energy_j(u);
  const double t_u = link.upload_s + link.download_s +
                     ue.task.cycles / cpu_hz + extra_delay_s;
  const double e_u = link.tx_energy_j;
  // Eq. 10 with sum_s x_us = 1.
  return ue.beta_time * (local_time - t_u) / local_time +
         ue.beta_energy * (local_energy - e_u) / local_energy;
}

Evaluation UtilityEvaluator::evaluate(const Assignment& x) const {
  Evaluation eval;
  eval.allocation = cra_.solve(x);
  eval.lambda_cost = eval.allocation.objective;
  eval.users.resize(problem_->num_users());
  for (std::size_t u = 0; u < problem_->num_users(); ++u) {
    UserOutcome& outcome = eval.users[u];
    const mec::UserEquipment& ue = problem_->scenario().user(u);
    if (!x.is_offloaded(u)) {
      // Local execution: delay/energy are the local baselines, J_u = 0
      // (Eq. 10 carries the factor sum_s x_us).
      outcome.total_delay_s = problem_->local_time_s(u);
      outcome.energy_j = problem_->local_energy_j(u);
      continue;
    }
    outcome.offloaded = true;
    outcome.forwarded = x.is_forwarded(u);
    outcome.link = rate_.link(x, u);
    const double cpu = eval.allocation.cpu_hz[u];
    TSAJS_CHECK(cpu > 0.0, "CRA must allocate positive CPU to offloaders");
    outcome.exec_s = ue.task.cycles / cpu;
    if (outcome.forwarded) {
      const Slot slot = *x.slot_of(u);
      outcome.forward_s = problem_->forward_time_s(u, slot.server);
    }
    outcome.total_delay_s = outcome.link.upload_s + outcome.link.download_s +
                            outcome.exec_s;
    if (outcome.forwarded) outcome.total_delay_s += outcome.forward_s;
    outcome.energy_j = outcome.link.tx_energy_j;
    outcome.utility = user_utility(u, outcome.link, cpu, outcome.forward_s);

    eval.gain_term += problem_->gain_const(u);
    const double log_term = std::log2(1.0 + outcome.link.sinr);
    eval.gamma_cost += problem_->gamma_coef(u) / log_term;
    eval.gamma_cost += problem_->time_cost_scale(u) * outcome.link.download_s;
    if (outcome.forwarded) {
      eval.gamma_cost += problem_->time_cost_scale(u) * outcome.forward_s;
    }
    eval.system_utility += ue.lambda * outcome.utility;
  }
  return eval;
}

}  // namespace tsajs::jtora
