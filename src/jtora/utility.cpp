#include "jtora/utility.h"

#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace tsajs::jtora {

namespace {

/// Per-sub-channel occupant lists of an assignment in CSR form, gathered
/// once per system_utility call so each user's interference sum runs over
/// plain arrays instead of repeated Assignment::occupant() lookups.
/// Occupants of each sub-channel appear in ascending server order (the
/// summation order of RateEvaluator::interference_w).
struct OccupantLists {
  /// CSR offsets, one per sub-channel plus the terminating total.
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> user;    ///< occupant user index
  std::vector<std::uint32_t> server;  ///< occupant's server

  void gather(const Assignment& x, std::size_t num_servers,
              std::size_t num_subchannels) {
    start.assign(num_subchannels + 1, 0);
    user.clear();
    server.clear();
    user.reserve(x.num_offloaded());
    server.reserve(x.num_offloaded());
    // One flat scan of the slot -> user map, no per-slot accessor calls.
    const auto& slot_user = x.slot_users();
    for (std::size_t j = 0; j < num_subchannels; ++j) {
      for (std::size_t s = 0; s < num_servers; ++s) {
        const auto& occ = slot_user[s * num_subchannels + j];
        if (!occ.has_value()) continue;
        user.push_back(static_cast<std::uint32_t>(*occ));
        server.push_back(static_cast<std::uint32_t>(s));
      }
      start[j + 1] = static_cast<std::uint32_t>(user.size());
    }
  }
};

/// Co-channel interference (Eq. 3 denominator, noise excluded) seen by user
/// `u` offloaded at (s, j): the ascending-server-order sum of the other
/// occupants' signals at server s — bit-identical to
/// RateEvaluator::interference_w(x, s, j, u).
double interference_at(const CompiledProblem& problem,
                       const OccupantLists& lists, std::size_t u,
                       std::size_t s, std::size_t j) noexcept {
  double total = 0.0;
  const std::uint32_t begin = lists.start[j];
  const std::uint32_t end = lists.start[j + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t k = lists.user[i];
    // r == s is u's own slot (one occupant per slot, and u holds (s, j));
    // any other occupant k == u is impossible, so this is interference_w's
    // exclude check in full.
    if (lists.server[i] == s || k == u) continue;
    total += problem.signal(k, s);
  }
  return total;
}

}  // namespace

UtilityEvaluator::UtilityEvaluator(const CompiledProblem& problem)
    : problem_(&problem), rate_(problem), cra_(problem) {}

double UtilityEvaluator::system_utility(const Assignment& x) const {
  // Ascending-user gain/gamma adds, ascending-server interference sums (the
  // order RateEvaluator::interference_w walks); golden tests pin the bits.
  thread_local OccupantLists lists;
  lists.gather(x, problem_->num_servers(), problem_->num_subchannels());
  const double noise = problem_->noise_w();
  double gain = 0.0;
  double gamma = 0.0;
  for (const std::size_t u : x.offloaded_users()) {
    const Slot slot = *x.slot_of(u);
    gain += problem_->gain_const(u);
    const double interference =
        interference_at(*problem_, lists, u, slot.server, slot.subchannel);
    const double signal = problem_->signal(u, slot.server);
    const double sinr = signal / (interference + noise);
    const double log_term = std::log2(1.0 + sinr);
    // Gamma(X) = sum (phi_u + psi_u p_u) / log2(1 + gamma_us)  (Eq. 19),
    // plus the cloud-forwarding delay term of the extension.
    gamma += problem_->gamma_coef(u) / log_term;
    if (x.is_forwarded(u)) {
      gamma += problem_->time_cost_scale(u) * problem_->forward_time_s(u);
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
  const double t_u = link.upload_s + ue.task.cycles / cpu_hz + extra_delay_s;
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
    if (outcome.forwarded) outcome.forward_s = problem_->forward_time_s(u);
    outcome.total_delay_s = outcome.link.upload_s + outcome.exec_s;
    if (outcome.forwarded) outcome.total_delay_s += outcome.forward_s;
    outcome.energy_j = outcome.link.tx_energy_j;
    outcome.utility = user_utility(u, outcome.link, cpu, outcome.forward_s);

    eval.gain_term += problem_->gain_const(u);
    const double log_term = std::log2(1.0 + outcome.link.sinr);
    eval.gamma_cost += problem_->gamma_coef(u) / log_term;
    if (outcome.forwarded) {
      eval.gamma_cost += problem_->time_cost_scale(u) * outcome.forward_s;
    }
    eval.system_utility += ue.lambda * outcome.utility;
  }
  return eval;
}

}  // namespace tsajs::jtora
