// System-utility evaluation (paper Eqs. 8-11 and the decomposed form 16-24).
//
// Two entry points:
//  * `system_utility(x)` — the scalar J*(X) of Eq. 24 with the CRA optimum
//    folded in (Eq. 23). This is the objective every scheduler maximizes and
//    the quantity the paper's figures plot ("average system utility"). It is
//    the hot path of the annealer.
//  * `evaluate(x)` — full per-user outcomes (delay, energy, rate, J_u) plus
//    the materialized resource allocation; used by reports, Fig. 9, and the
//    examples.
//
// The two agree by construction: J*(X) == sum_u lambda_u * J_u(X, F*(X));
// a property test pins this equivalence.
#pragma once

#include <cstddef>
#include <vector>

#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/cra.h"
#include "jtora/rate.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// Per-user outcome under a decision X and the optimal allocation F*(X).
struct UserOutcome {
  bool offloaded = false;
  bool forwarded = false;    ///< Edge server relays the task to the cloud.
  LinkMetrics link;          ///< SINR / rate / upload time / tx energy.
  double exec_s = 0.0;       ///< t_execute^u = w_u / f*_us (Eq. 7).
  double forward_s = 0.0;    ///< Backhaul transfer + latency (0 unless forwarded).
  double total_delay_s = 0.0;///< t_u = upload + execute (Eq. 8); t_local if local.
  double energy_j = 0.0;     ///< E_u (Eq. 9); E_local if local.
  double utility = 0.0;      ///< J_u (Eq. 10); 0 if local.
};

/// Full evaluation of a decision.
struct Evaluation {
  double system_utility = 0.0;  ///< J(X, F*) = sum_u lambda_u J_u (Eq. 11).
  double gain_term = 0.0;       ///< sum_{u in U_off} lambda_u (b_t + b_e).
  double gamma_cost = 0.0;      ///< Gamma(X): uplink cost term of Eq. 19/24.
  double lambda_cost = 0.0;     ///< Lambda(X, F*): compute cost (Eq. 23).
  std::vector<UserOutcome> users;
  CraResult allocation;
};

class UtilityEvaluator {
 public:
  /// Binds to a shared compiled problem (non-owning; `problem` must outlive
  /// this evaluator). Construction is O(1) — all constants and tables are
  /// already compiled.
  explicit UtilityEvaluator(const CompiledProblem& problem);

  /// J*(X) per Eq. 24. Gathers per-sub-channel occupant lists once and
  /// sums each offloaded user's interference over them: O(S*N + U_off*K)
  /// for K co-channel occupants instead of O(U_off * S) occupant() walks.
  [[nodiscard]] double system_utility(const Assignment& x) const;

  /// Full per-user breakdown (computes F*(X) via the CRA closed form).
  [[nodiscard]] Evaluation evaluate(const Assignment& x) const;

  /// J_u of a single user given its link metrics and CPU allocation
  /// (Eq. 10). Exposed for baselines that reason about marginal gains.
  /// `extra_delay_s` adds fixed serial delay to t_u (cloud forwarding).
  [[nodiscard]] double user_utility(std::size_t u, const LinkMetrics& link,
                                    double cpu_hz,
                                    double extra_delay_s = 0.0) const;

  [[nodiscard]] const mec::Scenario& scenario() const noexcept {
    return problem_->scenario();
  }
  [[nodiscard]] const CompiledProblem& problem() const noexcept {
    return *problem_;
  }
  [[nodiscard]] const RateEvaluator& rates() const noexcept { return rate_; }
  [[nodiscard]] const CraSolver& cra() const noexcept { return cra_; }

 private:
  const CompiledProblem* problem_;
  RateEvaluator rate_;
  CraSolver cra_;
};

}  // namespace tsajs::jtora
