// Computing Resource Allocation (CRA) — paper Sec. IV-A.
//
// For a fixed offloading decision, each server s splits its capacity f_s
// among its users U_s to minimize  sum_{u in U_s} eta_u / f_us  with
// eta_u = lambda_u * beta_u^time * f_u^local  (the coefficient of 1/f_us in
// the weighted-cost V of Eq. 19). The problem is convex (Eq. 21) and the
// KKT conditions give the closed form of the paper's Lemma:
//
//   f*_us = f_s * sqrt(eta_u) / sum_{v in U_s} sqrt(eta_v)        (Eq. 22)
//   Lambda(X, F*) = sum_s (sum_{u in U_s} sqrt(eta_u))^2 / f_s    (Eq. 23)
//
// `solve_numeric` is an independent projected-gradient solver used by the
// test suite to cross-validate the closed form.
//
// With a cloud tier, forwarded users leave their uplink server's pool and
// share the cloud capacity f_cloud instead — the cloud is one more pool
// under the identical closed form (a virtual server), so Eq. 22/23 and the
// epsilon-share/degenerate handling apply unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// eta_u = lambda_u * beta_u^time * f_u^local (paper, below Eq. 19).
[[nodiscard]] double eta(const mec::UserEquipment& user);

/// A computed resource allocation: f[u] > 0 for offloaded users, 0 otherwise.
struct CraResult {
  /// Per-user allocated CPU rate f_us [cycles/s] (index = user).
  std::vector<double> cpu_hz;
  /// The optimal objective Lambda(X, F*) = sum_s sum_u eta_u / f_us.
  double objective = 0.0;
};

class CraSolver {
 public:
  /// Binds to a shared compiled problem (non-owning; `problem` must outlive
  /// this solver). The closed form reads the precompiled sqrt(eta) values.
  explicit CraSolver(const CompiledProblem& problem) : problem_(&problem) {}

  /// Closed-form optimum (Eq. 22/23).
  [[nodiscard]] CraResult solve(const Assignment& x) const;

  /// Just Lambda(X, F*) via Eq. 23, without materializing F. O(U_off).
  [[nodiscard]] double optimal_objective(const Assignment& x) const;

  /// Lambda contribution of a single server under Eq. 23 given the sum of
  /// sqrt(eta) of its users; exposed for incremental evaluators.
  [[nodiscard]] static double server_objective(double sqrt_eta_sum,
                                               double server_cpu_hz);

  /// Projected-gradient reference solver (for validation). Returns the best
  /// feasible allocation found after `iterations` steps.
  [[nodiscard]] CraResult solve_numeric(const Assignment& x,
                                        std::size_t iterations = 20000) const;

  /// Objective value sum_u eta_u / f[u] of an arbitrary feasible allocation.
  [[nodiscard]] double objective_of(const Assignment& x,
                                    const std::vector<double>& cpu_hz) const;

  [[nodiscard]] const CompiledProblem& problem() const noexcept {
    return *problem_;
  }

 private:
  const CompiledProblem* problem_;
};

}  // namespace tsajs::jtora
