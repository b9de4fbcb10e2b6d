// Uplink SINR and achievable-rate evaluation (paper Eqs. 3-5).
//
// For an offloading decision X, user u offloaded to server s on sub-channel
// j experiences interference from every user k offloaded to a *different*
// server r on the *same* sub-channel j:
//
//   gamma_us^j = p_u h_us^j / (sum_{r != s} sum_{k in U_r} x_kr^j p_k h_ks^j
//                              + sigma^2)
//   R_us      = W log2(1 + gamma_us)
//
// Since every user transmits on exactly one sub-channel, the "aggregate SINR
// across sub-bands" of Eq. 4 reduces to the single active sub-band's SINR.
//
// All signal powers come from the shared CompiledProblem table — nothing is
// re-derived from scenario().gain() at query time.
#pragma once

#include <cstddef>

#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// Per-offloaded-user link metrics.
struct LinkMetrics {
  double sinr = 0.0;        ///< gamma_us (linear).
  double rate_bps = 0.0;    ///< R_us = W log2(1 + gamma_us).
  double upload_s = 0.0;    ///< t_upload^u = d_u / R_us.
  double tx_energy_j = 0.0; ///< E_u = p_u * t_upload^u.
};

class RateEvaluator {
 public:
  /// Binds to a shared compiled problem (non-owning; `problem` must outlive
  /// this evaluator).
  explicit RateEvaluator(const CompiledProblem& problem)
      : problem_(&problem) {}

  /// SINR of user `u` on its assigned slot under `x`. Requires `u` to be
  /// offloaded in `x`.
  [[nodiscard]] double sinr(const Assignment& x, std::size_t u) const;

  /// Full link metrics for user `u` (requires `u` offloaded in `x`).
  [[nodiscard]] LinkMetrics link(const Assignment& x, std::size_t u) const;

  [[nodiscard]] const CompiledProblem& problem() const noexcept {
    return *problem_;
  }

 private:
  /// Interference power at server `s` on sub-channel `j` from every user
  /// offloaded in `x` to a server other than `s` on sub-channel `j`,
  /// excluding user `exclude`.
  [[nodiscard]] double interference_w(const Assignment& x, std::size_t s,
                                      std::size_t j,
                                      std::size_t exclude) const;

  const CompiledProblem* problem_;
};

}  // namespace tsajs::jtora
