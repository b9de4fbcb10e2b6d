// CompiledProblem — one flat, shared compilation of a mec::Scenario.
//
// The paper's decomposition (Eqs. 16-24) makes J*(X) a function of a small
// set of per-user/per-server constants plus the signal table p_u * h_us:
//
//   phi_u  = lambda_u beta_t d_u / (t_local W)      (below Eq. 19)
//   psi_u  = lambda_u beta_e d_u / (E_local W)
//   eta_u  = lambda_u beta_t f_local                (below Eq. 19)
//   gain_u = lambda_u (beta_t + beta_e)             (Eq. 24 gain term)
//
// phi_u and psi_u enter the objective only through the Gamma numerator
// phi_u + psi_u p_u, so that sum is what gets compiled. With a cloud tier a
// forwarded user adds the backhaul delay t_fwd(u) = d_u / r_backhaul + tau
// (mec/cloud.h), one entry per user.
//
// Historically each evaluator derived its own copies (UtilityEvaluator kept
// them private, IncrementalEvaluator re-derived them, RateEvaluator
// re-indexed scenario().gain() on every call). CompiledProblem is the single
// compiled representation they all share: flat SoA arrays, a
// server-contiguous signal table, built once per scenario and read by every
// evaluator and scheme that solves it. It holds only the objective's terms;
// the fault mask, the backhaul state and the cloud tier's capacity and cap
// are read from scenario(), which already answers them.
//
// The compiled values are produced by the exact expressions (same operand
// order) the evaluators historically used inline, so every consumer remains
// bit-identical to the pre-CompiledProblem implementation; golden hexfloat
// tests pin this.
//
// Lifetime: a CompiledProblem holds a pointer to its Scenario and must not
// outlive it. It is immutable through the evaluator-facing API; `compile`
// rebinds it and recomputes every value into the same buffers (the staging
// loop of sim::GridState recompiles one problem per snapshot).
#pragma once

#include <cstddef>
#include <vector>

#include "mec/scenario.h"

namespace tsajs::jtora {

class CompiledProblem {
 public:
  /// Empty shell; `compile` must run before any accessor.
  CompiledProblem() = default;

  /// Compiles `scenario` (equivalent to default-construct + compile).
  explicit CompiledProblem(const mec::Scenario& scenario);

  /// (Re)compiles against `scenario` in place, reusing the internal
  /// buffers; every value is recomputed, exactly as a fresh compile does.
  void compile(const mec::Scenario& scenario);

  [[nodiscard]] bool compiled() const noexcept { return scenario_ != nullptr; }

  [[nodiscard]] const mec::Scenario& scenario() const noexcept {
    return *scenario_;
  }

  // --- dimensions / globals ----------------------------------------------
  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return num_subchannels_;
  }
  [[nodiscard]] double noise_w() const noexcept { return noise_w_; }
  [[nodiscard]] double subchannel_bandwidth_hz() const noexcept {
    return bandwidth_hz_;
  }

  // --- per-user constants (paper, below Eq. 19 / Eq. 24) ------------------
  /// lambda_u * (beta_t + beta_e): the per-user gain term of Eq. 24.
  [[nodiscard]] double gain_const(std::size_t u) const noexcept {
    return gain_const_[u];
  }
  /// phi_u + psi_u * p_u: the numerator of the Gamma term (Eq. 19).
  [[nodiscard]] double gamma_coef(std::size_t u) const noexcept {
    return gamma_coef_[u];
  }
  /// lambda_u * beta_t / t_local: weight of extra delay seconds (cloud
  /// forwarding).
  [[nodiscard]] double time_cost_scale(std::size_t u) const noexcept {
    return time_cost_scale_[u];
  }
  /// eta_u = lambda_u * beta_t * f_local and its square root (Eq. 22/23).
  [[nodiscard]] double eta(std::size_t u) const noexcept { return eta_[u]; }
  [[nodiscard]] double sqrt_eta(std::size_t u) const noexcept {
    return sqrt_eta_[u];
  }
  [[nodiscard]] double local_time_s(std::size_t u) const noexcept {
    return local_time_[u];
  }
  [[nodiscard]] double local_energy_j(std::size_t u) const noexcept {
    return local_energy_[u];
  }
  /// Backhaul transfer + propagation delay for forwarding user u's input to
  /// the cloud: d_u / r_backhaul + tau, the same from every server. Only
  /// valid when scenario().has_cloud().
  [[nodiscard]] double forward_time_s(std::size_t u) const noexcept {
    return forward_time_[u];
  }

  // --- per-server constants ----------------------------------------------
  [[nodiscard]] double server_cpu_hz(std::size_t s) const noexcept {
    return server_cpu_[s];
  }

  // --- flat (user, server) table -----------------------------------------
  // The paper's channel is flat in the sub-channel (mec::Scenario rejects a
  // gain tensor that is not), so h_us^j = h_us and the table has no
  // sub-channel axis: one entry serves every sub-channel of the link.
  /// Received signal power p_u * h_us.
  [[nodiscard]] double signal(std::size_t u, std::size_t s) const noexcept {
    return signal_[u * num_servers_ + s];
  }
  /// Server-contiguous row of `signal` for user u; length num_servers().
  [[nodiscard]] const double* signal_row(std::size_t u) const noexcept {
    return signal_.data() + u * num_servers_;
  }

  /// Bitwise comparison of every compiled array and dimension against
  /// `other` (inf compares equal to inf). Used by
  /// IncrementalEvaluator::self_check to detect a stale cache: compiling a
  /// fresh problem from `scenario()` and comparing must come out equal.
  [[nodiscard]] bool bitwise_equal(const CompiledProblem& other) const;

 private:
  void compile_tables(const mec::Scenario& scenario);

  const mec::Scenario* scenario_ = nullptr;
  std::size_t num_users_ = 0;
  std::size_t num_servers_ = 0;
  std::size_t num_subchannels_ = 0;
  double noise_w_ = 0.0;
  double bandwidth_hz_ = 0.0;

  std::vector<double> gain_const_;
  std::vector<double> gamma_coef_;
  std::vector<double> time_cost_scale_;
  std::vector<double> eta_;
  std::vector<double> sqrt_eta_;
  std::vector<double> local_time_;
  std::vector<double> local_energy_;
  /// Per-user forwarding delay; empty without a cloud tier.
  std::vector<double> forward_time_;
  std::vector<double> server_cpu_;
  std::vector<double> signal_;
};

}  // namespace tsajs::jtora
