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
// Historically each evaluator derived its own copies (UtilityEvaluator kept
// them private, IncrementalEvaluator re-derived them, RateEvaluator
// re-indexed scenario().gain() on every call). CompiledProblem is the single
// compiled representation they all share: flat SoA arrays, a
// server-contiguous signal table, built once per scenario and read by every
// evaluator and scheme that solves it.
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
#include <cstdint>
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

  // --- resource availability (compiled fault masks) -----------------------
  /// True when no server or slot is masked (the healthy common case).
  [[nodiscard]] bool all_available() const noexcept { return all_available_; }
  [[nodiscard]] bool server_available(std::size_t s) const noexcept {
    return all_available_ || server_up_[s] != 0;
  }
  [[nodiscard]] bool slot_available(std::size_t s, std::size_t j) const
      noexcept {
    return all_available_ || slot_ok_[s * num_subchannels_ + j] != 0;
  }
  /// Slots that can actually carry an offloaded task.
  [[nodiscard]] std::size_t num_available_slots() const noexcept {
    return num_available_slots_;
  }

  // --- cloud tier (compiled forwarding terms) -----------------------------
  /// True when the scenario carries an enabled mec::CloudTier.
  [[nodiscard]] bool has_cloud() const noexcept { return has_cloud_; }
  /// Cloud pool capacity f_cloud [Hz] (0 without a tier).
  [[nodiscard]] double cloud_cpu_hz() const noexcept { return cloud_cpu_hz_; }
  /// Cloud admission cap (0 = unlimited).
  [[nodiscard]] std::size_t cloud_max_forwarded() const noexcept {
    return cloud_max_forwarded_;
  }
  /// True when server s can forward to the cloud right now (tier enabled
  /// and backhaul up).
  [[nodiscard]] bool cloud_forwardable(std::size_t s) const noexcept {
    return has_cloud_ && backhaul_ok_[s] != 0;
  }
  /// Backhaul transfer + propagation delay for forwarding user u's input
  /// from server s to the cloud: d_u / r_backhaul(s) + tau(s). Compiled
  /// per (user, server); only valid when has_cloud().
  [[nodiscard]] double forward_time_s(std::size_t u,
                                      std::size_t s) const noexcept {
    return forward_time_[u * num_servers_ + s];
  }

  // --- per-user constants (paper, below Eq. 19 / Eq. 24) ------------------
  [[nodiscard]] double phi(std::size_t u) const noexcept { return phi_[u]; }
  [[nodiscard]] double psi(std::size_t u) const noexcept { return psi_[u]; }
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
  [[nodiscard]] double tx_power_w(std::size_t u) const noexcept {
    return tx_power_[u];
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
  void compile_availability(const mec::Scenario& scenario);
  void compile_cloud(const mec::Scenario& scenario);

  const mec::Scenario* scenario_ = nullptr;
  std::size_t num_users_ = 0;
  std::size_t num_servers_ = 0;
  std::size_t num_subchannels_ = 0;
  double noise_w_ = 0.0;
  double bandwidth_hz_ = 0.0;

  std::vector<double> phi_;
  std::vector<double> psi_;
  std::vector<double> gain_const_;
  std::vector<double> gamma_coef_;
  std::vector<double> time_cost_scale_;
  std::vector<double> eta_;
  std::vector<double> sqrt_eta_;
  std::vector<double> local_time_;
  std::vector<double> local_energy_;
  std::vector<double> tx_power_;
  std::vector<double> server_cpu_;
  std::vector<double> signal_;

  bool all_available_ = true;
  std::size_t num_available_slots_ = 0;
  /// Per-server / per-slot availability (1 = usable); empty when
  /// `all_available_` so the healthy path allocates nothing.
  std::vector<std::uint8_t> server_up_;
  std::vector<std::uint8_t> slot_ok_;

  bool has_cloud_ = false;
  double cloud_cpu_hz_ = 0.0;
  std::size_t cloud_max_forwarded_ = 0;
  /// Per (user, server) forwarding delay [u * num_servers + s]; sub-channel
  /// independent (the backhaul is wired, not radio). Empty without a tier.
  std::vector<double> forward_time_;
  /// Per-server backhaul state (1 = up); empty without a tier.
  std::vector<std::uint8_t> backhaul_ok_;
};

}  // namespace tsajs::jtora
