#include "jtora/compiled_problem.h"

#include <cmath>

#include "common/error.h"
#include "jtora/cra.h"

namespace tsajs::jtora {

CompiledProblem::CompiledProblem(const mec::Scenario& scenario) {
  compile(scenario);
}

void CompiledProblem::compile(const mec::Scenario& scenario) {
  scenario_ = &scenario;
  num_users_ = scenario.num_users();
  num_servers_ = scenario.num_servers();
  num_subchannels_ = scenario.num_subchannels();
  noise_w_ = scenario.noise_w();
  const double w = scenario.subchannel_bandwidth_hz();
  bandwidth_hz_ = w;

  server_cpu_.resize(num_servers_);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    server_cpu_[s] = scenario.server(s).cpu_hz;
  }

  gain_const_.resize(num_users_);
  gamma_coef_.resize(num_users_);
  time_cost_scale_.resize(num_users_);
  eta_.resize(num_users_);
  sqrt_eta_.resize(num_users_);
  local_time_.resize(num_users_);
  local_energy_.resize(num_users_);
  const bool cloud = scenario.has_cloud();
  forward_time_.resize(cloud ? num_users_ : 0);

  for (std::size_t u = 0; u < num_users_; ++u) {
    const mec::UserEquipment& ue = scenario.user(u);
    local_time_[u] = ue.local_time_s();
    local_energy_[u] = ue.local_energy_j();
    time_cost_scale_[u] = ue.lambda * ue.beta_time / local_time_[u];
    // phi_u = lambda_u beta_t d_u / (t_local W), psi_u = lambda_u beta_e d_u
    // / (E_local W)  (paper, below Eq. 19).
    const double phi = ue.lambda * ue.beta_time * ue.task.input_bits /
                       (local_time_[u] * w);
    const double psi = ue.lambda * ue.beta_energy * ue.task.input_bits /
                       (local_energy_[u] * w);
    gain_const_[u] = ue.lambda * (ue.beta_time + ue.beta_energy);
    gamma_coef_[u] = phi + psi * ue.tx_power_w;
    eta_[u] = jtora::eta(ue);
    sqrt_eta_[u] = std::sqrt(eta_[u]);
    if (cloud) {
      // Forwarding delay is channel- and server-independent: every server
      // has the same backhaul.
      forward_time_[u] = ue.task.input_bits / scenario.cloud().backhaul_bps +
                         scenario.cloud().backhaul_latency_s;
    }
  }

  compile_tables(scenario);
}

void CompiledProblem::compile_tables(const mec::Scenario& scenario) {
  // Flattened per-(user, server) cache of the received signal power
  // p_u * h_us behind every SINR read. Server-contiguous so co-channel sweeps
  // are linear scans. The scenario's gain tensor is (user, server,
  // sub-channel) row-major, and its constructor rejects a link whose gain
  // varies in j, so sub-channel 0 holds h_us.
  const double* gains = scenario.gains().data().data();
  signal_.resize(num_users_ * num_servers_);
  for (std::size_t u = 0; u < num_users_; ++u) {
    const double p = scenario.user(u).tx_power_w;
    const double* user_gains = gains + u * num_servers_ * num_subchannels_;
    double* row = signal_.data() + u * num_servers_;
    for (std::size_t s = 0; s < num_servers_; ++s) {
      row[s] = p * user_gains[s * num_subchannels_];
    }
  }
}

bool CompiledProblem::bitwise_equal(const CompiledProblem& other) const {
  return num_users_ == other.num_users_ &&
         num_servers_ == other.num_servers_ &&
         num_subchannels_ == other.num_subchannels_ &&
         noise_w_ == other.noise_w_ && bandwidth_hz_ == other.bandwidth_hz_ &&
         gain_const_ == other.gain_const_ &&
         gamma_coef_ == other.gamma_coef_ &&
         time_cost_scale_ == other.time_cost_scale_ && eta_ == other.eta_ &&
         sqrt_eta_ == other.sqrt_eta_ && local_time_ == other.local_time_ &&
         local_energy_ == other.local_energy_ &&
         forward_time_ == other.forward_time_ &&
         server_cpu_ == other.server_cpu_ && signal_ == other.signal_;
}

}  // namespace tsajs::jtora
