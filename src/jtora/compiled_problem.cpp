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

  phi_.resize(num_users_);
  psi_.resize(num_users_);
  gain_const_.resize(num_users_);
  gamma_coef_.resize(num_users_);
  time_cost_scale_.resize(num_users_);
  eta_.resize(num_users_);
  sqrt_eta_.resize(num_users_);
  local_time_.resize(num_users_);
  local_energy_.resize(num_users_);
  tx_power_.resize(num_users_);

  for (std::size_t u = 0; u < num_users_; ++u) {
    const mec::UserEquipment& ue = scenario.user(u);
    local_time_[u] = ue.local_time_s();
    local_energy_[u] = ue.local_energy_j();
    time_cost_scale_[u] = ue.lambda * ue.beta_time / local_time_[u];
    // phi_u = lambda_u beta_t d_u / (t_local W), psi_u = lambda_u beta_e d_u
    // / (E_local W)  (paper, below Eq. 19).
    phi_[u] = ue.lambda * ue.beta_time * ue.task.input_bits /
              (local_time_[u] * w);
    psi_[u] = ue.lambda * ue.beta_energy * ue.task.input_bits /
              (local_energy_[u] * w);
    gain_const_[u] = ue.lambda * (ue.beta_time + ue.beta_energy);
    gamma_coef_[u] = phi_[u] + psi_[u] * ue.tx_power_w;
    eta_[u] = jtora::eta(ue);
    sqrt_eta_[u] = std::sqrt(eta_[u]);
    tx_power_[u] = ue.tx_power_w;
  }

  compile_tables(scenario);
  compile_availability(scenario);
  compile_cloud(scenario);
}

void CompiledProblem::compile_availability(const mec::Scenario& scenario) {
  all_available_ = scenario.fully_available();
  if (all_available_) {
    num_available_slots_ = num_servers_ * num_subchannels_;
    server_up_.clear();
    slot_ok_.clear();
    return;
  }
  server_up_.assign(num_servers_, 0);
  slot_ok_.assign(num_servers_ * num_subchannels_, 0);
  num_available_slots_ = 0;
  for (std::size_t s = 0; s < num_servers_; ++s) {
    server_up_[s] = scenario.server_available(s) ? 1 : 0;
    for (std::size_t j = 0; j < num_subchannels_; ++j) {
      const bool ok = scenario.slot_available(s, j);
      slot_ok_[s * num_subchannels_ + j] = ok ? 1 : 0;
      num_available_slots_ += ok ? 1 : 0;
    }
  }
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

void CompiledProblem::compile_cloud(const mec::Scenario& scenario) {
  has_cloud_ = scenario.has_cloud();
  if (!has_cloud_) {
    cloud_cpu_hz_ = 0.0;
    cloud_max_forwarded_ = 0;
    forward_time_.clear();
    backhaul_ok_.clear();
    return;
  }
  const mec::CloudTier& cloud = scenario.cloud();
  cloud_cpu_hz_ = cloud.cpu_hz;
  cloud_max_forwarded_ = cloud.max_forwarded;
  backhaul_ok_.assign(num_servers_, 0);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    backhaul_ok_[s] = scenario.backhaul_available(s) ? 1 : 0;
  }
  // Forwarding delay is channel-independent: a (user, server) table, like
  // signal.
  forward_time_.resize(num_users_ * num_servers_);
  for (std::size_t u = 0; u < num_users_; ++u) {
    const double input_bits = scenario.user(u).task.input_bits;
    double* row = forward_time_.data() + u * num_servers_;
    for (std::size_t s = 0; s < num_servers_; ++s) {
      row[s] = input_bits / cloud.backhaul_bps[s] + cloud.backhaul_latency_s[s];
    }
  }
}

bool CompiledProblem::bitwise_equal(const CompiledProblem& other) const {
  return num_users_ == other.num_users_ &&
         num_servers_ == other.num_servers_ &&
         num_subchannels_ == other.num_subchannels_ &&
         noise_w_ == other.noise_w_ && bandwidth_hz_ == other.bandwidth_hz_ &&
         phi_ == other.phi_ && psi_ == other.psi_ &&
         gain_const_ == other.gain_const_ &&
         gamma_coef_ == other.gamma_coef_ &&
         time_cost_scale_ == other.time_cost_scale_ && eta_ == other.eta_ &&
         sqrt_eta_ == other.sqrt_eta_ && local_time_ == other.local_time_ &&
         local_energy_ == other.local_energy_ &&
         tx_power_ == other.tx_power_ && server_cpu_ == other.server_cpu_ &&
         signal_ == other.signal_ && all_available_ == other.all_available_ &&
         num_available_slots_ == other.num_available_slots_ &&
         server_up_ == other.server_up_ && slot_ok_ == other.slot_ok_ &&
         has_cloud_ == other.has_cloud_ &&
         cloud_cpu_hz_ == other.cloud_cpu_hz_ &&
         cloud_max_forwarded_ == other.cloud_max_forwarded_ &&
         forward_time_ == other.forward_time_ &&
         backhaul_ok_ == other.backhaul_ok_;
}

}  // namespace tsajs::jtora
