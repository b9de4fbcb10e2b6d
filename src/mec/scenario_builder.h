// Scenario construction with the paper's evaluation defaults.
//
// Defaults (Sec. V): S = 9 hexagonal cells with 1 km inter-site distance,
// B = 20 MHz, N = 3 sub-bands, sigma^2 = -100 dBm, p_u = 10 dBm,
// f_s = 20 GHz, f_u^local = 1 GHz, kappa = 5e-27, d_u = 420 KB,
// beta = (0.5, 0.5), lambda_u = 1, path loss 140.7 + 36.7 log10(d[km]) with
// 8 dB log-normal shadowing, users uniform over the network area.
//
// The inter-site distance, bandwidth, noise floor, transmit power, local
// CPU speed, kappa and lambda are fixed at the paper's values; the other
// knobs are settable. `build(rng)` draws one random drop (placement +
// shadowing) and returns an immutable Scenario.
#pragma once

#include <cstddef>
#include <functional>

#include "common/rng.h"
#include "mec/scenario.h"

namespace tsajs::mec {

/// The paper's fixed layout and radio constants (Sec. V), shared by the
/// builder and the online simulators (sim::Grid).
inline constexpr double kInterSiteDistanceM = 1000.0;
inline constexpr double kBandwidthHz = 20e6;
inline constexpr double kNoiseDbm = -100.0;

class ScenarioBuilder {
 public:
  ScenarioBuilder();

  // --- topology -----------------------------------------------------------
  ScenarioBuilder& num_users(std::size_t n);
  ScenarioBuilder& num_servers(std::size_t n);
  ScenarioBuilder& num_subchannels(std::size_t n);

  // --- compute ------------------------------------------------------------
  ScenarioBuilder& server_cpu_hz(double f);

  /// Extension: a cloud tier behind the edge servers, one backhaul rate and
  /// latency for every server (see mec/cloud.h). cpu_hz = 0 keeps the tier
  /// disabled (the paper's two-tier model, the default).
  ScenarioBuilder& cloud(double cpu_hz, double backhaul_bps,
                         double backhaul_latency_s,
                         std::size_t max_forwarded = 0);

  // --- tasks & preferences --------------------------------------------------
  ScenarioBuilder& task_input_kb(double kb);
  ScenarioBuilder& task_megacycles(double mc);
  ScenarioBuilder& beta_time(double b);  // beta_energy := 1 - beta_time

  /// Optional per-user customization hook, applied after defaults and
  /// placement (e.g. heterogeneous tasks in the smart-city example).
  ScenarioBuilder& customize_users(
      std::function<void(std::size_t, UserEquipment&)> fn);

  /// Draws one random drop. Deterministic for a given (settings, rng state).
  [[nodiscard]] Scenario build(Rng& rng) const;

  // --- introspection (used by the experiment harness reports) --------------
  [[nodiscard]] std::size_t num_users() const noexcept { return num_users_; }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return num_subchannels_;
  }
  [[nodiscard]] double task_megacycles() const noexcept {
    return task_megacycles_;
  }
  [[nodiscard]] double task_input_kb() const noexcept {
    return task_input_kb_;
  }

 private:
  std::size_t num_users_ = 30;
  std::size_t num_servers_ = 9;
  std::size_t num_subchannels_ = 3;
  double server_cpu_hz_ = 20e9;
  double task_input_kb_ = 420.0;
  double task_megacycles_ = 1000.0;
  double beta_time_ = 0.5;
  std::function<void(std::size_t, UserEquipment&)> customize_;

  CloudTier cloud_;  ///< disabled unless cloud() set a capacity
};

}  // namespace tsajs::mec
