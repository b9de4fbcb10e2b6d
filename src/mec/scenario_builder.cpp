#include "mec/scenario_builder.h"

#include "common/error.h"
#include "common/units.h"
#include "geo/hex_layout.h"
#include "radio/channel.h"

namespace tsajs::mec {

namespace {

// The paper's other fixed evaluation constants (Sec. V).
constexpr double kTxPowerDbm = 10.0;
constexpr double kUserCpuHz = 1e9;
constexpr double kKappa = 5e-27;
constexpr double kLambda = 1.0;

}  // namespace

ScenarioBuilder::ScenarioBuilder() = default;

ScenarioBuilder& ScenarioBuilder::num_users(std::size_t n) {
  TSAJS_REQUIRE(n >= 1, "need at least one user");
  num_users_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::num_servers(std::size_t n) {
  TSAJS_REQUIRE(n >= 1, "need at least one server");
  num_servers_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::num_subchannels(std::size_t n) {
  TSAJS_REQUIRE(n >= 1, "need at least one sub-channel");
  num_subchannels_ = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::server_cpu_hz(double f) {
  TSAJS_REQUIRE(f > 0.0, "server CPU capacity must be positive");
  server_cpu_hz_ = f;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cloud(double cpu_hz, double backhaul_bps,
                                        double backhaul_latency_s,
                                        std::size_t max_forwarded) {
  if (cpu_hz == 0.0) {
    cloud_ = CloudTier{};
    return *this;
  }
  TSAJS_REQUIRE(cpu_hz > 0.0, "cloud capacity must be positive");
  TSAJS_REQUIRE(backhaul_bps > 0.0, "backhaul rate must be positive");
  TSAJS_REQUIRE(backhaul_latency_s >= 0.0,
                "backhaul latency must be non-negative");
  cloud_ = CloudTier{cpu_hz, backhaul_bps, backhaul_latency_s, max_forwarded};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::task_input_kb(double kb) {
  TSAJS_REQUIRE(kb > 0.0, "task input size must be positive");
  task_input_kb_ = kb;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::task_megacycles(double mc) {
  TSAJS_REQUIRE(mc > 0.0, "task workload must be positive");
  task_megacycles_ = mc;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::beta_time(double b) {
  TSAJS_REQUIRE(b >= 0.0 && b <= 1.0, "beta_time must lie in [0,1]");
  beta_time_ = b;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::customize_users(
    std::function<void(std::size_t, UserEquipment&)> fn) {
  customize_ = std::move(fn);
  return *this;
}

Scenario ScenarioBuilder::build(Rng& rng) const {
  const geo::HexLayout layout(num_servers_, kInterSiteDistanceM);

  std::vector<EdgeServer> servers(num_servers_);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    servers[s].cpu_hz = server_cpu_hz_;
    servers[s].position = layout.site(s);
  }

  std::vector<UserEquipment> users(num_users_);
  for (std::size_t u = 0; u < num_users_; ++u) {
    UserEquipment& ue = users[u];
    ue.task = Task(units::kilobytes_to_bits(task_input_kb_),
                   units::megacycles_to_cycles(task_megacycles_));
    ue.local_cpu_hz = kUserCpuHz;
    ue.tx_power_w = units::dbm_to_watts(kTxPowerDbm);
    ue.kappa = kKappa;
    ue.beta_time = beta_time_;
    ue.beta_energy = 1.0 - beta_time_;
    ue.lambda = kLambda;
    ue.position = layout.sample_in_network(rng);
    if (customize_) customize_(u, ue);
  }

  const radio::ChannelModel channel = radio::make_paper_channel();

  std::vector<geo::Point> user_positions(num_users_);
  std::vector<geo::Point> bs_positions(num_servers_);
  for (std::size_t u = 0; u < num_users_; ++u) {
    user_positions[u] = users[u].position;
  }
  for (std::size_t s = 0; s < num_servers_; ++s) {
    bs_positions[s] = servers[s].position;
  }
  Matrix3<double> gains =
      channel.generate(user_positions, bs_positions, num_subchannels_, rng);

  return Scenario(std::move(users), std::move(servers),
                  radio::Spectrum(kBandwidthHz, num_subchannels_),
                  units::dbm_to_watts(kNoiseDbm), std::move(gains),
                  Availability{}, cloud_);
}

}  // namespace tsajs::mec
