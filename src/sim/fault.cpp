#include "sim/fault.h"

#include <cmath>

#include "common/error.h"

namespace tsajs::sim {

void FaultConfig::validate() const {
  TSAJS_REQUIRE(std::isfinite(server_mtbf_epochs) && server_mtbf_epochs >= 0.0,
                "server MTBF must be finite and >= 0 (0 disables outages)");
  TSAJS_REQUIRE(server_mtbf_epochs == 0.0 || server_mtbf_epochs >= 1.0,
                "an enabled server MTBF must be at least 1 epoch");
  TSAJS_REQUIRE(std::isfinite(server_mttr_epochs) && server_mttr_epochs >= 1.0,
                "server MTTR must be finite and >= 1 epoch");
  TSAJS_REQUIRE(
      subchannel_blackout_prob >= 0.0 && subchannel_blackout_prob <= 1.0,
      "sub-channel blackout probability must lie in [0,1]");
  TSAJS_REQUIRE(
      std::isfinite(backhaul_mtbf_epochs) && backhaul_mtbf_epochs >= 0.0,
      "backhaul MTBF must be finite and >= 0 (0 disables backhaul outages)");
  TSAJS_REQUIRE(backhaul_mtbf_epochs == 0.0 || backhaul_mtbf_epochs >= 1.0,
                "an enabled backhaul MTBF must be at least 1 epoch");
  TSAJS_REQUIRE(
      std::isfinite(backhaul_mttr_epochs) && backhaul_mttr_epochs >= 1.0,
      "backhaul MTTR must be finite and >= 1 epoch");
}

FaultInjector::FaultInjector(std::size_t num_servers,
                             std::size_t num_subchannels, FaultConfig config,
                             std::uint64_t seed)
    : num_servers_(num_servers),
      num_subchannels_(num_subchannels),
      config_(config),
      rng_(seed),
      // Golden-ratio salt keeps the backhaul substream independent of the
      // main stream while staying a pure function of the caller's seed.
      backhaul_rng_(seed ^ 0x9E3779B97F4A7C15ULL),
      server_down_(num_servers, 0),
      slot_blacked_(num_servers * num_subchannels, 0),
      backhaul_down_(num_servers, 0) {
  TSAJS_REQUIRE(num_servers >= 1 && num_subchannels >= 1,
                "fault injector needs a non-empty grid");
  config_.validate();
}

void FaultInjector::advance_epoch() {
  // Fixed draw order so one seed reproduces one fault schedule: server
  // fail/repair coins (ascending), blackout coins (ascending slots);
  // backhaul fail/repair coins (ascending) on their own substream so
  // enabling them leaves the other schedules untouched. Disabled fault
  // classes draw nothing.
  if (config_.server_mtbf_epochs > 0.0) {
    const double fail_prob = 1.0 / config_.server_mtbf_epochs;
    const double repair_prob = 1.0 / config_.server_mttr_epochs;
    servers_down_ = 0;
    for (std::size_t s = 0; s < num_servers_; ++s) {
      if (server_down_[s] == 0) {
        if (rng_.bernoulli(fail_prob)) server_down_[s] = 1;
      } else if (rng_.bernoulli(repair_prob)) {
        server_down_[s] = 0;
      }
      if (server_down_[s] != 0) ++servers_down_;
    }
  }
  if (config_.subchannel_blackout_prob > 0.0) {
    slots_blacked_out_ = 0;
    for (auto& blacked : slot_blacked_) {
      blacked = rng_.bernoulli(config_.subchannel_blackout_prob) ? 1 : 0;
      if (blacked != 0) ++slots_blacked_out_;
    }
  }
  if (config_.backhaul_mtbf_epochs > 0.0) {
    const double fail_prob = 1.0 / config_.backhaul_mtbf_epochs;
    const double repair_prob = 1.0 / config_.backhaul_mttr_epochs;
    backhauls_down_ = 0;
    for (std::size_t s = 0; s < num_servers_; ++s) {
      if (backhaul_down_[s] == 0) {
        if (backhaul_rng_.bernoulli(fail_prob)) backhaul_down_[s] = 1;
      } else if (backhaul_rng_.bernoulli(repair_prob)) {
        backhaul_down_[s] = 0;
      }
      if (backhaul_down_[s] != 0) ++backhauls_down_;
    }
  }
}

mec::Availability FaultInjector::availability() const {
  if (servers_down_ == 0 && slots_blacked_out_ == 0 && backhauls_down_ == 0) {
    return {};  // unconstrained: keeps the scenario fully available
  }
  mec::Availability mask(num_servers_, num_subchannels_);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    if (backhaul_down_[s] != 0) mask.fail_backhaul(s);
    if (server_down_[s] != 0) mask.fail_server(s);
    for (std::size_t j = 0; j < num_subchannels_; ++j) {
      if (slot_blacked_[s * num_subchannels_ + j] != 0) mask.block_slot(s, j);
    }
  }
  return mask;
}

}  // namespace tsajs::sim
