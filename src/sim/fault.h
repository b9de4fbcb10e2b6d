// Fault injection for the online simulators.
//
// A deployed MEC controller sees edge servers crash and recover, individual
// sub-channels black out, and backhaul links fail. The paper's evaluation
// is fully healthy; `FaultInjector` adds those hazards to both simulators
// (stepped by sim::GridState) as a seeded, reproducible per-epoch schedule:
//
//   * server outages — a geometric MTBF/MTTR model: each epoch an up server
//     fails with probability 1/MTBF and a down server repairs with
//     probability 1/MTTR, so outages last MTTR epochs in expectation;
//   * sub-channel blackouts — each (server, sub-channel) slot is
//     independently unusable for the epoch with a fixed probability;
//   * backhaul outages — the same geometric MTBF/MTTR model applied to each
//     edge server's cloud backhaul link: the server keeps serving, but
//     tasks cannot be forwarded through it while the link is down (only
//     meaningful for cloud-enabled scenarios).
//
// All draws come from the injector's own dedicated RNG streams, seeded once
// by the caller, in a fixed order (servers ascending, then slots ascending;
// backhaul coins ascending on their own substream).
// The simulator's environment stream is never touched, so with faults
// disabled the whole timeline stays bit-identical to the pre-fault
// implementation, and with faults enabled the same seed reproduces the same
// fault schedule for every scheduler under test. Backhaul coins draw from a
// separate substream derived from the same seed, so enabling them never
// reshuffles an existing server/blackout schedule — in any epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mec/availability.h"

namespace tsajs::sim {

struct FaultConfig {
  /// Mean epochs between failures per server (geometric); 0 disables
  /// server outages.
  double server_mtbf_epochs = 0.0;
  /// Mean epochs to repair a down server (geometric); must be >= 1 when
  /// outages are enabled.
  double server_mttr_epochs = 3.0;
  /// Per-epoch probability that an individual (server, sub-channel) slot is
  /// blacked out; 0 disables blackouts.
  double subchannel_blackout_prob = 0.0;
  /// Mean epochs between cloud-backhaul failures per edge server
  /// (geometric); 0 disables backhaul outages. Only affects cloud-enabled
  /// scenarios — a masked backhaul forbids forwarding through that server.
  double backhaul_mtbf_epochs = 0.0;
  /// Mean epochs to repair a down backhaul link (geometric); must be >= 1
  /// when backhaul outages are enabled.
  double backhaul_mttr_epochs = 3.0;

  /// True when any fault class can fire.
  [[nodiscard]] bool enabled() const noexcept {
    return server_mtbf_epochs > 0.0 || subchannel_blackout_prob > 0.0 ||
           backhaul_mtbf_epochs > 0.0;
  }
  void validate() const;
};

class FaultInjector {
 public:
  FaultInjector(std::size_t num_servers, std::size_t num_subchannels,
                FaultConfig config, std::uint64_t seed);

  /// Draws the next epoch's fault state (fixed draw order; see file
  /// comment). Call exactly once per simulated epoch, including epochs in
  /// which no task arrives — outages progress on wall-clock epochs, not on
  /// traffic.
  void advance_epoch();

  /// The availability mask for the current epoch. Returns an
  /// *unconstrained* mask when nothing is down, so healthy epochs keep the
  /// scenario on its fully-available fast paths.
  [[nodiscard]] mec::Availability availability() const;

  /// True when the current epoch has any active fault (outage, blackout
  /// or backhaul outage).
  [[nodiscard]] bool any_fault() const noexcept {
    return servers_down_ > 0 || slots_blacked_out_ > 0 || backhauls_down_ > 0;
  }
  [[nodiscard]] std::size_t servers_down() const noexcept {
    return servers_down_;
  }
  [[nodiscard]] std::size_t slots_blacked_out() const noexcept {
    return slots_blacked_out_;
  }
  [[nodiscard]] std::size_t backhauls_down() const noexcept {
    return backhauls_down_;
  }

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

 private:
  std::size_t num_servers_;
  std::size_t num_subchannels_;
  FaultConfig config_;
  Rng rng_;
  Rng backhaul_rng_;  ///< separate substream; see file comment
  std::vector<std::uint8_t> server_down_;
  std::vector<std::uint8_t> slot_blacked_;
  std::vector<std::uint8_t> backhaul_down_;
  std::size_t servers_down_ = 0;
  std::size_t slots_blacked_out_ = 0;
  std::size_t backhauls_down_ = 0;
};

}  // namespace tsajs::sim
