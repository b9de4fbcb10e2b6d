// Resource availability mask — which servers and (server, sub-channel)
// slots can currently serve offloaded tasks.
//
// The paper evaluates fully healthy snapshots; a deployed MEC controller
// sees edge servers crash and sub-channels black out. `Availability`
// captures that state as a mask over the scheduling grid:
//
//   * a *down server* contributes zero capacity — every one of its slots is
//     unassignable;
//   * a *blacked-out slot* (s, j) is individually unassignable while the
//     server keeps serving its other sub-channels;
//   * a *down backhaul* severs server s's link to the cloud tier — tasks can
//     still be edge-served on s, but not forwarded (see mec/cloud.h).
//
// A default-constructed Availability is *unconstrained*: it carries no
// storage, matches any grid, and reports everything available — so the
// healthy path costs nothing and stays bit-identical to the pre-fault code.
// Constrained masks are produced by sim::FaultInjector (or by hand in
// tests) and travel with the mec::Scenario into jtora::CompiledProblem and
// jtora::Assignment, which enforce "never assign to a masked slot" by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace tsajs::mec {

class Availability {
 public:
  /// Unconstrained: matches any grid, everything available, no storage.
  Availability() = default;

  /// A fully healthy mask for an S x N grid (constrain with fail_server /
  /// block_slot).
  Availability(std::size_t num_servers, std::size_t num_subchannels)
      : num_servers_(num_servers),
        num_subchannels_(num_subchannels),
        server_up_(num_servers, 1),
        slot_ok_(num_servers * num_subchannels, 1),
        backhaul_up_(num_servers, 1) {
    TSAJS_REQUIRE(num_servers >= 1 && num_subchannels >= 1,
                  "availability mask needs a non-empty grid");
  }

  /// True for the default-constructed mask (no constraints, any grid).
  [[nodiscard]] bool unconstrained() const noexcept {
    return server_up_.empty();
  }

  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return num_subchannels_;
  }

  void fail_server(std::size_t s) { server_up_[require_server(s)] = 0; }
  void restore_server(std::size_t s) { server_up_[require_server(s)] = 1; }
  void block_slot(std::size_t s, std::size_t j) {
    slot_ok_[require_slot(s, j)] = 0;
  }
  void restore_slot(std::size_t s, std::size_t j) {
    slot_ok_[require_slot(s, j)] = 1;
  }
  void fail_backhaul(std::size_t s) { backhaul_up_[require_server(s)] = 0; }

  [[nodiscard]] bool server_available(std::size_t s) const {
    if (unconstrained()) return true;
    return server_up_[require_server(s)] != 0;
  }

  /// A slot is available iff its server is up and the slot itself is not
  /// blacked out.
  [[nodiscard]] bool slot_available(std::size_t s, std::size_t j) const {
    if (unconstrained()) return true;
    return server_up_[require_server(s)] != 0 &&
           slot_ok_[require_slot(s, j)] != 0;
  }

  /// True when server s's cloud backhaul link is up. A down backhaul only
  /// blocks forwarding; the server's slots stay assignable, so this state
  /// is deliberately *not* part of all_available() (the slot fast paths
  /// must keep treating backhaul-only faults as fully available).
  [[nodiscard]] bool backhaul_available(std::size_t s) const {
    if (unconstrained()) return true;
    return backhaul_up_[require_server(s)] != 0;
  }

  /// True when no *slot* resource is masked (also true for unconstrained
  /// masks). Backhaul state is excluded — see backhaul_available().
  [[nodiscard]] bool all_available() const noexcept {
    for (const auto up : server_up_) {
      if (up == 0) return false;
    }
    for (const auto ok : slot_ok_) {
      if (ok == 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t num_servers_down() const noexcept {
    std::size_t down = 0;
    for (const auto up : server_up_) down += (up == 0) ? 1 : 0;
    return down;
  }

  [[nodiscard]] std::size_t num_backhauls_down() const noexcept {
    std::size_t down = 0;
    for (const auto up : backhaul_up_) down += (up == 0) ? 1 : 0;
    return down;
  }

  /// Count of unassignable slots (down servers' slots plus blackouts).
  [[nodiscard]] std::size_t num_unavailable_slots() const noexcept {
    if (unconstrained()) return 0;
    std::size_t masked = 0;
    for (std::size_t s = 0; s < num_servers_; ++s) {
      for (std::size_t j = 0; j < num_subchannels_; ++j) {
        if (server_up_[s] == 0 || slot_ok_[s * num_subchannels_ + j] == 0) {
          ++masked;
        }
      }
    }
    return masked;
  }

  /// True when this mask can constrain an S x N grid (unconstrained masks
  /// match everything).
  [[nodiscard]] bool matches_grid(std::size_t num_servers,
                                  std::size_t num_subchannels) const noexcept {
    return unconstrained() || (num_servers_ == num_servers &&
                               num_subchannels_ == num_subchannels);
  }

  friend bool operator==(const Availability&, const Availability&) = default;

 private:
  [[nodiscard]] std::size_t require_server(std::size_t s) const {
    TSAJS_REQUIRE(s < num_servers_, "availability server index out of range");
    return s;
  }
  [[nodiscard]] std::size_t require_slot(std::size_t s, std::size_t j) const {
    TSAJS_REQUIRE(s < num_servers_ && j < num_subchannels_,
                  "availability slot index out of range");
    return s * num_subchannels_ + j;
  }

  std::size_t num_servers_ = 0;
  std::size_t num_subchannels_ = 0;
  std::vector<std::uint8_t> server_up_;
  std::vector<std::uint8_t> slot_ok_;
  std::vector<std::uint8_t> backhaul_up_;
};

}  // namespace tsajs::mec
