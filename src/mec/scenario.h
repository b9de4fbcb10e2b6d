// A fully instantiated problem instance.
//
// A `Scenario` is one random "drop": users placed, channel gains drawn,
// all model parameters fixed. Schedulers never mutate it; they only produce
// offloading decisions against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "mec/availability.h"
#include "mec/cloud.h"
#include "mec/server.h"
#include "mec/user.h"
#include "radio/spectrum.h"

namespace tsajs::mec {

class Scenario {
 public:
  /// `gains` must be (users × servers × subchannels) with positive, finite
  /// entries that do not vary across one link's sub-channels.
  /// `availability` masks faulted resources; the default (unconstrained)
  /// mask leaves every server and slot assignable. `cloud` describes the
  /// optional cloud tier behind the edge; the default is disabled (the
  /// paper's two-tier model).
  Scenario(std::vector<UserEquipment> users, std::vector<EdgeServer> servers,
           radio::Spectrum spectrum, double noise_w, Matrix3<double> gains,
           Availability availability = {}, CloudTier cloud = {});

  [[nodiscard]] std::size_t num_users() const noexcept {
    return users_.size();
  }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return spectrum_.num_subchannels();
  }

  [[nodiscard]] const UserEquipment& user(std::size_t u) const;
  [[nodiscard]] const EdgeServer& server(std::size_t s) const;
  [[nodiscard]] const std::vector<UserEquipment>& users() const noexcept {
    return users_;
  }
  [[nodiscard]] const std::vector<EdgeServer>& servers() const noexcept {
    return servers_;
  }

  [[nodiscard]] const radio::Spectrum& spectrum() const noexcept {
    return spectrum_;
  }
  /// Per-sub-band width W = B / N [Hz].
  [[nodiscard]] double subchannel_bandwidth_hz() const noexcept {
    return spectrum_.subchannel_bandwidth_hz();
  }
  /// Background noise power sigma^2 [W] (per sub-band).
  [[nodiscard]] double noise_w() const noexcept { return noise_w_; }

  /// Linear channel power gain h_us^j (the same for every j).
  [[nodiscard]] double gain(std::size_t u, std::size_t s,
                            std::size_t j) const {
    return gains_(u, s, j);
  }
  [[nodiscard]] const Matrix3<double>& gains() const noexcept {
    return gains_;
  }

  /// Total number of offloading "slots" = servers × subchannels.
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return servers_.size() * spectrum_.num_subchannels();
  }

  // --- resource availability (fault masks) --------------------------------
  [[nodiscard]] const Availability& availability() const noexcept {
    return availability_;
  }
  /// True when no resource is masked (the common, healthy case).
  [[nodiscard]] bool fully_available() const noexcept {
    return fully_available_;
  }
  [[nodiscard]] bool server_available(std::size_t s) const {
    return fully_available_ || availability_.server_available(s);
  }
  /// A masked slot is unassignable: jtora::Assignment rejects it by
  /// construction and every scheduler skips it.
  [[nodiscard]] bool slot_available(std::size_t s, std::size_t j) const {
    return fully_available_ || availability_.slot_available(s, j);
  }
  /// Slots that can actually carry an offloaded task.
  [[nodiscard]] std::size_t num_available_slots() const noexcept {
    return num_slots() - availability_.num_unavailable_slots();
  }
  /// Per server, a word with bit j set iff slot (s, j) is available; the
  /// spectrum's cap of 64 sub-channels lets one word hold a server.
  [[nodiscard]] std::vector<std::uint64_t> available_slot_words() const;

  /// Copy of this scenario with `availability` applied (test/tooling
  /// convenience; the dynamic simulator stages masks through
  /// ScenarioWorkspace instead).
  [[nodiscard]] Scenario with_availability(Availability availability) const;

  // --- cloud tier (three-way placement) -----------------------------------
  [[nodiscard]] const CloudTier& cloud() const noexcept { return cloud_; }
  /// True when a cloud tier sits behind the edge (forwarding possible).
  [[nodiscard]] bool has_cloud() const noexcept { return cloud_.enabled(); }
  /// True when server s can currently forward to the cloud: the tier is
  /// enabled and s's backhaul link is up.
  [[nodiscard]] bool backhaul_available(std::size_t s) const {
    return cloud_.enabled() && availability_.backhaul_available(s);
  }
  /// Copy of this scenario with `cloud` applied (test/tooling convenience).
  [[nodiscard]] Scenario with_cloud(CloudTier cloud) const;

 private:
  /// ScenarioWorkspace rebuilds scenarios epoch after epoch; it is allowed
  /// to reclaim the user/gain buffers of a scenario it created (and only
  /// then), so the storage round-trips instead of being reallocated.
  friend class ScenarioWorkspace;

  std::vector<UserEquipment> users_;
  std::vector<EdgeServer> servers_;
  radio::Spectrum spectrum_;
  double noise_w_;
  Matrix3<double> gains_;
  Availability availability_;
  CloudTier cloud_;
  /// Cached `availability_.all_available()` so the hot-path checks stay one
  /// branch in the healthy case (backhaul state is excluded by design).
  bool fully_available_ = true;
};

}  // namespace tsajs::mec
