// Reusable storage for building one Scenario per epoch.
//
// A deployed scheduler re-solves every scheduling epoch, and consecutive
// epochs share almost everything: the server set, the spectrum plan, the
// noise floor, and — capacity-wise — the active-user vector and the
// U×S×N gain tensor. Constructing a fresh `Scenario` from scratch each
// epoch reallocates all of that. `ScenarioWorkspace` keeps those buffers
// alive across epochs:
//
//   ScenarioWorkspace ws(servers, spectrum, noise_w);
//   for each epoch:
//     ws.begin_epoch();                 // reclaims last epoch's buffers
//     ws.users().push_back(...);        // stage the active set
//     channel.regenerate_into(..., ws.gains(), ...);  // redraw in place
//     const mec::Scenario& scenario = ws.commit();    // validated view
//
// `commit` *moves* the staged buffers into the Scenario (no copies) and
// `begin_epoch` moves them back out, so after the first epoch the loop is
// allocation-free in steady state. The committed Scenario is a full,
// validated, immutable instance — schedulers cannot tell it apart from one
// built by hand.
//
// The workspace pairs naturally with a long-lived jtora::CompiledProblem:
// call `compiled.compile(ws.commit())` each epoch and the problem layer
// reuses its flat tables the same way the workspace reuses the scenario
// buffers (sim::GridState's staging path is the canonical loop).
#pragma once

#include <optional>
#include <vector>

#include "common/matrix.h"
#include "mec/scenario.h"
#include "mec/server.h"
#include "mec/user.h"
#include "radio/spectrum.h"

namespace tsajs::mec {

class ScenarioWorkspace {
 public:
  /// Fixes the epoch-invariant parts: server set, spectrum, noise floor.
  ScenarioWorkspace(std::vector<EdgeServer> servers, radio::Spectrum spectrum,
                    double noise_w);

  /// Reclaims the buffers held by the previously committed scenario (if
  /// any), invalidating references to it, and clears the user staging area.
  /// Capacity is retained. Must be called before staging a new epoch.
  void begin_epoch();

  /// The staging area for this epoch's active users. Valid to mutate only
  /// between begin_epoch() and commit().
  [[nodiscard]] std::vector<UserEquipment>& users() noexcept {
    return users_;
  }

  /// The gain tensor to draw this epoch's channels into (typically via
  /// radio::ChannelModel::regenerate_into, which reshapes it). Valid to
  /// mutate only between begin_epoch() and commit().
  [[nodiscard]] Matrix3<double>& gains() noexcept { return gains_; }

  /// Stages the resource availability mask for the next commit(). The mask
  /// persists across epochs until replaced (faults usually span several
  /// epochs); pass a default-constructed Availability to clear it.
  void set_availability(Availability availability) {
    availability_ = std::move(availability);
  }
  [[nodiscard]] const Availability& availability() const noexcept {
    return availability_;
  }

  /// Stages the cloud tier for the next commit(). Like the availability
  /// mask it persists across epochs until replaced (the deployment's cloud
  /// does not come and go per epoch); pass a default-constructed CloudTier
  /// to disable the tier again.
  void set_cloud(const CloudTier& cloud) { cloud_ = cloud; }
  [[nodiscard]] const CloudTier& cloud() const noexcept { return cloud_; }

  /// Builds and validates the Scenario over the staged users/gains. The
  /// returned reference stays valid until the next begin_epoch().
  const Scenario& commit();

  /// True between commit() and the next begin_epoch().
  [[nodiscard]] bool has_scenario() const noexcept {
    return scenario_.has_value();
  }

  [[nodiscard]] const std::vector<EdgeServer>& servers() const noexcept {
    return servers_;
  }
  [[nodiscard]] const radio::Spectrum& spectrum() const noexcept {
    return spectrum_;
  }
  [[nodiscard]] double noise_w() const noexcept { return noise_w_; }

 private:
  std::vector<EdgeServer> servers_;
  radio::Spectrum spectrum_;
  double noise_w_;
  std::vector<UserEquipment> users_;
  Matrix3<double> gains_;
  Availability availability_;
  CloudTier cloud_;
  std::optional<Scenario> scenario_;
};

}  // namespace tsajs::mec
