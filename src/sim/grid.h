// The environment both online loops schedule: sim::DynamicSimulator (epoch
// batch) and sim::StreamDriver (event service) run on hexagonal cells with
// the paper's channel, an optional cloud tier, seeded faults and the
// backhaul breaker. This module holds that environment once:
//
//   * GridConfig — the configuration both loops share; DynamicConfig and
//     StreamConfig derive from it;
//   * the constants both loops share: the task ranges and the cloud
//     tier's backhaul;
//   * Grid — what is fixed for a simulator's lifetime: layout, servers,
//     channel model, spectrum and noise floor;
//   * GridState — one run's mutable environment (workspace with its cloud
//     tier, fault injector, breaker, path-loss cache, compiled problem) and
//     the three policies the loops share: the fault step, the staging path
//     (stage → redraw → compile) and the warm-hint repair.
//
// Each loop keeps its own lifecycle (DynamicSimulator: mobility, arrivals,
// recovery tracking; StreamDriver: sessions, admission, backlog) and packs
// its own algo::SolveRequest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "geo/hex_layout.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "mec/breaker.h"
#include "mec/scenario_workspace.h"
#include "radio/channel.h"
#include "sim/fault.h"

namespace tsajs::sim {

/// Task parameter ranges, sampled uniformly per task [Megacycles, KB].
inline constexpr double kMinMegacycles = 500.0;
inline constexpr double kMaxMegacycles = 4000.0;
inline constexpr double kMinInputKb = 100.0;
inline constexpr double kMaxInputKb = 800.0;
/// Every server's backhaul to the cloud tier, when the tier is enabled.
inline constexpr double kCloudBackhaulBps = 100e6;
inline constexpr double kCloudBackhaulLatencyS = 0.02;

struct GridConfig {
  /// Cloud tier behind the edge (disabled by default). When `cloud_cpu_hz`
  /// is positive every snapshot carries a mec::CloudTier of that capacity
  /// behind a kCloudBackhaulBps / kCloudBackhaulLatencyS backhaul, and
  /// schedulers may forward admitted tasks to the cloud; when zero no cloud
  /// branch runs.
  double cloud_cpu_hz = 0.0;
  std::size_t cloud_max_forwarded = 0;  ///< 0 = unlimited
  /// Fault injection (disabled by default), on the injector's own RNG
  /// stream; when disabled no fault code runs.
  FaultConfig fault;
  /// Per-server backhaul circuit breaker (disabled by default), driven by
  /// the injector's raw backhaul outages: a tripped link is withheld from
  /// forwarding until it proves healthy again (see mec/breaker.h). It is a
  /// counter-driven pure function of the fault schedule and draws nothing.
  mec::BreakerConfig breaker;

  [[nodiscard]] bool has_cloud() const noexcept { return cloud_cpu_hz > 0.0; }
  /// Requires a finite, non-negative cloud capacity and valid fault and
  /// breaker settings.
  void validate() const;
};

/// A user's state carried from the previous solve: the slot it held, if
/// any, and whether it was forwarded to the cloud.
struct CarriedSlot {
  std::optional<jtora::Slot> slot;
  bool forwarded = false;
};

/// The warm-start hint of one snapshot and what repairing it found.
struct RepairedHint {
  /// The repaired assignment; empty when no hint was asked for.
  std::optional<jtora::Assignment> assignment;
  /// Carried slots on a now-unavailable resource; the user enters local.
  std::size_t evictions = 0;
  /// Forwarded users whose slot survives but whose backhaul is down; the
  /// user is recalled to edge-served.
  std::size_t cloud_recalls = 0;
};

class Grid {
 public:
  /// `num_servers` hexagonal cells at the paper's inter-site distance,
  /// with `num_subchannels` sub-channels of its bandwidth and noise floor
  /// (mec/scenario_builder.h). Servers and users take the mec structs'
  /// defaults.
  Grid(std::size_t num_servers, std::size_t num_subchannels);

  [[nodiscard]] std::size_t num_servers() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return spectrum_.num_subchannels();
  }
  [[nodiscard]] const geo::HexLayout& layout() const noexcept {
    return layout_;
  }

 private:
  friend class GridState;

  geo::HexLayout layout_;
  std::vector<mec::EdgeServer> servers_;
  std::vector<geo::Point> bs_positions_;
  radio::ChannelModel channel_;
  radio::Spectrum spectrum_;
  double noise_w_;
};

class GridState {
 public:
  /// A fresh run on `grid` (which must outlive the state) under `config`.
  /// `fault_seed` seeds the injector; it is unused when no fault class is
  /// enabled.
  GridState(const Grid& grid, const GridConfig& config,
            std::uint64_t fault_seed);

  [[nodiscard]] bool faults_enabled() const noexcept {
    return injector_.has_value();
  }
  /// Advances the fault schedule one step: the injector draws the step,
  /// the breaker observes its raw mask, and the scheduler's mask (raw
  /// outages plus the backhauls a breaker withholds) applies to every
  /// snapshot compiled until the next step. Requires faults_enabled().
  void step_faults();
  /// Requires faults_enabled().
  [[nodiscard]] const FaultInjector& injector() const { return *injector_; }
  [[nodiscard]] const mec::BackhaulBreaker& breaker() const noexcept {
    return breaker_;
  }
  /// The scheduler's current availability mask.
  [[nodiscard]] const mec::Availability& mask() const noexcept {
    return workspace_.availability();
  }

  /// Starts staging a snapshot; invalidates the previous one.
  void begin_stage();
  /// Stages one user: a default user with `task` at `position`. `cache_id`
  /// names the user's path-loss cache row, which is reused while the id
  /// presents the same position; `carried` feeds repair_hint().
  void stage(const mec::Task& task, geo::Point position, std::size_t cache_id,
             CarriedSlot carried);
  /// Redraws the staged users' channels from `rng`, then commits and
  /// compiles the snapshot. The problem stays valid until the next
  /// begin_stage().
  const jtora::CompiledProblem& compile(Rng& rng);

  /// Walks the staged users' carried slots against the compiled snapshot,
  /// counting evictions and cloud recalls. With `build`, also returns the
  /// hint: each carried slot that is unmasked and unclaimed is re-claimed,
  /// and its user re-forwarded when the tier still admits it; evicted and
  /// new users stay local.
  [[nodiscard]] RepairedHint repair_hint(bool build) const;

 private:
  const Grid& grid_;
  mec::ScenarioWorkspace workspace_;
  std::optional<FaultInjector> injector_;
  mec::BackhaulBreaker breaker_;
  radio::PathLossCache pathloss_;   ///< keyed by the callers' cache ids
  jtora::CompiledProblem compiled_;  ///< recompiled in place per snapshot
  // Staging buffers, reused snapshot after snapshot.
  std::vector<geo::Point> positions_;
  std::vector<std::size_t> cache_ids_;
  std::vector<CarriedSlot> carried_;
};

}  // namespace tsajs::sim
