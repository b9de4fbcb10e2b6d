// Dynamic (multi-epoch) MEC simulation.
//
// The paper evaluates static snapshots: one drop, one solve. A deployed
// scheduler re-runs on every scheduling epoch as tasks arrive and users
// move. This module provides that loop as a library feature:
//
//   epoch e: 1. each user moves one kMobilityStepM random-walk step inside
//               the network,
//            2. each user draws a task with probability `activity_prob`
//               (task size/load sampled from the grid's task ranges),
//            3. channel gains are re-drawn for the new geometry,
//            4. the scheduler solves the snapshot of *active* users,
//            5. per-epoch utility / delay / energy / runtime are recorded.
//
// Everything is driven by one caller-supplied Rng, so a whole simulated
// timeline is reproducible from a single seed.
//
// Each epoch stages its snapshot through a sim::GridState (sim/grid.h):
// the user vector and gain tensor stay allocated across epochs, channel
// gains are re-drawn in place with a path-loss cache, one
// jtora::CompiledProblem is re-compiled in place, and with WarmStart::kWarm
// the previous epoch's assignment is repaired (inactive users dropped,
// their slots released, newly active users entering local) and handed to
// the scheduler as a warm-start hint.
// The environment RNG stream is identical in both modes and identical to
// the original allocate-per-epoch implementation, so cold runs are
// bit-for-bit reproductions of the historical behavior and warm-vs-cold is
// a paired comparison over the same timeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/scheduler.h"
#include "common/stats.h"
#include "sim/grid.h"

namespace tsajs::sim {

/// Per-epoch random-walk step [m]: each user moves this far in a uniform
/// direction; a step leaving the network is retried.
inline constexpr double kMobilityStepM = 30.0;

/// Cloud tier, faults and breaker: see GridConfig.
struct DynamicConfig : GridConfig {
  std::size_t epochs = 50;
  /// Probability that a user has a task to schedule in a given epoch.
  double activity_prob = 0.6;

  /// Also requires a valid GridConfig.
  void validate() const;
};

/// How each epoch's solve is seeded.
enum class WarmStart {
  /// Every epoch solves from scratch (the scheduler's own initialisation).
  kCold,
  /// The previous epoch's assignment, repaired for the new active set, is
  /// passed as a hint; schedulers with the Scheduler::kWarmStart capability
  /// resume from it, others silently fall back to a cold solve.
  kWarm,
};

/// Outcome of one scheduling epoch.
struct EpochStats {
  std::size_t active_users = 0;
  std::size_t offloaded = 0;
  std::size_t forwarded = 0;  ///< offloaded users forwarded to the cloud
  double utility = 0.0;
  double mean_delay_s = 0.0;   ///< over active users
  double mean_energy_j = 0.0;  ///< over active users
  double solve_seconds = 0.0;
  // Degradation telemetry (all zero/false when faults are disabled).
  bool faulted = false;  ///< any outage or blackout this epoch
  std::size_t servers_down = 0;
  std::size_t backhauls_down = 0;  ///< cloud backhaul links currently down
  std::size_t slots_unavailable = 0;  ///< masked slots (outages + blackouts)
  /// Active users whose previous-epoch slot sat on a now-unavailable
  /// resource; they degrade to local (warm) or must be re-placed (cold).
  std::size_t evictions = 0;
  /// Active users forwarded last epoch whose server's backhaul is now down;
  /// warm repair recalls them to edge-served before the solve.
  std::size_t cloud_recalls = 0;
  /// Backhaul links withheld by the circuit breaker this epoch (open +
  /// half-open); 0 when the breaker is disabled. Counted on top of
  /// `backhauls_down`, which keeps reporting the *raw* outage count.
  std::size_t breakers_open = 0;
};

/// Aggregates over a full run. The accumulators aggregate *scheduled*
/// (non-empty) epochs only, so utility / offload_ratio / mean_delay_s /
/// mean_energy_j / solve_seconds all hold the same sample count; epochs in
/// which no task arrived are counted in `empty_epochs` and appear in
/// `epochs` as all-zero entries.
struct DynamicReport {
  std::vector<EpochStats> epochs;
  std::size_t empty_epochs = 0;
  Accumulator utility;
  Accumulator offload_ratio;
  Accumulator mean_delay_s;
  Accumulator mean_energy_j;
  Accumulator solve_seconds;
  // Degradation metrics (empty/zero when faults are disabled). The utility
  // accumulators split the `utility` samples by epoch fault state, so
  // `healthy_utility.mean() - faulted_utility.mean()` is the utility drop
  // during outages.
  std::size_t faulted_epochs = 0;  ///< epochs with any active fault
  std::size_t total_evictions = 0;
  std::size_t total_forwarded = 0;     ///< cloud-forwarded placements, summed
  std::size_t total_cloud_recalls = 0; ///< dead-backhaul recalls, summed
  Accumulator healthy_utility;  ///< scheduled epochs with no active fault
  Accumulator faulted_utility;  ///< scheduled epochs with an active fault
  /// Scheduled healthy epochs needed after an outage clears until utility
  /// first re-reaches its pre-outage level; one sample per completed
  /// recovery (an outage the run ends inside contributes none).
  Accumulator epochs_to_recover;
  /// Backhaul circuit-breaker transition totals over the run (all zero when
  /// the breaker is disabled); seed-deterministic like the fault schedule.
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
};

class DynamicSimulator {
 public:
  /// `population` users on `num_servers` hexagonal cells (see Grid).
  DynamicSimulator(std::size_t population, std::size_t num_servers,
                   std::size_t num_subchannels, DynamicConfig config = {});

  /// Runs the timeline, scheduling every epoch with `scheduler`. The warm
  /// policy only changes how solves are *seeded* — the simulated
  /// environment (mobility, arrivals, channels) is identical either way.
  [[nodiscard]] DynamicReport run(const algo::Scheduler& scheduler, Rng& rng,
                                  WarmStart warm = WarmStart::kCold) const;

  [[nodiscard]] const DynamicConfig& config() const noexcept {
    return config_;
  }

 private:
  std::size_t population_;
  DynamicConfig config_;
  Grid grid_;
};

}  // namespace tsajs::sim
