// Streaming scheduler service: event-driven arrivals, admission control,
// checkpoint/resume.
//
// sim::DynamicSimulator advances a fixed-epoch batch timeline: every epoch
// re-draws the whole population's activity and solves once. A deployed MEC
// controller instead runs as a *service*: tasks arrive one by one (Poisson),
// hold their resources for a bounded lifetime, and depart; the controller
// re-optimizes on every change of the active set, under an anytime solve
// budget, and must reject or queue work when the grid saturates.
// `StreamDriver` provides that loop as a library feature:
//
//   * arrivals  — a Poisson process of rate `arrival_rate_hz`; each arrival
//     draws a position, a task (size/load from the grid's task ranges) and
//     a service lifetime, all from its *own* derived RNG stream;
//   * admission — an arrival is admitted while the active-session count is
//     below capacity (available slots plus a cloud bonus; see
//     admission_capacity), queued FIFO into a bounded backlog when not, and
//     rejected when the backlog is full;
//   * departures — an admitted session departs `lifetime` seconds after
//     admission, freeing its resources and promoting queued sessions;
//   * decisions — every change of the active set triggers one solve of the
//     current snapshot through the unified algo::SolveRequest API, warm-
//     started from the carried slots of surviving sessions and capped by
//     the configured SolveBudget;
//   * faults    — the FaultInjector's epoch schedule advances on a fixed
//     `fault_interval_s` tick;
//   * checkpoints — every `checkpoint_interval_s` the full mutable state
//     (counters, sessions, backlog, fault step count) is emitted; a run
//     resumed from a checkpoint re-derives every RNG stream from
//     (seed, stream tag, ordinal) and therefore replays the remaining
//     timeline bit-identically.
//
// Determinism is the load-bearing property. All randomness is derived by
// the *pure* stream_seed() function — never by Rng::derive_seed, which
// mutates the generator — so any event's draws depend only on (run seed,
// stream tag, event ordinal), not on how much of the run preceded it. The
// same seed therefore reproduces the same event log whether the run went
// straight through or was checkpointed and resumed, and regardless of host
// timing. Wall-clock solve time is observed and reported (latency p50/p99,
// decisions/sec) but never feeds back into the simulation; for the same
// reason StreamConfig forbids wall-clock solve deadlines (iteration budgets
// only).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "algo/scheduler.h"
#include "common/stats.h"
#include "mec/availability.h"
#include "sim/grid.h"

namespace tsajs::sim {

/// Pure derivation of an independent 64-bit seed from (run seed, stream
/// tag, ordinal). Unlike Rng::derive_seed this mutates nothing, so a
/// resumed run can re-derive the exact stream of any future event from
/// counters alone — the foundation of checkpoint bit-identity.
[[nodiscard]] constexpr std::uint64_t stream_seed(std::uint64_t run_seed,
                                                  std::uint64_t tag,
                                                  std::uint64_t index) noexcept {
  SplitMix64 outer(run_seed ^ (tag * 0x9E3779B97F4A7C15ULL));
  SplitMix64 inner(outer.next() + index);
  return inner.next();
}

/// Stream tags for stream_seed (stable; part of the replay contract).
inline constexpr std::uint64_t kArrivalStream = 0xA11ULL;
inline constexpr std::uint64_t kChannelStream = 0xC4AULL;
inline constexpr std::uint64_t kSolveStream = 0x501ULL;
inline constexpr std::uint64_t kFaultStream = 0xFA1ULL;

/// Admission-control policy for the streaming service. The active-session
/// cap is always admission_capacity() under the current mask.
struct AdmissionConfig {
  /// Queued arrivals the backlog holds before rejecting (FIFO).
  std::size_t max_backlog = 16;
};

/// Sessions the grid can serve concurrently under `availability`: the
/// unmasked (server up, slot not blacked out) slot count, plus a cloud
/// bonus when forwarding is possible — some server must be up with a live
/// backhaul; the bonus is the forwarding cap when one is configured, else
/// another full complement of the unmasked slots (every edge slot could in
/// principle forward). This is an *admission* bound, deliberately ignoring
/// interference: it gates entry, it does not promise utility.
[[nodiscard]] std::size_t admission_capacity(std::size_t num_servers,
                                             std::size_t num_subchannels,
                                             const mec::Availability& mask,
                                             bool cloud_enabled,
                                             std::size_t cloud_max_forwarded);

/// Cloud tier, faults and breaker: see GridConfig.
struct StreamConfig : GridConfig {
  /// Simulated horizon [s].
  double duration_s = 60.0;
  /// Poisson arrival rate [1/s].
  double arrival_rate_hz = 1.0;
  /// Service lifetime bounds [s], sampled uniformly per session; the
  /// session departs `lifetime` seconds after *admission*.
  double lifetime_min_s = 5.0;
  double lifetime_max_s = 20.0;
  double fault_interval_s = 1.0;  ///< simulated time per fault step [s]
  /// Per-decision solve budget. Only the deterministic iteration cap is
  /// allowed (max_seconds must be 0): a wall-clock deadline would let host
  /// timing leak into the event log and break replay bit-identity.
  algo::SolveBudget decision_budget;
  /// Periodic checkpoint interval [s]; 0 disables periodic checkpoints.
  double checkpoint_interval_s = 0.0;
  /// Warm-start each decision from the carried slots of surviving
  /// sessions (schedulers without kWarmStart ignore the hint).
  bool warm = true;
  AdmissionConfig admission;

  void validate() const;
  /// FNV-1a over every configuration field's bit pattern, with retired
  /// settings mixed at their fixed values in their old positions; stored in
  /// each checkpoint and in run.json so resume() and recover() can refuse a
  /// mismatched driver.
  [[nodiscard]] std::uint64_t digest() const noexcept;
};

/// Deterministic event log entry. Exactly the fields meaningful for `type`
/// are set; everything here is a pure function of (config, seed), so the
/// serialized log is the replay-identity witness. Wall-clock observations
/// never appear in events (see DecisionRecord).
enum class StreamEventType {
  kFault,       ///< fault state advanced (tie-break rank 0)
  kDepart,      ///< session lifetime expired (rank 1)
  kCheckpoint,  ///< periodic checkpoint emitted (rank 2)
  kArrival,     ///< new session arrived (rank 3)
  kAdmit,       ///< arrival admitted directly
  kQueue,       ///< arrival queued into the backlog
  kReject,      ///< arrival rejected (backlog full)
  kPromote,     ///< queued session admitted after a departure/fault tick
  kSolve,       ///< one scheduling decision solved
};

[[nodiscard]] const char* stream_event_name(StreamEventType type) noexcept;

struct StreamEvent {
  StreamEventType type = StreamEventType::kArrival;
  double sim_time_s = 0.0;
  std::uint64_t session_id = 0;  ///< 0 when not session-scoped
  std::size_t active = 0;        ///< active sessions after the event
  std::size_t backlog = 0;       ///< backlog depth after the event
  // kSolve only.
  std::uint64_t decision = 0;
  std::size_t offloaded = 0;
  std::size_t forwarded = 0;
  double utility = 0.0;
  std::size_t evaluations = 0;
  // kFault only.
  std::size_t servers_down = 0;
  std::size_t backhauls_down = 0;  ///< raw outages (breaker not included)
  std::size_t slots_unavailable = 0;
  /// Backhaul links withheld by the circuit breaker (open + half-open);
  /// 0 when the breaker is disabled.
  std::size_t breakers_open = 0;
  // kCheckpoint only.
  std::uint64_t checkpoint_ordinal = 0;
};

/// Per-decision telemetry row. Unlike StreamEvent this carries wall-clock
/// solve time, so it belongs in metrics (not in the replay-identity log).
struct DecisionRecord {
  std::uint64_t decision = 0;
  double sim_time_s = 0.0;
  std::size_t active = 0;
  std::size_t backlog = 0;
  std::size_t offloaded = 0;
  std::size_t forwarded = 0;
  double utility = 0.0;
  std::size_t evaluations = 0;
  double solve_seconds = 0.0;  ///< wall clock — non-deterministic
};

/// One session's full mutable state, as persisted in a checkpoint.
struct SessionState {
  std::uint64_t id = 0;
  double x = 0.0;
  double y = 0.0;
  double input_bits = 0.0;
  double cycles = 0.0;
  double lifetime_s = 0.0;
  double admit_time_s = 0.0;   ///< active sessions only
  double depart_time_s = 0.0;  ///< active sessions only
  bool has_slot = false;       ///< carried warm-start slot
  std::size_t server = 0;
  std::size_t subchannel = 0;
  bool forwarded = false;
};

/// Everything run_loop needs to continue a run bit-identically: counters
/// that index the derived RNG streams, plus the live session state. The
/// telemetry accumulators are deliberately *not* included — a resumed
/// report covers the resumed segment only; the event log is the identity.
struct StreamCheckpoint {
  std::uint64_t config_digest = 0;
  std::uint64_t seed = 0;
  double sim_time_s = 0.0;
  std::uint64_t next_arrival_index = 0;
  double next_arrival_time_s = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t promoted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t departed = 0;
  std::uint64_t fault_steps = 0;
  std::uint64_t checkpoints_emitted = 0;
  std::vector<SessionState> active;   ///< ascending id
  std::vector<SessionState> backlog;  ///< FIFO order
};

/// Observer of a streaming run. All callbacks fire synchronously from the
/// event loop, in event order; default implementations ignore everything,
/// so a sink overrides only what it records (see sim::EvidenceWriter).
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual void on_event(const StreamEvent& /*event*/) {}
  virtual void on_decision(const DecisionRecord& /*record*/) {}
  virtual void on_checkpoint(const StreamCheckpoint& /*checkpoint*/) {}
};

/// Aggregates over one run (or one resumed segment).
struct StreamReport {
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;  ///< direct admissions (excludes promotions)
  std::uint64_t queued = 0;
  std::uint64_t promoted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t departed = 0;
  std::uint64_t decisions = 0;
  std::uint64_t fault_steps = 0;
  std::uint64_t checkpoints = 0;
  /// Backhaul circuit-breaker transitions within this run/segment (zero
  /// when the breaker is disabled); seed-deterministic like the faults.
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  double sim_time_s = 0.0;
  /// Wall-clock time spent inside the loop (drives decisions_per_sec).
  double wall_seconds = 0.0;
  /// Per-decision samples.
  Accumulator utility;
  Accumulator solve_seconds;
  Accumulator active_sessions;
  Accumulator backlog_depth;
  /// Streaming p50/p99 (P²) of the solve_seconds samples.
  P2Quantile solve_p50{0.5};
  P2Quantile solve_p99{0.99};

  [[nodiscard]] double decisions_per_sec() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(decisions) / wall_seconds
               : 0.0;
  }
  /// Fraction of arrivals admitted immediately (promotions excluded).
  [[nodiscard]] double admit_ratio() const noexcept {
    return arrivals > 0
               ? static_cast<double>(admitted) / static_cast<double>(arrivals)
               : 0.0;
  }
  [[nodiscard]] double reject_ratio() const noexcept {
    return arrivals > 0
               ? static_cast<double>(rejected) / static_cast<double>(arrivals)
               : 0.0;
  }
};

struct RecoveryInfo;  // sim/evidence.h

class StreamDriver {
 public:
  /// An open system on `num_servers` hexagonal cells (see Grid).
  StreamDriver(std::size_t num_servers, std::size_t num_subchannels,
               StreamConfig config = {});

  /// Runs the full horizon from t=0 under `seed`, reporting every event,
  /// decision, and checkpoint to `sink` (may be null).
  [[nodiscard]] StreamReport run(const algo::Scheduler& scheduler,
                                 std::uint64_t seed,
                                 StreamSink* sink = nullptr) const;

  /// Continues a run from `checkpoint` to the end of the horizon. Requires
  /// the checkpoint's config digest to match this driver's configuration
  /// and every carried slot to lie inside this driver's grid; either
  /// mismatch throws before any event is emitted. The remaining event
  /// stream is bit-identical to what the original run emitted after the
  /// checkpoint.
  [[nodiscard]] StreamReport resume(const algo::Scheduler& scheduler,
                                    const StreamCheckpoint& checkpoint,
                                    StreamSink* sink = nullptr) const;

  /// Recovers a crash-interrupted evidence bundle in `run_dir`: repairs the
  /// bundle with prepare_recovery, then resumes from the newest valid
  /// checkpoint (or restarts from t=0 with the seed recorded in run.json)
  /// appending through an EvidenceWriter, so the completed events.jsonl is
  /// byte-identical to an uninterrupted run's. Requires run.json's config
  /// digest, server and sub-channel counts to match this driver and its
  /// scheme to equal scheduler.name(); a mismatch throws before any bundle
  /// file is touched. `info` (optional) receives what the repair found.
  /// Defined in evidence.cpp.
  [[nodiscard]] StreamReport recover(const algo::Scheduler& scheduler,
                                     const std::string& run_dir,
                                     RecoveryInfo* info = nullptr) const;

  [[nodiscard]] const StreamConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return grid_.num_servers();
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return grid_.num_subchannels();
  }

 private:
  [[nodiscard]] StreamReport run_loop(const algo::Scheduler& scheduler,
                                      StreamCheckpoint state,
                                      StreamSink* sink) const;

  StreamConfig config_;
  Grid grid_;
};

}  // namespace tsajs::sim
