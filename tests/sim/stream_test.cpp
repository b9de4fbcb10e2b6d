// Streaming scheduler service: replay identity, checkpoint/resume,
// admission control, and the evidence serialization round-trip.
#include "sim/stream.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "common/error.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "radio/channel.h"
#include "sim/evidence.h"

namespace tsajs::sim {
namespace {

/// Captures the deterministic event stream (as serialized lines) plus every
/// checkpoint and the event-index it was taken at.
struct VectorSink : StreamSink {
  std::vector<std::string> lines;
  std::vector<std::pair<StreamCheckpoint, std::size_t>> checkpoints;
  void on_event(const StreamEvent& event) override {
    lines.push_back(event_to_jsonl(event));
  }
  void on_checkpoint(const StreamCheckpoint& checkpoint) override {
    checkpoints.emplace_back(checkpoint, lines.size());
  }
};

StreamConfig small_config() {
  StreamConfig config;
  config.duration_s = 12.0;
  config.arrival_rate_hz = 1.5;
  config.lifetime_min_s = 2.0;
  config.lifetime_max_s = 6.0;
  config.decision_budget.max_iterations = 500;
  config.checkpoint_interval_s = 4.0;
  config.admission.max_backlog = 4;
  return config;
}

TEST(StreamSeed, PureAndStable) {
  // Same inputs, same output — and no hidden state: calling twice with
  // interleaved other derivations changes nothing.
  const std::uint64_t a = stream_seed(42, kArrivalStream, 7);
  (void)stream_seed(42, kSolveStream, 7);
  EXPECT_EQ(stream_seed(42, kArrivalStream, 7), a);
  EXPECT_NE(stream_seed(42, kArrivalStream, 8), a);
  EXPECT_NE(stream_seed(42, kSolveStream, 7), a);
  EXPECT_NE(stream_seed(43, kArrivalStream, 7), a);
}

TEST(StreamDriver, SameSeedReplaysBitIdentically) {
  const StreamDriver driver(4, 3, small_config());
  const auto scheduler = algo::make_scheduler("tsajs");
  VectorSink first;
  VectorSink second;
  const StreamReport r1 = driver.run(*scheduler, 99, &first);
  const StreamReport r2 = driver.run(*scheduler, 99, &second);
  ASSERT_FALSE(first.lines.empty());
  EXPECT_EQ(first.lines, second.lines);
  EXPECT_EQ(r1.decisions, r2.decisions);
  EXPECT_EQ(r1.utility.mean(), r2.utility.mean());  // bitwise

  VectorSink other_seed;
  (void)driver.run(*scheduler, 100, &other_seed);
  EXPECT_NE(first.lines, other_seed.lines);
}

TEST(StreamDriver, ResumeFromCheckpointReplaysTail) {
  const StreamDriver driver(4, 3, small_config());
  const auto scheduler = algo::make_scheduler("tsajs");
  VectorSink full;
  (void)driver.run(*scheduler, 7, &full);
  ASSERT_GE(full.checkpoints.size(), 2u);

  for (const auto& [checkpoint, index] : full.checkpoints) {
    VectorSink resumed;
    (void)driver.resume(*scheduler, checkpoint, &resumed);
    const std::vector<std::string> tail(full.lines.begin() +
                                            static_cast<std::ptrdiff_t>(index),
                                        full.lines.end());
    EXPECT_EQ(resumed.lines, tail)
        << "resume from checkpoint " << checkpoint.checkpoints_emitted
        << " diverged";
  }
}

TEST(StreamDriver, ResumeReplaysFaultScheduleToo) {
  StreamConfig config = small_config();
  config.fault.server_mtbf_epochs = 3.0;
  config.fault.server_mttr_epochs = 2.0;
  config.fault.backhaul_mtbf_epochs = 4.0;
  config.cloud_cpu_hz = 10e9;
  config.cloud_max_forwarded = 2;
  const StreamDriver driver(4, 3, config);
  const auto scheduler = algo::make_scheduler("greedy");
  VectorSink full;
  const StreamReport report = driver.run(*scheduler, 21, &full);
  EXPECT_GT(report.fault_steps, 0u);
  ASSERT_FALSE(full.checkpoints.empty());

  const auto& [checkpoint, index] = full.checkpoints.front();
  VectorSink resumed;
  (void)driver.resume(*scheduler, checkpoint, &resumed);
  const std::vector<std::string> tail(
      full.lines.begin() + static_cast<std::ptrdiff_t>(index),
      full.lines.end());
  EXPECT_EQ(resumed.lines, tail);
}

TEST(StreamDriver, ResumeRefusesMismatchedConfig) {
  const StreamDriver driver(4, 3, small_config());
  const auto scheduler = algo::make_scheduler("greedy");
  VectorSink full;
  (void)driver.run(*scheduler, 7, &full);
  ASSERT_FALSE(full.checkpoints.empty());

  StreamConfig other = small_config();
  other.arrival_rate_hz = 2.0;
  const StreamDriver mismatched(4, 3, other);
  EXPECT_THROW(
      (void)mismatched.resume(*scheduler, full.checkpoints.front().first),
      InvalidArgumentError);
}

TEST(StreamDriver, DeterministicAcrossShardThreadCounts) {
  // Thread count is a pure wall-clock knob: the sharded scheduler's
  // reduction is deterministic, so the whole event log must not move.
  StreamConfig config = small_config();
  config.duration_s = 8.0;
  const StreamDriver driver(4, 3, config);
  algo::RegistryOptions sequential;
  sequential.shard_threads = 1;
  algo::RegistryOptions parallel;
  parallel.shard_threads = 4;
  VectorSink a;
  VectorSink b;
  (void)driver.run(*algo::make_scheduler("sharded:tsajs", sequential), 5, &a);
  (void)driver.run(*algo::make_scheduler("sharded:tsajs", parallel), 5, &b);
  ASSERT_FALSE(a.lines.empty());
  EXPECT_EQ(a.lines, b.lines);
}

TEST(StreamDriver, BoundedBacklogOverflowsIntoRejections) {
  StreamConfig config = small_config();
  config.arrival_rate_hz = 4.0;
  config.lifetime_min_s = 6.0;
  config.lifetime_max_s = 10.0;
  config.admission.max_backlog = 1;
  const StreamDriver driver(1, 2, config);  // 2 slots: saturates at once
  const auto scheduler = algo::make_scheduler("greedy");
  VectorSink sink;
  const StreamReport report = driver.run(*scheduler, 3, &sink);
  EXPECT_GT(report.queued, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.promoted, 0u);  // departures drain the backlog FIFO
  // The capacity is honored at every decision: active never exceeds it.
  EXPECT_LE(report.active_sessions.max(), 2.0);
  EXPECT_EQ(report.arrivals,
            report.admitted + report.queued + report.rejected);
}

// The report's P² sketches see every decision's solve time: the p50/p99
// that summary.md, soak and bench_stream print cover the whole run.
TEST(StreamDriver, SolveTimeSketchesSeeEveryDecision) {
  const StreamDriver driver(4, 3, small_config());
  const auto scheduler = algo::make_scheduler("greedy");
  const StreamReport report = driver.run(*scheduler, 5, nullptr);
  ASSERT_GT(report.decisions, 5u);  // past the sketches' exact warm-up
  EXPECT_EQ(report.solve_p50.count(), report.decisions);
  EXPECT_EQ(report.solve_p99.count(), report.decisions);
  EXPECT_LE(report.solve_seconds.min(), report.solve_p50.value());
  EXPECT_LE(report.solve_p50.value(), report.solve_p99.value());
  EXPECT_LE(report.solve_p99.value(), report.solve_seconds.max());
}

TEST(StreamDriver, ZeroCapacityQueuesEverything) {
  StreamConfig config = small_config();
  config.duration_s = 4.0;
  // One slot with an always-active session: first arrival admits, the
  // rest queue/reject, and no solve ever sees more than one user.
  config.lifetime_min_s = 10.0;
  config.lifetime_max_s = 10.0;
  const StreamDriver driver(1, 1, config);
  const auto scheduler = algo::make_scheduler("greedy");
  const StreamReport report = driver.run(*scheduler, 11, nullptr);
  EXPECT_EQ(report.admitted, 1u);
  EXPECT_EQ(report.active_sessions.max(), 1.0);
}

TEST(AdmissionCapacity, CountsUnmaskedSlotsAndCloudBonus) {
  const mec::Availability healthy;  // unconstrained
  EXPECT_EQ(admission_capacity(4, 3, healthy, false, 0), 12u);
  // Capped cloud adds its forwarding cap; uncapped doubles the edge.
  EXPECT_EQ(admission_capacity(4, 3, healthy, true, 5), 17u);
  EXPECT_EQ(admission_capacity(4, 3, healthy, true, 0), 24u);

  mec::Availability mask(4, 3);
  mask.fail_server(0);  // 3 slots gone
  mask.block_slot(1, 0);
  EXPECT_EQ(admission_capacity(4, 3, mask, false, 0), 8u);

  // All backhauls down: the cloud is unreachable, bonus evaporates even
  // though every slot still serves at the edge.
  mec::Availability no_backhaul(4, 3);
  for (std::size_t s = 0; s < 4; ++s) no_backhaul.fail_backhaul(s);
  EXPECT_EQ(admission_capacity(4, 3, no_backhaul, true, 5), 12u);

  // Every server down: zero capacity regardless of the cloud (forwarding
  // rides through an edge server).
  mec::Availability all_down(4, 3);
  for (std::size_t s = 0; s < 4; ++s) all_down.fail_server(s);
  EXPECT_EQ(admission_capacity(4, 3, all_down, true, 0), 0u);
}

TEST(StreamConfigTest, RejectsNonReplayableSettings) {
  StreamConfig wall_clock = small_config();
  wall_clock.decision_budget.max_seconds = 0.5;
  EXPECT_THROW(wall_clock.validate(), InvalidArgumentError);

  StreamConfig ok = small_config();
  EXPECT_NO_THROW(ok.validate());
  StreamConfig tweaked = small_config();
  tweaked.admission.max_backlog += 1;
  EXPECT_NE(ok.digest(), tweaked.digest());
}

// Every checkpoint and run.json stores the config digest, and resume() and
// recover() refuse a mismatch, so a bundle recovers only under a build that
// mixes the same bits. Pinned values catch a field dropped, moved or mixed
// with another type.
TEST(StreamConfigTest, DigestIsPinned) {
  EXPECT_EQ(StreamConfig{}.digest(), 0xf89ed7f9938e1f75ULL);
  // Every field the digest covers that a caller can set, off its default.
  // The digest does not validate, so the wall-clock budget may be set too.
  StreamConfig tuned;
  tuned.duration_s = 90.0;
  tuned.arrival_rate_hz = 2.5;
  tuned.lifetime_min_s = 3.0;
  tuned.lifetime_max_s = 12.0;
  tuned.cloud_cpu_hz = 40e9;
  tuned.cloud_max_forwarded = 7;
  tuned.fault.server_mtbf_epochs = 40.0;
  tuned.fault.server_mttr_epochs = 4.0;
  tuned.fault.subchannel_blackout_prob = 0.02;
  tuned.fault.backhaul_mtbf_epochs = 20.0;
  tuned.fault.backhaul_mttr_epochs = 5.0;
  tuned.fault_interval_s = 0.5;
  tuned.breaker.trip_after = 2;
  tuned.breaker.cooldown_epochs = 6;
  tuned.breaker.close_after = 3;
  tuned.decision_budget.max_seconds = 0.25;
  tuned.decision_budget.max_iterations = 5000;
  tuned.checkpoint_interval_s = 1.0;
  tuned.warm = false;
  tuned.admission.max_backlog = 64;
  EXPECT_EQ(tuned.digest(), 0xe9342bb3ee5f6a93ULL);
}

/// Backhaul faults plus an aggressive breaker: trip on the first down
/// epoch, probe after two healthy ones. Guarantees transitions whenever the
/// fault schedule produces any backhaul outage.
StreamConfig breaker_config() {
  StreamConfig config = small_config();
  config.duration_s = 24.0;
  config.fault.backhaul_mtbf_epochs = 2.0;
  config.fault.backhaul_mttr_epochs = 2.0;
  config.cloud_cpu_hz = 10e9;
  config.cloud_max_forwarded = 2;
  config.breaker.trip_after = 1;
  config.breaker.cooldown_epochs = 2;
  config.breaker.close_after = 1;
  return config;
}

TEST(StreamDriver, BreakerTransitionsAreSeedDeterministic) {
  const StreamDriver driver(4, 3, breaker_config());
  const auto scheduler = algo::make_scheduler("greedy");
  VectorSink a;
  VectorSink b;
  const StreamReport r1 = driver.run(*scheduler, 33, &a);
  const StreamReport r2 = driver.run(*scheduler, 33, &b);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_GT(r1.breaker_trips, 0u);
  EXPECT_EQ(r1.breaker_trips, r2.breaker_trips);
  EXPECT_EQ(r1.breaker_half_opens, r2.breaker_half_opens);
  EXPECT_EQ(r1.breaker_closes, r2.breaker_closes);
  // kFault lines surface the withheld-link count once the breaker engages.
  bool saw_breakers_open = false;
  for (const std::string& line : a.lines) {
    if (line.find("\"breakers_open\":") != std::string::npos) {
      saw_breakers_open = true;
      break;
    }
  }
  EXPECT_TRUE(saw_breakers_open);
}

TEST(StreamDriver, BreakerConfigDoesNotPerturbDisabledRuns) {
  // The breakers_open field is emitted only when nonzero, so a run with the
  // breaker disabled is byte-identical to one that predates the feature —
  // and enabling the breaker changes the config digest, refusing resume
  // across the flag.
  const StreamConfig off = small_config();
  StreamConfig on = small_config();
  on.breaker.trip_after = 1;
  EXPECT_NE(off.digest(), on.digest());
}

TEST(StreamDriver, BreakerResumeReconstructsMidCooldownState) {
  // Breaker state is not persisted in checkpoints — resume re-derives it by
  // replaying the fault schedule's observations. Every checkpoint,
  // including ones taken while links are open or cooling down, must replay
  // the remaining event stream (with its breakers_open fields) bit-exactly.
  const StreamDriver driver(4, 3, breaker_config());
  const auto scheduler = algo::make_scheduler("greedy");
  VectorSink full;
  const StreamReport report = driver.run(*scheduler, 33, &full);
  ASSERT_GT(report.breaker_trips, 0u);
  ASSERT_FALSE(full.checkpoints.empty());

  for (const auto& [checkpoint, index] : full.checkpoints) {
    VectorSink resumed;
    (void)driver.resume(*scheduler, checkpoint, &resumed);
    const std::vector<std::string> tail(
        full.lines.begin() + static_cast<std::ptrdiff_t>(index),
        full.lines.end());
    EXPECT_EQ(resumed.lines, tail)
        << "breaker resume from checkpoint " << checkpoint.checkpoints_emitted
        << " diverged";
  }
}

TEST(EvidenceTest, CheckpointJsonRoundTripsBitExactly) {
  const StreamDriver driver(4, 3, small_config());
  const auto scheduler = algo::make_scheduler("tsajs");
  VectorSink full;
  (void)driver.run(*scheduler, 7, &full);
  ASSERT_FALSE(full.checkpoints.empty());
  const StreamCheckpoint& original = full.checkpoints.back().first;

  const StreamCheckpoint restored =
      checkpoint_from_json(checkpoint_to_json(original));
  EXPECT_EQ(restored.config_digest, original.config_digest);
  EXPECT_EQ(restored.seed, original.seed);
  EXPECT_EQ(restored.sim_time_s, original.sim_time_s);  // bitwise
  EXPECT_EQ(restored.next_arrival_index, original.next_arrival_index);
  EXPECT_EQ(restored.next_arrival_time_s, original.next_arrival_time_s);
  EXPECT_EQ(restored.decisions, original.decisions);
  EXPECT_EQ(restored.fault_steps, original.fault_steps);
  ASSERT_EQ(restored.active.size(), original.active.size());
  for (std::size_t i = 0; i < original.active.size(); ++i) {
    EXPECT_EQ(restored.active[i].id, original.active[i].id);
    EXPECT_EQ(restored.active[i].x, original.active[i].x);
    EXPECT_EQ(restored.active[i].cycles, original.active[i].cycles);
    EXPECT_EQ(restored.active[i].depart_time_s,
              original.active[i].depart_time_s);
    EXPECT_EQ(restored.active[i].has_slot, original.active[i].has_slot);
    EXPECT_EQ(restored.active[i].server, original.active[i].server);
  }
  ASSERT_EQ(restored.backlog.size(), original.backlog.size());

  // The witness property: resuming from the round-tripped checkpoint is
  // indistinguishable from resuming from the in-memory one.
  VectorSink from_original;
  VectorSink from_restored;
  (void)driver.resume(*scheduler, original, &from_original);
  (void)driver.resume(*scheduler, restored, &from_restored);
  EXPECT_EQ(from_original.lines, from_restored.lines);
}

TEST(EvidenceTest, EventLinesAreCanonical) {
  StreamEvent solve;
  solve.type = StreamEventType::kSolve;
  solve.sim_time_s = 1.5;
  solve.decision = 3;
  solve.active = 2;
  solve.utility = 4.25;
  solve.evaluations = 10;
  const std::string line = event_to_jsonl(solve);
  EXPECT_NE(line.find("\"e\":\"solve\""), std::string::npos);
  EXPECT_NE(line.find("\"t\":\"0x1.8p+0\""), std::string::npos);
  EXPECT_NE(line.find("\"utility\":\"0x1.1p+2\""), std::string::npos);
  EXPECT_EQ(line.find("\"id\""), std::string::npos);  // not session-scoped

  StreamEvent admit;
  admit.type = StreamEventType::kAdmit;
  admit.session_id = 9;
  const std::string admit_line = event_to_jsonl(admit);
  EXPECT_NE(admit_line.find("\"id\":9"), std::string::npos);
  EXPECT_EQ(admit_line.find("utility"), std::string::npos);
}

/// Decorator that checks, before each solve, that the decision's staged
/// gains equal an uncached redraw from (seed, kChannelStream, d), bit for
/// bit — the contract the driver's per-session path-loss cache must keep.
class StagingCheck : public algo::Scheduler {
 public:
  StagingCheck(std::unique_ptr<algo::Scheduler> inner, std::uint64_t seed,
               std::uint64_t first_decision)
      : inner_(std::move(inner)), seed_(seed), decision_(first_decision) {}

  std::string name() const override { return inner_->name(); }
  std::uint32_t capabilities() const noexcept override {
    return inner_->capabilities();
  }

  algo::ScheduleResult solve(const algo::SolveRequest& request) const override {
    const mec::Scenario& scenario = request.problem->scenario();
    std::vector<geo::Point> users;
    for (const mec::UserEquipment& ue : scenario.users()) {
      users.push_back(ue.position);
    }
    std::vector<geo::Point> sites;
    for (const mec::EdgeServer& server : scenario.servers()) {
      sites.push_back(server.position);
    }
    Rng rng(stream_seed(seed_, kChannelStream, decision_++));
    Matrix3<double> redrawn;
    radio::make_paper_channel().regenerate_into(
        users, sites, scenario.num_subchannels(), rng, redrawn);
    const std::vector<double>& staged = scenario.gains().data();
    ++checked;
    if (redrawn.data().size() != staged.size() ||
        std::memcmp(redrawn.data().data(), staged.data(),
                    staged.size() * sizeof(double)) != 0) {
      ++mismatches;
    }
    return inner_->solve(request);
  }

  mutable std::size_t checked = 0;
  mutable std::size_t mismatches = 0;

 private:
  std::unique_ptr<algo::Scheduler> inner_;
  std::uint64_t seed_;
  mutable std::uint64_t decision_;
};

TEST(StreamDriver, StagedGainsMatchAnUncachedRedraw) {
  // Departures recycle path-loss cache ids, fault ticks re-stage without
  // an arrival, and the resume below starts from an empty cache.
  StreamConfig config = small_config();
  config.duration_s = 16.0;
  config.arrival_rate_hz = 2.5;
  config.fault.server_mtbf_epochs = 3.0;
  config.fault.server_mttr_epochs = 2.0;
  config.fault.subchannel_blackout_prob = 0.1;
  config.fault.backhaul_mtbf_epochs = 4.0;
  config.cloud_cpu_hz = 10e9;
  config.cloud_max_forwarded = 2;
  const StreamDriver driver(4, 3, config);
  constexpr std::uint64_t kSeed = 61;

  const StagingCheck full_check(algo::make_scheduler("tsajs"), kSeed, 0);
  VectorSink full;
  const StreamReport report = driver.run(full_check, kSeed, &full);
  // More sessions were admitted than were ever live at once, so cache ids
  // were handed on.
  EXPECT_GT(static_cast<double>(report.admitted + report.promoted),
            report.active_sessions.max());
  EXPECT_GT(report.fault_steps, 0u);
  EXPECT_EQ(full_check.checked, report.decisions);
  EXPECT_EQ(full_check.mismatches, 0u);

  ASSERT_GE(full.checkpoints.size(), 2u);
  const auto& [checkpoint, index] =
      full.checkpoints[full.checkpoints.size() / 2];
  ASSERT_GT(checkpoint.decisions, 0u);
  const StagingCheck resumed_check(algo::make_scheduler("tsajs"), kSeed,
                                   checkpoint.decisions);
  VectorSink resumed;
  const StreamReport tail_report =
      driver.resume(resumed_check, checkpoint, &resumed);
  EXPECT_GT(tail_report.decisions, 0u);
  EXPECT_EQ(resumed_check.checked, tail_report.decisions);
  EXPECT_EQ(resumed_check.mismatches, 0u);
  const std::vector<std::string> tail(
      full.lines.begin() + static_cast<std::ptrdiff_t>(index),
      full.lines.end());
  EXPECT_EQ(resumed.lines, tail);
}

}  // namespace
}  // namespace tsajs::sim
