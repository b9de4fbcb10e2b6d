// Streaming decision-path benchmark: workloads, the per-decision clock,
// the layer tracer and the metrics.
//
// Every measurement here is taken from outside the libraries, through
// their public entry points only: a sim::StreamSink that timestamps the
// callbacks of each decision, algo::Scheduler decorators around the solve
// (and, for sharded workloads, around the inner per-shard scheme), a sink
// wrapper around sim::EvidenceWriter, and replays of the staging and audit
// kernels on each decision's own scenario. See NOTES.md for the workload
// rationale and the layer shares these produce.
#pragma once

#include <sched.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algo/scheduler.h"
#include "common/matrix.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "radio/channel.h"
#include "sim/stream.h"

namespace perfbench {

using namespace tsajs;

// --- statistics -------------------------------------------------------------

/// "<value> ms (p<pct> of <n> samples)" — a percentile is never printed
/// without the sample count it rests on.
[[nodiscard]] std::string format_percentile(double value_ms, double q,
                                            std::size_t samples);

/// An event digest (common::crc32) as eight hex digits.
[[nodiscard]] std::string hex32(std::uint32_t value);

// --- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  std::size_t servers = 0;
  std::size_t subchannels = 0;
  /// Everything but duration_s, which each run sets from its window.
  sim::StreamConfig config;
  std::string scheme;  ///< registry name: "tsajs" or "sharded:tsajs"
  bool evidence = false;
  /// Simulated warm-up from the empty grid; decisions before it are setup.
  double ramp_s = 0.0;
  /// Simulated seconds the timed window covers per requested wall second.
  /// Fixing the window in simulated time keeps the work — and the event
  /// digest and utility_mean — a pure function of (workload, seed,
  /// seconds); the constant is sized so the window lasts about the
  /// requested time on a 4-vCPU x86 guest.
  double sim_s_per_second = 0.0;

  [[nodiscard]] bool sharded() const noexcept {
    return scheme.rfind("sharded:", 0) == 0;
  }
  [[nodiscard]] bool faults() const noexcept { return config.fault.enabled(); }
};

/// Throws tsajs::InvalidArgumentError naming the known workloads.
[[nodiscard]] const Workload& find_workload(const std::string& name);

// --- tracing ----------------------------------------------------------------

/// One timed interval. `parent` indexes the enclosing span (-1 for a
/// root); `decision` is the ordinal of the decision the span belongs to.
struct Span {
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
  long parent = -1;
  std::uint64_t decision = 0;
  /// Objective evaluations, on solve spans.
  double count = 0.0;
};

/// Span store plus the replays. Single-threaded by design: every workload
/// runs its shard solves on the calling thread.
class Tracer {
 public:
  Tracer(std::uint64_t seed, std::size_t num_subchannels);

  /// Opens a span nested in the innermost open one; returns its index.
  std::size_t open(const char* name);
  void close(std::size_t index, double count = 0.0);

  /// Decision boundaries, driven by DecisionClock. open_decision() starts
  /// the decision span at `start_s`; the ordinal is learned on close.
  void open_decision(double start_s);
  void close_decision(std::uint64_t decision, double end_s);

  /// The outer solve decorator hands over each decision's problem and
  /// result so the replays can run on the decision's own scenario.
  void capture(const jtora::CompiledProblem& problem,
               const jtora::Assignment& result, double utility);

  /// Replays the staging and audit kernels of `decision` (after its span
  /// closed, so their time is not charged to the decision) and checks that
  /// the channel replay reproduced the driver's gains bit for bit and the
  /// audit the reported utility. Returns false on a mismatch.
  bool replay(std::uint64_t decision);

  /// Every span of a finished decision (spans opened after the last
  /// decision closed belong to none and are dropped).
  [[nodiscard]] std::vector<Span> finished_spans() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::optional<std::size_t> decision_span_;
  std::uint64_t seed_;
  std::size_t num_subchannels_;
  radio::ChannelModel channel_;
  std::vector<geo::Point> positions_;
  std::vector<geo::Point> bs_positions_;
  Matrix3<double> gains_;
  jtora::CompiledProblem compiled_;
  const jtora::CompiledProblem* problem_ = nullptr;
  std::optional<jtora::Assignment> result_;
  double utility_ = 0.0;
};

/// Writes spans as CSV (name,start_us,end_us,parent,decision,count).
void write_spans_csv(const std::vector<Span>& spans, const std::string& path);

/// algo::Scheduler decorator recording one span per solve() call. With
/// `capture` set it also hands the decision to Tracer::capture.
class TracedScheduler : public algo::Scheduler {
 public:
  TracedScheduler(std::unique_ptr<algo::Scheduler> inner, Tracer& tracer,
                  const char* span, bool capture);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] algo::ScheduleResult solve(
      const algo::SolveRequest& request) const override;
  [[nodiscard]] std::uint32_t capabilities() const noexcept override;

 private:
  std::unique_ptr<algo::Scheduler> inner_;
  Tracer& tracer_;
  const char* span_;
  bool capture_;
};

/// sim::StreamSink wrapper recording one "sim.evidence" span around every
/// callback into the wrapped sink (the EvidenceWriter).
class TracedSink : public sim::StreamSink {
 public:
  TracedSink(sim::StreamSink& inner, Tracer& tracer);
  void on_event(const sim::StreamEvent& event) override;
  void on_decision(const sim::DecisionRecord& record) override;
  void on_checkpoint(const sim::StreamCheckpoint& checkpoint) override;

 private:
  sim::StreamSink& inner_;
  Tracer& tracer_;
};

// --- host -------------------------------------------------------------------

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step whenever `period_s` of wall time has passed since the last. The
/// host's slow phases come on each vCPU independently: a thread left alone
/// inherits whichever vCPU the kernel picked for the whole run, while a
/// rotating one averages them within the run (NOTES.md has the spreads
/// with and without). With one allowed CPU it does nothing, and a move the
/// kernel refuses is skipped. The destructor restores the original
/// affinity.
class CpuRotation {
 public:
  explicit CpuRotation(double period_s);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Called between decisions with the current process-clock time.
  void tick(double now_s);
  /// The CPUs rotated over.
  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

 private:
  cpu_set_t original_;
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
  double period_s_;
  double due_s_ = 0.0;
};

// --- the per-decision clock -------------------------------------------------

struct DecisionSample {
  std::uint64_t decision = 0;
  double sim_time_s = 0.0;
  /// From the first sink callback after the previous decision to the
  /// return of this decision's on_decision.
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t events = 0;    ///< events reported inside the window
  bool after_fault = false;  ///< the window holds a fault tick
  std::size_t active = 0;
  std::size_t backlog = 0;
  double utility = 0.0;

  [[nodiscard]] double latency_s() const noexcept { return end_s - start_s; }
};

/// Outermost sink of every run: timestamps decisions, digests the event
/// stream (CRC-32 chained over sim::event_to_jsonl lines, newline-terminated
/// — the bytes of events.jsonl), counts arrivals and rejects after the ramp,
/// and forwards every callback to `inner` (may be null). After each
/// decision it ticks `rotation` (may be null).
class DecisionClock : public sim::StreamSink {
 public:
  DecisionClock(sim::StreamSink* inner, double ramp_s, Tracer* tracer,
                CpuRotation* rotation);

  void on_event(const sim::StreamEvent& event) override;
  void on_decision(const sim::DecisionRecord& record) override;
  void on_checkpoint(const sim::StreamCheckpoint& checkpoint) override;

  [[nodiscard]] const std::vector<DecisionSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint32_t digest() const noexcept { return digest_; }
  /// Digest of the events before the ramp ends: every pass of one workload
  /// and seed repeats it, whatever its horizon.
  [[nodiscard]] std::uint32_t ramp_digest() const noexcept {
    return ramp_digest_;
  }
  [[nodiscard]] std::uint64_t window_arrivals() const noexcept {
    return window_arrivals_;
  }
  [[nodiscard]] std::uint64_t window_rejects() const noexcept {
    return window_rejects_;
  }
  [[nodiscard]] bool replays_ok() const noexcept { return replays_ok_; }

 private:
  void touch();

  sim::StreamSink* inner_;
  double ramp_s_;
  Tracer* tracer_;
  CpuRotation* rotation_;
  std::vector<DecisionSample> samples_;
  DecisionSample open_;
  bool window_open_ = false;
  std::uint32_t digest_ = 0;
  std::uint32_t ramp_digest_ = 0;
  std::uint64_t window_arrivals_ = 0;
  std::uint64_t window_rejects_ = 0;
  bool replays_ok_ = true;
};

// --- one pass over a workload -----------------------------------------------

struct PassResult {
  sim::StreamReport report;
  /// Every decision, in order; the first `warmup` precede the window.
  std::vector<DecisionSample> samples;
  std::size_t warmup = 0;
  /// Pass start (before any construction) to the close of the last
  /// warm-up decision.
  double setup_s = 0.0;
  std::uint32_t digest = 0;
  std::uint32_t ramp_digest = 0;
  std::uint64_t window_arrivals = 0;
  std::uint64_t window_rejects = 0;
  bool replays_ok = true;
  /// Evidence workloads: events.jsonl digest on disk, checkpoint re-read.
  bool evidence_ok = true;
  std::uint64_t evidence_bytes = 0;
  std::vector<Span> spans;  ///< traced passes only

  [[nodiscard]] std::size_t timed() const noexcept {
    return samples.size() - warmup;
  }
  /// Latency of every timed decision [ms], in decision order.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  /// Timed decisions / wall time from the first timed decision's start to
  /// the last decision's end.
  [[nodiscard]] double decisions_per_s() const;
};

struct PassOptions {
  std::uint64_t seed = 0;
  /// Simulated horizon: the ramp plus the timed window, or the ramp alone
  /// for a pass that only repeats the set-up.
  double duration_s = 0.0;
  bool traced = false;
  /// Parent of the fresh per-pass evidence bundle directory.
  std::string scratch_dir;
  std::string bundle_name;
  /// Moves the thread between decisions; null leaves it where it is.
  CpuRotation* rotation = nullptr;
};

/// Runs one pass: builds the scheduler (decorated when traced), the driver
/// and the sink chain, runs the horizon and checks the evidence bundle
/// (which it then deletes). Throws when the bundle directory cannot be
/// created.
[[nodiscard]] PassResult run_pass(const Workload& workload,
                                  const PassOptions& options);

/// Pass-level correctness: the counting identity (warm-up + timed
/// decisions == StreamReport::decisions), the evidence bundle, the replays
/// and finite utilities. Prints one "CHECK FAILED" line per violation.
[[nodiscard]] bool pass_ok(const char* label, const PassResult& pass);

// --- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Replaces the plain value when printed (percentiles: sample count).
  std::string note;
  /// Printed but left out of the JSON result (and so out of the gate).
  bool informational = false;

  /// "  <name> <value> <unit>" or "  <name> <note>".
  [[nodiscard]] std::string line() const;
};

/// The end-to-end metrics of a run: the timings and utility_mean of the
/// untraced `pass`'s timed window, setup_s the median of `setups_s` (the
/// set-up of every pass of the run), `peak_rss_mib` the process's.
[[nodiscard]] std::vector<Metric> end_to_end(
    const PassResult& pass, const std::vector<double>& setups_s,
    double peak_rss_mib);

/// The per-layer metrics of a traced pass; `untraced` is the same horizon
/// measured without tracing (for trace.overhead_pct). Layers the workload
/// does not have read 0 and are printed as absent.
[[nodiscard]] std::vector<Metric> per_layer(const PassResult& traced,
                                            const PassResult& untraced,
                                            const Workload& workload);

}  // namespace perfbench
