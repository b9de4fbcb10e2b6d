// soak — the streaming scheduler service, end to end.
//
// Runs sim::StreamDriver as a long-lived service: Poisson task arrivals,
// bounded session lifetimes, admission control with a FIFO backlog, one
// warm-started solve per active-set change, periodic checkpoints — and
// materializes the full evidence bundle (run.json, events.jsonl,
// metrics.csv, checkpoint-<n>.json, summary.md) into --out-dir.
//
//   ./build/examples/soak [--duration S] [--rate HZ] [--seed N]
//                         [--scheme NAME] [--out-dir DIR]
//                         [--checkpoint-interval S] [--budget-iters N]
//                         [--servers S] [--subchannels J]
//                         [--max-backlog B] [--cloud-ghz G] [--cloud-cap C]
//                         [--server-mtbf M] [--server-mttr R]
//                         [--backhaul-mtbf M] [--backhaul-mttr R]
//                         [--breaker-trip N] [--breaker-cooldown N]
//                         [--breaker-close N] [--cold]
//                         [--resume FILE] [--verify-resume]
//                         [--crash-after-events K] [--recover]
//
// --resume FILE continues a checkpointed run (same configuration flags
// required; the checkpoint's config digest is verified). --verify-resume
// runs the whole horizon once with checkpoints, then resumes from the first
// checkpoint in memory and asserts that the resumed event stream is
// byte-identical to the tail of the original events.jsonl — the replay
// guarantee, self-checked (exit 1 on mismatch).
//
// Crash drill: --crash-after-events K SIGKILLs the process immediately
// after the Kth event reaches the evidence sink — no flush, no destructors,
// exactly the torn state a power loss leaves behind. A later invocation
// with the same flags plus --recover repairs the bundle (truncating any
// torn events.jsonl tail to the newest valid checkpoint) and resumes to the
// end of the horizon; the completed events.jsonl is then byte-identical to
// an uninterrupted run's.
#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "common/cli.h"
#include "common/error.h"
#include "sim/evidence.h"
#include "sim/stream.h"

using namespace tsajs;

namespace {

/// Captures the deterministic event stream in memory (for --verify-resume).
struct MemorySink : sim::StreamSink {
  std::vector<std::string> lines;
  void on_event(const sim::StreamEvent& event) override {
    lines.push_back(sim::event_to_jsonl(event));
  }
};

/// Forwards everything to the evidence writer, then SIGKILLs the process
/// right after the Kth event reaches it — no flush, no destructors: the
/// torn on-disk state a power loss leaves behind (--crash-after-events).
struct CrashSink : sim::StreamSink {
  sim::StreamSink* inner = nullptr;
  std::uint64_t remaining = 0;
  void on_event(const sim::StreamEvent& event) override {
    inner->on_event(event);
    if (remaining > 0 && --remaining == 0) (void)std::raise(SIGKILL);
  }
  void on_decision(const sim::DecisionRecord& record) override {
    inner->on_decision(record);
  }
  void on_checkpoint(const sim::StreamCheckpoint& checkpoint) override {
    inner->on_checkpoint(checkpoint);
  }
};

int verify_resume(const sim::StreamDriver& driver,
                  const algo::Scheduler& scheduler, std::uint64_t seed,
                  const std::string& out_dir) {
  // Read the full run's event log back and split it at checkpoint #1.
  std::ifstream events(out_dir + "/events.jsonl");
  TSAJS_REQUIRE(events.good(), "cannot re-read events.jsonl");
  std::vector<std::string> tail;
  bool seen_checkpoint = false;
  std::string line;
  while (std::getline(events, line)) {
    if (seen_checkpoint) {
      tail.push_back(line);
    } else if (line.find("\"e\":\"checkpoint\"") != std::string::npos &&
               line.find("\"ordinal\":1}") != std::string::npos) {
      seen_checkpoint = true;
    }
  }
  if (!seen_checkpoint) {
    std::cerr << "verify-resume: no checkpoint in the run (horizon shorter "
                 "than --checkpoint-interval?)\n";
    return 1;
  }
  (void)seed;
  const sim::StreamCheckpoint checkpoint =
      sim::read_checkpoint_file(out_dir + "/checkpoint-1.json");
  MemorySink resumed;
  (void)driver.resume(scheduler, checkpoint, &resumed);
  if (resumed.lines == tail) {
    std::cout << "verify-resume: OK — " << tail.size()
              << " events after checkpoint 1 replay bit-identically\n";
    return 0;
  }
  std::cerr << "verify-resume: MISMATCH (" << tail.size() << " original vs "
            << resumed.lines.size() << " resumed events)\n";
  const std::size_t n = std::min(tail.size(), resumed.lines.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (tail[i] != resumed.lines[i]) {
      std::cerr << "  first divergence at event " << i << ":\n    orig: "
                << tail[i] << "\n    new:  " << resumed.lines[i] << "\n";
      break;
    }
  }
  return 1;
}

int run(int argc, char** argv) {
  CliParser cli("soak — streaming scheduler service with evidence bundle");
  cli.add_flag("duration", "simulated horizon [s]", "30");
  cli.add_flag("rate", "Poisson arrival rate [1/s]", "2");
  cli.add_flag("seed", "run seed (drives every derived stream)", "17");
  cli.add_flag("scheme", "scheduler scheme name", "tsajs");
  cli.add_flag("out-dir", "evidence bundle directory", "soak-out");
  cli.add_flag("checkpoint-interval",
               "periodic checkpoint interval [s] (0 = horizon/4)", "0");
  cli.add_flag("budget-iters",
               "per-decision evaluation budget (0 = unlimited)", "20000");
  cli.add_flag("servers", "edge servers (hex layout)", "4");
  cli.add_flag("subchannels", "sub-channels per server", "3");
  cli.add_flag("max-backlog", "admission backlog bound", "8");
  cli.add_flag("cloud-ghz", "cloud CPU [GHz] (0 = no cloud tier)", "0");
  cli.add_flag("cloud-cap", "max cloud-forwarded sessions (0 = unlimited)",
               "0");
  cli.add_flag("server-mtbf",
               "server mean time between failures [fault ticks] (0 = none)",
               "0");
  cli.add_flag("server-mttr", "server mean time to repair [fault ticks]",
               "3");
  cli.add_flag("backhaul-mtbf",
               "backhaul mean time between failures [fault ticks] (0 = none)",
               "0");
  cli.add_flag("backhaul-mttr", "backhaul mean time to repair [fault ticks]",
               "2");
  cli.add_flag("breaker-trip",
               "circuit breaker: consecutive down ticks before a backhaul "
               "trips open (0 = breaker disabled)",
               "0");
  cli.add_flag("breaker-cooldown",
               "circuit breaker: open cool-down [fault ticks]", "3");
  cli.add_flag("breaker-close",
               "circuit breaker: consecutive up probes before closing", "1");
  cli.add_switch("cold", "disable warm-start hints between decisions");
  cli.add_flag("resume", "checkpoint file to continue from", "");
  cli.add_switch("verify-resume",
                 "after the run, resume from checkpoint 1 and assert the "
                 "event stream replays bit-identically");
  cli.add_flag("crash-after-events",
               "crash drill: SIGKILL after the Kth event (0 = never)", "0");
  cli.add_switch("recover",
                 "repair a crash-interrupted bundle in --out-dir and resume "
                 "it to the end of the horizon");
  if (!cli.parse(argc, argv)) return 0;

  sim::StreamConfig config;
  config.duration_s = cli.get_double("duration");
  config.arrival_rate_hz = cli.get_double("rate");
  config.decision_budget.max_iterations =
      static_cast<std::size_t>(cli.get_int("budget-iters"));
  config.checkpoint_interval_s = cli.get_double("checkpoint-interval");
  if (config.checkpoint_interval_s <= 0.0) {
    config.checkpoint_interval_s = config.duration_s / 4.0;
  }
  config.warm = !cli.get_bool("cold");
  config.admission.max_backlog =
      static_cast<std::size_t>(cli.get_int("max-backlog"));
  config.cloud_cpu_hz = cli.get_double("cloud-ghz") * 1e9;
  config.cloud_max_forwarded =
      static_cast<std::size_t>(cli.get_int("cloud-cap"));
  config.fault.server_mtbf_epochs = cli.get_double("server-mtbf");
  config.fault.server_mttr_epochs = cli.get_double("server-mttr");
  config.fault.backhaul_mtbf_epochs = cli.get_double("backhaul-mtbf");
  config.fault.backhaul_mttr_epochs = cli.get_double("backhaul-mttr");
  config.breaker.trip_after =
      static_cast<std::size_t>(cli.get_int("breaker-trip"));
  config.breaker.cooldown_epochs =
      static_cast<std::size_t>(cli.get_int("breaker-cooldown"));
  config.breaker.close_after =
      static_cast<std::size_t>(cli.get_int("breaker-close"));

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string scheme = cli.get_string("scheme");
  const std::string out_dir = cli.get_string("out-dir");
  const sim::StreamDriver driver(
      static_cast<std::size_t>(cli.get_int("servers")),
      static_cast<std::size_t>(cli.get_int("subchannels")), config);
  const std::unique_ptr<algo::Scheduler> scheduler =
      algo::make_scheduler(scheme);

  const std::string resume_path = cli.get_string("resume");
  const auto crash_after =
      static_cast<std::uint64_t>(cli.get_int("crash-after-events"));
  sim::StreamReport report;
  if (cli.get_bool("recover")) {
    TSAJS_REQUIRE(resume_path.empty() && crash_after == 0,
                  "--recover excludes --resume and --crash-after-events");
    // recover() repairs the bundle in place and appends through its own
    // evidence writer; constructing one here would truncate the very
    // events.jsonl we are recovering.
    sim::RecoveryInfo info;
    report = driver.recover(*scheduler, out_dir, &info);
    std::cout << "recover: "
              << (info.has_checkpoint()
                      ? "resumed from " + info.checkpoint_path
                      : "no usable checkpoint — restarted from t=0")
              << " (" << info.checkpoints_scanned << " checkpoints scanned, "
              << info.checkpoints_skipped << " skipped; kept "
              << info.events_kept << " events, dropped "
              << info.events_dropped << ")\n";
  } else {
    sim::EvidenceWriter evidence(out_dir);
    evidence.write_run_json(config, driver.num_servers(),
                            driver.num_subchannels(), seed, scheme);
    CrashSink crash;
    crash.inner = &evidence;
    crash.remaining = crash_after;
    sim::StreamSink* sink =
        crash_after > 0 ? static_cast<sim::StreamSink*>(&crash) : &evidence;
    report = resume_path.empty()
                 ? driver.run(*scheduler, seed, sink)
                 : driver.resume(*scheduler,
                                 sim::read_checkpoint_file(resume_path), sink);
    evidence.finish(report, scheme);
  }

  std::cout << "soak: " << report.decisions << " decisions over "
            << report.sim_time_s << " s simulated — " << report.arrivals
            << " arrivals, " << report.admitted << " admitted, "
            << report.queued << " queued, " << report.rejected
            << " rejected, " << report.departed << " departed\n";
  std::cout << "      solve latency p50 "
            << report.solve_p50.value() * 1e3 << " ms, p99 "
            << report.solve_p99.value() * 1e3 << " ms; "
            << report.decisions_per_sec() << " decisions/sec\n";
  if (config.breaker.enabled()) {
    std::cout << "      breaker: " << report.breaker_trips << " trips, "
              << report.breaker_half_opens << " half-opens, "
              << report.breaker_closes << " closes\n";
  }
  std::cout << "      evidence bundle: " << out_dir << "/\n";

  if (cli.get_bool("verify-resume")) {
    TSAJS_REQUIRE(resume_path.empty(),
                  "--verify-resume applies to a fresh run, not --resume");
    return verify_resume(driver, *scheduler, seed, out_dir);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
