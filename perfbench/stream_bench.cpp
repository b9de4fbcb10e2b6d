// stream_bench — one workload of the streaming decision-path benchmark.
//
//   stream_bench --workload NAME --seed N --seconds S --trace 0|1
//                --scratch DIR [--spans FILE]
//
// A full pass builds the workload from scratch, runs the ramp and then one
// timed window of S x sim_s_per_second simulated seconds. --trace 0 first
// repeats the set-up alone (construction and ramp, same seed) so that
// setup_s is a median, then runs one untraced full pass and reports its
// window. --trace 1 runs the full pass twice, untraced and traced, and
// derives the per-layer metrics from the traced pass's spans. Every pass
// must give the same ramp digest, and both full passes the same event
// digest, which is the one reported.
//
// Human-readable lines go to stdout; the last line is
// "RESULT {json}" with correct/attempted/failed, the event digest, and the
// metrics as {"name": {"value": v, "unit": u}}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/stats.h"
#include "harness.h"

using namespace perfbench;

namespace {

/// Set-ups timed per --trace 0 run: the full pass's own and the ones before
/// it that stop at the end of the ramp. setup_s is their median, so one
/// set-up caught in a host slow phase does not move it.
constexpr std::size_t kSetups = 3;

/// Wall time between two CPU moves of the benchmark thread: long against
/// the cache refill a move costs, short against the host's slow phases.
constexpr double kRotationPeriodS = 0.25;

/// Peak resident set of this process. VmHWM belongs to the process image,
/// unlike getrusage's ru_maxrss, which survives exec and so reports the
/// launching interpreter's peak when that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw Error("VmHWM missing from /proc/self/status");
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, std::uint32_t digest,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"digest\": \"" << hex32(digest) << "\", \"metrics\": {";
  const char* separator = "";
  for (const Metric& metric : metrics) {
    if (metric.informational) continue;
    os << separator << '"' << metric.name << "\": {\"value\": " << metric.value
       << ", \"unit\": \"" << metric.unit << "\"}";
    separator = ", ";
  }
  os << "}}";
  return os.str();
}

int run(int argc, char** argv) {
  CliParser cli("stream_bench — one workload of the streaming decision-path "
                "benchmark");
  cli.add_flag("workload", "cell_tsajs | city_sharded | faults_durable", "");
  cli.add_flag("seed", "workload seed", "1");
  cli.add_flag("seconds", "target wall time of the timed window [s]", "22");
  cli.add_flag("trace", "0 = end-to-end metrics, 1 = per-layer metrics", "0");
  cli.add_flag("scratch", "parent directory for evidence bundles", "");
  cli.add_flag("spans", "write the traced pass's spans here (CSV)", "");
  if (!cli.parse(argc, argv)) return 0;

  const Workload& workload = find_workload(cli.get_string("workload"));
  const auto seed = static_cast<std::uint64_t>(cli.get_uint("seed"));
  const double seconds = cli.get_double("seconds");
  const auto trace = cli.get_uint("trace");
  TSAJS_REQUIRE(seconds > 0.0 && std::isfinite(seconds),
                "--seconds must be positive");
  TSAJS_REQUIRE(trace <= 1, "--trace must be 0 or 1");
  const std::string scratch = cli.get_string("scratch");
  TSAJS_REQUIRE(!workload.evidence || !scratch.empty(),
                "--scratch is required for evidence workloads");

  const double horizon_s =
      workload.ramp_s + seconds * workload.sim_s_per_second;
  const std::string bundle =
      workload.name + "-" + std::to_string(seed) + "-" +
      std::to_string(static_cast<long>(::getpid()));
  std::printf("workload %s  seed %llu  horizon %.1f simulated s (ramp %.1f)\n",
              workload.name.c_str(), static_cast<unsigned long long>(seed),
              horizon_s, workload.ramp_s);

  CpuRotation rotation(kRotationPeriodS);
  std::printf("rotating over %zu cpus every %.2f s\n", rotation.size(),
              kRotationPeriodS);

  bool correct = true;
  std::vector<PassResult> passes;
  const auto run_one = [&](const char* label, double duration_s,
                           bool traced) -> const PassResult& {
    PassOptions options;
    options.seed = seed;
    options.duration_s = duration_s;
    options.traced = traced;
    options.scratch_dir = scratch;
    options.bundle_name = bundle + "-" + std::to_string(passes.size());
    options.rotation = &rotation;
    passes.push_back(run_pass(workload, options));
    const PassResult& pass = passes.back();
    correct = pass_ok(label, pass) && correct;
    if (pass.ramp_digest != passes.front().ramp_digest) {
      std::printf("CHECK FAILED (%s): ramp digest differs from pass 1\n",
                  label);
      correct = false;
    }
    std::printf("%s pass %zu: ramp digest %s, setup %.4f s", label,
                passes.size(), hex32(pass.ramp_digest).c_str(), pass.setup_s);
    if (duration_s > workload.ramp_s) {
      const std::vector<double> latency_ms = pass.latencies_ms();
      std::printf(", digest %s, %.3f decisions/s, p50 %.4f ms, p95 %.4f ms",
                  hex32(pass.digest).c_str(), pass.decisions_per_s(),
                  quantile(latency_ms, 0.50), quantile(latency_ms, 0.95));
    }
    std::printf("\n");
    return pass;
  };

  std::vector<Metric> metrics;
  if (trace == 0) {
    for (std::size_t i = 1; i < kSetups; ++i) {
      run_one("set-up", workload.ramp_s, false);
    }
    const PassResult& pass = run_one("untraced", horizon_s, false);
    std::vector<double> setups_s;
    for (const PassResult& p : passes) setups_s.push_back(p.setup_s);
    metrics = end_to_end(pass, setups_s, peak_rss_mib());
  } else {
    run_one("untraced", horizon_s, false);
    run_one("traced", horizon_s, true);
    if (passes[1].digest != passes[0].digest) {
      std::printf("CHECK FAILED: traced digest differs from untraced\n");
      correct = false;
    }
    metrics = per_layer(passes[1], passes[0], workload);
    const auto value = [&](const std::string& name) {
      for (const Metric& m : metrics) {
        if (m.name == name) return m.value;
      }
      throw Error("no metric " + name);
    };
    const double replays = value("radio.regenerate_ms") +
                           value("jtora.compile_ms") + value("jtora.audit_ms");
    std::printf("replays %.4f ms %s driver self time %.4f ms\n", replays,
                replays <= value("sim.driver_self_ms") ? "<=" : ">",
                value("sim.driver_self_ms"));
    const std::string spans_path = cli.get_string("spans");
    if (!spans_path.empty()) write_spans_csv(passes[1].spans, spans_path);
  }
  // Counts, the window and the digest come from the untraced full pass.
  const PassResult& main_pass = trace == 0 ? passes.back() : passes.front();

  std::printf("decisions: %zu timed + %zu warm-up = %llu (StreamReport)\n",
              main_pass.timed(), main_pass.warmup,
              static_cast<unsigned long long>(main_pass.report.decisions));
  const std::uint64_t ops = main_pass.window_arrivals;
  const std::uint64_t failed = main_pass.window_rejects;
  std::printf("  %-22s %llu arrivals offered in the timed window\n", "ops",
              static_cast<unsigned long long>(ops));
  std::printf("  %-22s %llu rejected by admission\n", "failed",
              static_cast<unsigned long long>(failed));
  // failed / ops is the reject ratio; the workloads are sized so that it is
  // 0, which is why it rides in `failed` rather than among the metrics.
  std::printf("  %-22s %.6g ratio (failed / ops)\n", "reject_ratio",
              ops > 0 ? static_cast<double>(failed) / static_cast<double>(ops)
                      : 0.0);
  std::printf("event digest: %s\n", hex32(main_pass.digest).c_str());
  for (const Metric& metric : metrics) std::printf("%s\n", metric.line().c_str());
  std::printf("RESULT %s\n",
              result_json(correct, std::max<std::uint64_t>(1, ops), failed,
                          main_pass.digest, metrics)
                  .c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "stream_bench: %s\n", error.what());
    return 2;
  }
}
