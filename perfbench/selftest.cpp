// Self-tests of the benchmark's own measurement code: the percentile and
// rate metrics against a sorted-array reference, the decision counting, the
// printed sample counts, the event digests, the evidence-bundle handling
// and the CPU rotation. They run on a tiny workload, so the suite takes
// well under a second.
#include <sched.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "harness.h"

namespace perfbench {
namespace {

Workload tiny(bool evidence) {
  Workload w;
  w.name = "tiny";
  w.servers = 4;
  w.subchannels = 2;
  w.config.arrival_rate_hz = 2.0;
  w.config.lifetime_min_s = 2.0;
  w.config.lifetime_max_s = 6.0;
  w.config.admission.max_backlog = 4;
  w.config.decision_budget.max_iterations = 300;
  w.scheme = "tsajs";
  w.ramp_s = 4.0;
  if (evidence) {
    w.evidence = true;
    w.config.cloud_cpu_hz = 40e9;
    w.config.fault.server_mtbf_epochs = 5.0;
    w.config.fault.subchannel_blackout_prob = 0.05;
    w.config.fault.backhaul_mtbf_epochs = 4.0;
    w.config.breaker.trip_after = 2;
    w.config.checkpoint_interval_s = 1.0;
  }
  return w;
}

constexpr const char* kScratch = "perfbench_selftest_scratch";

std::string scratch_dir() {
  std::filesystem::create_directories(kScratch);
  return kScratch;
}

class ScratchCleanup : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove_all(kScratch); }
};

const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new ScratchCleanup);

PassResult run_tiny(const Workload& w, bool traced, double duration_s,
                    CpuRotation* rotation = nullptr) {
  PassOptions options;
  options.seed = 11;
  options.duration_s = duration_s;
  options.traced = traced;
  options.scratch_dir = scratch_dir();
  options.bundle_name = traced ? "traced" : "untraced";
  options.rotation = rotation;
  return run_pass(w, options);
}

TEST(Pass, TimedPlusWarmupEqualsReportedDecisions) {
  for (const bool evidence : {false, true}) {
    const Workload w = tiny(evidence);
    const PassResult pass = run_tiny(w, false, 12.0);
    ASSERT_GT(pass.warmup, 0u);
    ASSERT_GT(pass.timed(), 0u);
    EXPECT_EQ(pass.warmup + pass.timed(), pass.report.decisions);
    EXPECT_EQ(pass.samples.size(), pass.report.decisions);
    for (std::size_t i = 0; i < pass.samples.size(); ++i) {
      EXPECT_EQ(pass.samples[i].sim_time_s < w.ramp_s, i < pass.warmup);
      EXPECT_LE(pass.samples[i].start_s, pass.samples[i].end_s);
    }
    EXPECT_TRUE(pass_ok("selftest", pass));
  }
}

/// Sorted-array reference: order statistics at h = q (n - 1), linearly
/// interpolated.
double reference_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double h = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= samples.size()) return samples[lo];
  return samples[lo] +
         (h - static_cast<double>(lo)) * (samples[lo + 1] - samples[lo]);
}

const Metric& find(const std::vector<Metric>& metrics, const std::string& name) {
  const auto it =
      std::find_if(metrics.begin(), metrics.end(),
                   [&](const Metric& m) { return m.name == name; });
  if (it == metrics.end()) throw Error("no metric " + name);
  return *it;
}

TEST(Metrics, EndToEndMatchesSortedReference) {
  const PassResult pass = run_tiny(tiny(false), false, 12.0);
  const std::vector<Metric> metrics = end_to_end(pass, {0.2, 0.1, 0.3}, 1.0);
  // Timed decisions are the ones at or after the ramp.
  std::vector<double> latency_ms;
  double utility = 0.0;
  for (const DecisionSample& s : pass.samples) {
    if (s.sim_time_s < 4.0) continue;
    latency_ms.push_back((s.end_s - s.start_s) * 1e3);
    utility += s.utility;
  }
  ASSERT_EQ(latency_ms.size(), pass.timed());
  for (const auto& [name, q] : {std::pair<std::string, double>{"decision_p50_ms", 0.50},
                                {"decision_p95_ms", 0.95}}) {
    const double expected = reference_quantile(latency_ms, q);
    EXPECT_NEAR(find(metrics, name).value, expected, 1e-12 * expected) << name;
  }
  const double window =
      pass.samples.back().end_s - pass.samples[pass.warmup].start_s;
  EXPECT_EQ(find(metrics, "decisions_per_s").value,
            static_cast<double>(pass.timed()) / window);
  EXPECT_NEAR(find(metrics, "utility_mean").value,
              utility / static_cast<double>(pass.timed()), 1e-12);
  EXPECT_EQ(find(metrics, "setup_s").value, 0.2);  // the median set-up
}

TEST(Metrics, EveryPercentileIsPrintedWithItsSampleCount) {
  const PassResult pass = run_tiny(tiny(false), false, 12.0);
  const std::vector<Metric> metrics = end_to_end(pass, {0.1}, 1.0);
  const std::string count = "of " + std::to_string(pass.timed()) + " samples";
  std::size_t percentiles = 0;
  for (const Metric& m : metrics) {
    if (m.name.rfind("decision_p", 0) != 0) continue;
    ++percentiles;
    EXPECT_NE(m.line().find(count), std::string::npos) << m.line();
  }
  EXPECT_EQ(percentiles, 2u);
}

TEST(Pass, SetupPassRepeatsTheRampOfTheFullPass) {
  for (const bool evidence : {false, true}) {
    const Workload w = tiny(evidence);
    const PassResult setup = run_tiny(w, false, w.ramp_s);
    const PassResult full = run_tiny(w, false, 12.0);
    EXPECT_EQ(setup.ramp_digest, full.ramp_digest);
    EXPECT_NE(setup.digest, full.digest);
    EXPECT_EQ(setup.warmup, full.warmup);
    EXPECT_TRUE(pass_ok("selftest", setup));
  }
}

TEST(Pass, TracingIsTransparentAndReplaysAgree) {
  for (const bool evidence : {false, true}) {
    const Workload w = tiny(evidence);
    const PassResult plain = run_tiny(w, false, 12.0);
    CpuRotation rotation(0.0);
    const PassResult traced = run_tiny(w, true, 12.0, &rotation);
    EXPECT_EQ(plain.digest, traced.digest);
    EXPECT_TRUE(traced.replays_ok);
    EXPECT_TRUE(pass_ok("selftest", traced));
    std::size_t decisions = 0;
    std::size_t solves = 0;
    std::size_t replays = 0;
    for (const Span& span : traced.spans) {
      const std::string name = span.name;
      if (name == "sim.decision") ++decisions;
      if (name == "algo.solve") ++solves;
      if (name == "radio.regenerate") ++replays;
      EXPECT_LE(span.start_s, span.end_s) << name;
    }
    EXPECT_EQ(decisions, traced.report.decisions);
    EXPECT_EQ(solves, traced.report.decisions);
    EXPECT_EQ(replays, traced.report.decisions);
  }
}

TEST(Host, RotationVisitsEveryAllowedCpuOnScheduleAndRestoresAffinity) {
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  {
    CpuRotation rotation(0.25);
    ASSERT_EQ(rotation.size(), static_cast<std::size_t>(CPU_COUNT(&before)));
    std::set<int> seen;
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      rotation.tick(static_cast<double>(i));
      const int cpu = sched_getcpu();
      rotation.tick(static_cast<double>(i) + 0.1);  // not due: stays
      EXPECT_EQ(sched_getcpu(), cpu);
      seen.insert(cpu);
    }
    if (rotation.size() > 1) {
      EXPECT_EQ(seen.size(), rotation.size());
    }
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(Pass, EvidenceBundleIsCheckedAndDeleted) {
  const Workload w = tiny(true);
  const PassResult pass = run_tiny(w, false, 12.0);
  EXPECT_TRUE(pass.evidence_ok);
  EXPECT_GT(pass.report.checkpoints, 0u);
  EXPECT_GT(pass.evidence_bytes, 0u);
  EXPECT_FALSE(std::filesystem::exists(scratch_dir() + "/untraced"));
}

TEST(Pass, UncreatableBundleDirectoryFailsClearly) {
  const std::string blocker = scratch_dir() + "/not_a_directory";
  std::ofstream(blocker) << "x";
  PassOptions options;
  options.seed = 1;
  options.duration_s = 6.0;
  options.scratch_dir = blocker;
  options.bundle_name = "bundle";
  try {
    (void)run_pass(tiny(true), options);
    FAIL() << "expected the bundle directory to be refused";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("cannot create evidence directory"),
              std::string::npos)
        << error.what();
  }
  std::filesystem::remove(blocker);
}

}  // namespace
}  // namespace perfbench
