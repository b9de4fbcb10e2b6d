// bench_check — perf-regression gate over google-benchmark JSON dumps.
//
// Compares a fresh micro-kernel run against the checked-in baseline
// (bench/BENCH_micro.json) and fails (exit 1) when an optimised kernel lost
// ground on its in-run reference beyond noise. Designed for CI, where the
// absolute clock differs from the machine that recorded the baseline:
//
//   1. Per kernel, the per-repetition cpu times are folded into a Welford
//      accumulator (common/stats.h) and compared via their means;
//      aggregate-only baseline entries (older appends per the
//      EXPERIMENTS.md protocol) fall back to the recorded mean/stddev.
//   2. The gate is the kernel *pairs* (kPairs): an optimised kernel and the
//      reference it replaces, timed on the same input in the same run. Per
//      pair, the within-run ratio optimised/reference of the current run is
//      divided by the baseline's; above 1 + allowance the pair REGRESSED.
//      Both members run on the same machine in the same process, so the
//      machine's speed cancels inside each ratio: a baseline recorded on
//      another host does not move it. The gate is one-sided: a faster
//      optimised kernel, or a slower reference, lowers the ratio and passes.
//      A pair with a member missing from either run fails: the gate could
//      not run. --filter skips the pairs it leaves out.
//   3. The allowance is noise-aware: the relative confidence-interval
//      half-widths (Student-t, 95%) of the four means add up, floored by
//      --min-rel (default 10%) so single-digit-repetition jitter cannot
//      fail the build spuriously.
//   4. Every kernel's absolute ratio current/baseline, normalized by the
//      median ratio across all shared kernels (the machine-speed factor),
//      stays in the report but cannot fail the gate: how kernels shift
//      against each other differs from one machine to the next.
//
// A markdown report (--diff) records every comparison for the CI artifact.
//
// Scale-sweep gate (optional): with --scale-baseline/--scale-current the
// bench_scale JSON dumps are compared too — per (users, shard_threads)
// point, the per-trial solve_seconds fold into the same Welford + CI
// machinery, the ratios are normalized by the micro run's machine-speed
// factor (the sweep alone is too few points for a robust median), and the
// thread-scaling rows guard the parallel sharded path against p50
// regressions. --scale-min-rel defaults looser (35%) than the micro floor:
// end-to-end solves under wall-clock budgets carry more run-to-run noise
// than micro kernels.
//
// Usage:
//   bench_check --baseline bench/BENCH_micro.json --current fresh.json
//               [--diff diff.md] [--min-rel 0.10] [--filter substring]
//               [--scale-baseline bench/BENCH_scale.json
//                --scale-current fresh_scale.json [--scale-min-rel 0.35]]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/units.h"
#include "exp/json_reader.h"

namespace {

using tsajs::Accumulator;
using tsajs::exp::JsonValue;

/// One kernel's timing summary on one side of the comparison, in
/// nanoseconds of cpu time.
struct KernelSample {
  std::size_t count = 0;
  double mean_ns = 0.0;
  double stddev_ns = 0.0;

  /// Relative 95% CI half-width of the mean (0 when count < 2).
  [[nodiscard]] double rel_ci() const {
    if (count < 2 || mean_ns <= 0.0) return 0.0;
    const double t = tsajs::student_t_critical(count - 1, 0.95);
    return t * stddev_ns / std::sqrt(static_cast<double>(count)) / mean_ns;
  }
};

double to_ns(double value, const std::string& unit) {
  if (unit == "ns") return value;
  if (unit == "us") return value * 1e3;
  if (unit == "ms") return value * 1e6;
  if (unit == "s") return value * 1e9;
  throw tsajs::InvalidArgumentError("unknown benchmark time unit: " + unit);
}

/// Extracts per-kernel samples from a google-benchmark JSON document.
/// Prefers raw repetition entries (Welford over cpu_time); kernels that
/// only carry aggregates use the recorded _mean/_stddev pair.
std::map<std::string, KernelSample> load_kernels(const JsonValue& doc) {
  std::map<std::string, Accumulator> repetitions;
  struct Aggregates {
    double mean_ns = -1.0;
    double stddev_ns = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, Aggregates> aggregates;

  for (const JsonValue& entry : doc.at("benchmarks").as_array()) {
    const std::string& run_type = entry.at("run_type").as_string();
    const std::string& run_name = entry.at("run_name").as_string();
    const std::string& unit = entry.at("time_unit").as_string();
    const double cpu_ns = to_ns(entry.at("cpu_time").as_number(), unit);
    if (run_type == "iteration") {
      repetitions[run_name].add(cpu_ns);
    } else if (run_type == "aggregate") {
      Aggregates& agg = aggregates[run_name];
      const std::string& kind = entry.at("aggregate_name").as_string();
      if (kind == "mean") {
        agg.mean_ns = cpu_ns;
        const JsonValue* reps = entry.find("repetitions");
        agg.count =
            reps != nullptr ? static_cast<std::size_t>(reps->as_number()) : 0;
      } else if (kind == "stddev") {
        agg.stddev_ns = cpu_ns;
      }
    }
  }

  std::map<std::string, KernelSample> kernels;
  for (const auto& [name, acc] : repetitions) {
    KernelSample sample;
    sample.count = acc.count();
    sample.mean_ns = acc.mean();
    sample.stddev_ns = acc.stddev();
    kernels.emplace(name, sample);
  }
  for (const auto& [name, agg] : aggregates) {
    if (kernels.count(name) != 0 || agg.mean_ns < 0.0) continue;
    KernelSample sample;
    sample.count = agg.count;
    sample.mean_ns = agg.mean_ns;
    sample.stddev_ns = agg.stddev_ns;
    kernels.emplace(name, sample);
  }
  return kernels;
}

struct Comparison {
  std::string name;
  KernelSample baseline;
  KernelSample current;
  double raw_ratio = 0.0;
  double normalized_ratio = 0.0;
  double allowance = 0.0;
  bool regressed = false;
};

/// The gated pairs: an optimised kernel and its reference, which
/// bench/micro_kernels.cpp times on the same input.
struct KernelPair {
  const char* optimised;
  const char* reference;
};
constexpr KernelPair kPairs[] = {
    {"BM_WarmProposal_Floored", "BM_WarmProposal_Exact"},
    {"BM_PreviewRow_Batch", "BM_PreviewRow_Scalar"},
    {"BM_FixupArgmax_Bounded", "BM_FixupArgmax_Exact"},
};

struct PairComparison {
  std::string name;             ///< "optimised / reference"
  double baseline_ratio = 0.0;  ///< optimised / reference in the baseline
  double current_ratio = 0.0;   ///< the same in the current run
  double drift = 0.0;           ///< current_ratio / baseline_ratio
  double allowance = 0.0;
  bool regressed = false;
};

/// Parses one input document and folds it through `loader`, wrapping any
/// failure (missing file, JSON syntax error, wrong document shape) with the
/// input's role and path. A bare "cannot open JSON file" out of four
/// possible inputs sends CI users spelunking; "failed reading the micro
/// baseline at 'bench/BENCH_micro.json'" does not.
template <typename Loader>
auto load_side(const std::string& role, const std::string& path,
               Loader loader) {
  try {
    return loader(tsajs::exp::parse_json_file(path));
  } catch (const std::exception& error) {
    throw tsajs::Error("failed reading the " + role + " at '" + path +
                       "': " + error.what() +
                       " (check the path, or regenerate the dump per "
                       "EXPERIMENTS.md)");
  }
}

std::string format_ns(double ns) {
  return tsajs::units::duration_string(ns * 1e-9, 3);
}

/// Folds a bench_scale JSON dump into per-point samples keyed by
/// "U=<users> T=<shard_threads>"; the sample is the per-trial solve time
/// (seconds converted to ns so the shared formatting applies). Points
/// missing shard_threads (pre-sweep dumps) count as 1.
std::map<std::string, KernelSample> load_scale_points(const JsonValue& doc) {
  std::map<std::string, KernelSample> points;
  for (const JsonValue& point : doc.at("points").as_array()) {
    const auto users = static_cast<std::size_t>(point.at("users").as_number());
    const JsonValue* threads_field = point.find("shard_threads");
    const std::size_t threads =
        threads_field != nullptr
            ? static_cast<std::size_t>(threads_field->as_number())
            : 1;
    Accumulator acc;
    for (const JsonValue& trial : point.at("trials").as_array()) {
      acc.add(trial.at("solve_seconds").as_number() * 1e9);
    }
    if (acc.count() == 0) continue;
    KernelSample sample;
    sample.count = acc.count();
    sample.mean_ns = acc.mean();
    sample.stddev_ns = acc.stddev();
    points.emplace("U=" + std::to_string(users) +
                       " T=" + std::to_string(threads),
                   sample);
  }
  return points;
}

void write_diff(std::ostream& os, const std::vector<PairComparison>& pairs,
                const std::vector<std::string>& missing_pairs,
                const std::vector<Comparison>& rows,
                const std::vector<std::string>& baseline_only,
                const std::vector<std::string>& current_only,
                double speed_factor, double min_rel) {
  os << "# Micro-kernel perf gate\n\n"
     << "## Pair gate\n\n"
     << "Per pair: within-run ratio optimised/reference, current divided by "
        "baseline; allowance = max("
     << min_rel * 100.0 << "%, sum of the four 95% CI half-widths).\n\n"
     << "| pair | baseline ratio | current ratio | current / baseline "
        "| allowance | verdict |\n"
     << "|---|---|---|---|---|---|\n";
  for (const PairComparison& pair : pairs) {
    std::ostringstream cells;
    cells.setf(std::ios::fixed);
    cells.precision(3);
    cells << "| " << pair.name << " | " << pair.baseline_ratio << " | "
          << pair.current_ratio << " | " << pair.drift << " | "
          << (1.0 + pair.allowance) << " | "
          << (pair.regressed ? "**REGRESSED**" : "ok") << " |\n";
    os << cells.str();
  }
  for (const std::string& name : missing_pairs) {
    os << "| " << name << " | - | - | - | - | **MISSING** (a member is "
          "absent from a run) |\n";
  }
  os << "\n## Absolute rows (informational)\n\n"
     << "Machine-speed factor (median current/baseline ratio): "
     << speed_factor << ". A row marked slower is normalized ratio > max("
     << min_rel * 100.0
     << "%, sum of 95% CI half-widths); it does not fail the gate.\n\n"
     << "Coverage: " << rows.size() << " kernels matched, "
     << baseline_only.size() << " baseline-only (unmatched), "
     << current_only.size() << " new in current.\n\n"
     << "| kernel | baseline | current | raw ratio | normalized | allowance "
        "| note |\n"
     << "|---|---|---|---|---|---|---|\n";
  for (const Comparison& row : rows) {
    std::ostringstream cells;
    cells.setf(std::ios::fixed);
    cells.precision(3);
    cells << "| " << row.name << " | " << format_ns(row.baseline.mean_ns)
          << " | " << format_ns(row.current.mean_ns) << " | " << row.raw_ratio
          << " | " << row.normalized_ratio << " | "
          << (1.0 + row.allowance) << " | "
          << (row.regressed ? "slower" : "ok") << " |\n";
    os << cells.str();
  }
  for (const std::string& name : baseline_only) {
    os << "| " << name << " | - | - | - | - | - | baseline only |\n";
  }
  for (const std::string& name : current_only) {
    os << "| " << name << " | - | - | - | - | - | new kernel |\n";
  }
}

void write_scale_diff(std::ostream& os, const std::vector<Comparison>& rows,
                      const std::vector<std::string>& baseline_only,
                      const std::vector<std::string>& current_only,
                      double speed_factor, double min_rel) {
  os << "\n## Scale sweep gate\n\n"
     << "Per (users, shard_threads) point: p50-style mean of per-trial solve "
        "times, normalized by the micro gate's machine-speed factor ("
     << speed_factor << "); allowance = max(" << min_rel * 100.0
     << "%, sum of 95% CI half-widths).\n\n"
     << "Coverage: " << rows.size() << " points matched, "
     << baseline_only.size() << " baseline-only (unmatched), "
     << current_only.size() << " new in current.\n\n"
     << "| point | baseline | current | raw ratio | normalized | allowance "
        "| verdict |\n"
     << "|---|---|---|---|---|---|---|\n";
  for (const Comparison& row : rows) {
    std::ostringstream cells;
    cells.setf(std::ios::fixed);
    cells.precision(3);
    cells << "| " << row.name << " | " << format_ns(row.baseline.mean_ns)
          << " | " << format_ns(row.current.mean_ns) << " | " << row.raw_ratio
          << " | " << row.normalized_ratio << " | " << (1.0 + row.allowance)
          << " | " << (row.regressed ? "**REGRESSED**" : "ok") << " |\n";
    os << cells.str();
  }
  for (const std::string& name : baseline_only) {
    os << "| " << name << " | - | - | - | - | - | baseline only |\n";
  }
  for (const std::string& name : current_only) {
    os << "| " << name << " | - | - | - | - | - | new point |\n";
  }
}

int run(int argc, const char* const* argv) {
  tsajs::CliParser cli(
      "bench_check: perf-regression gate comparing a fresh google-benchmark "
      "JSON run against the checked-in baseline: kernel pairs on their "
      "within-run ratio, noise-aware thresholds.");
  cli.add_flag("baseline", "baseline JSON (bench/BENCH_micro.json)",
               "bench/BENCH_micro.json");
  cli.add_flag("current", "fresh benchmark JSON to gate", "");
  cli.add_flag("diff", "markdown report output path (empty = stdout only)",
               "");
  cli.add_flag("min-rel",
               "minimum relative regression that can fail the gate", "0.10");
  cli.add_flag("filter", "only gate kernels whose name contains this", "");
  cli.add_flag("scale-baseline",
               "baseline bench_scale JSON (empty = skip the scale gate)", "");
  cli.add_flag("scale-current", "fresh bench_scale JSON to gate", "");
  cli.add_flag("scale-min-rel",
               "minimum relative regression failing the scale gate", "0.35");
  if (!cli.parse(argc, argv)) return 2;

  const std::string current_path = cli.get_string("current");
  if (current_path.empty()) {
    std::cerr << "bench_check: --current is required\n";
    return 2;
  }
  const double min_rel = cli.get_double("min-rel");
  const std::string filter = cli.get_string("filter");

  const auto baseline =
      load_side("micro baseline", cli.get_string("baseline"), load_kernels);
  const auto current = load_side("current micro run", current_path,
                                 load_kernels);

  std::vector<Comparison> rows;
  std::vector<std::string> baseline_only;
  std::vector<std::string> current_only;
  std::vector<double> ratios;
  for (const auto& [name, base] : baseline) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    const auto it = current.find(name);
    if (it == current.end()) {
      baseline_only.push_back(name);
      continue;
    }
    Comparison row;
    row.name = name;
    row.baseline = base;
    row.current = it->second;
    TSAJS_REQUIRE(base.mean_ns > 0.0 && it->second.mean_ns > 0.0,
                  "benchmark means must be positive");
    row.raw_ratio = it->second.mean_ns / base.mean_ns;
    ratios.push_back(row.raw_ratio);
    rows.push_back(row);
  }
  for (const auto& [name, sample] : current) {
    (void)sample;
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    if (baseline.count(name) == 0) current_only.push_back(name);
  }
  if (rows.empty()) {
    std::cerr << "bench_check: no kernels shared between baseline and "
                 "current run\n";
    return 2;
  }

  const double speed_factor = tsajs::quantile(ratios, 0.5);
  for (Comparison& row : rows) {
    row.normalized_ratio = row.raw_ratio / speed_factor;
    row.allowance =
        std::max(min_rel, row.baseline.rel_ci() + row.current.rel_ci());
    row.regressed = row.normalized_ratio > 1.0 + row.allowance;
  }
  std::sort(rows.begin(), rows.end(),
            [](const Comparison& a, const Comparison& b) {
              return a.normalized_ratio > b.normalized_ratio;
            });

  // The gate: each pair's within-run ratio against the baseline's. A pair
  // that --filter leaves out is skipped; one with a member missing from
  // either run fails, since the gate could not be computed.
  bool any_regressed = false;
  std::vector<PairComparison> pairs;
  std::vector<std::string> missing_pairs;
  const auto find = [](const std::map<std::string, KernelSample>& side,
                       const char* kernel) -> const KernelSample* {
    const auto it = side.find(kernel);
    return it == side.end() ? nullptr : &it->second;
  };
  for (const KernelPair& pair : kPairs) {
    const std::string name =
        std::string(pair.optimised) + " / " + pair.reference;
    if (!filter.empty() && (std::string(pair.optimised).find(filter) ==
                                std::string::npos ||
                            std::string(pair.reference).find(filter) ==
                                std::string::npos)) {
      continue;
    }
    const KernelSample* base_opt = find(baseline, pair.optimised);
    const KernelSample* base_ref = find(baseline, pair.reference);
    const KernelSample* cur_opt = find(current, pair.optimised);
    const KernelSample* cur_ref = find(current, pair.reference);
    if (base_opt == nullptr || base_ref == nullptr || cur_opt == nullptr ||
        cur_ref == nullptr) {
      missing_pairs.push_back(name);
      any_regressed = true;
      continue;
    }
    PairComparison row;
    row.name = name;
    row.baseline_ratio = base_opt->mean_ns / base_ref->mean_ns;
    row.current_ratio = cur_opt->mean_ns / cur_ref->mean_ns;
    row.drift = row.current_ratio / row.baseline_ratio;
    row.allowance =
        std::max(min_rel, base_opt->rel_ci() + base_ref->rel_ci() +
                              cur_opt->rel_ci() + cur_ref->rel_ci());
    row.regressed = row.drift > 1.0 + row.allowance;
    any_regressed = any_regressed || row.regressed;
    pairs.push_back(row);
  }

  // Optional scale-sweep gate: same comparison machinery over the
  // bench_scale per-point solve times, normalized by the micro run's
  // machine-speed factor.
  std::vector<Comparison> scale_rows;
  std::vector<std::string> scale_baseline_only;
  std::vector<std::string> scale_current_only;
  const std::string scale_baseline_path = cli.get_string("scale-baseline");
  const std::string scale_current_path = cli.get_string("scale-current");
  const double scale_min_rel = cli.get_double("scale-min-rel");
  const bool scale_gate = !scale_baseline_path.empty();
  if (scale_gate) {
    if (scale_current_path.empty()) {
      std::cerr << "bench_check: --scale-baseline needs --scale-current\n";
      return 2;
    }
    const auto scale_baseline =
        load_side("scale baseline", scale_baseline_path, load_scale_points);
    const auto scale_current = load_side("current scale run",
                                         scale_current_path,
                                         load_scale_points);
    for (const auto& [name, base] : scale_baseline) {
      const auto it = scale_current.find(name);
      if (it == scale_current.end()) {
        scale_baseline_only.push_back(name);
        continue;
      }
      Comparison row;
      row.name = name;
      row.baseline = base;
      row.current = it->second;
      TSAJS_REQUIRE(base.mean_ns > 0.0 && it->second.mean_ns > 0.0,
                    "scale point means must be positive");
      row.raw_ratio = it->second.mean_ns / base.mean_ns;
      row.normalized_ratio = row.raw_ratio / speed_factor;
      row.allowance = std::max(scale_min_rel,
                               base.rel_ci() + it->second.rel_ci());
      row.regressed = row.normalized_ratio > 1.0 + row.allowance;
      any_regressed = any_regressed || row.regressed;
      scale_rows.push_back(row);
    }
    for (const auto& [name, sample] : scale_current) {
      (void)sample;
      if (scale_baseline.count(name) == 0) scale_current_only.push_back(name);
    }
    std::sort(scale_rows.begin(), scale_rows.end(),
              [](const Comparison& a, const Comparison& b) {
                return a.normalized_ratio > b.normalized_ratio;
              });
  }

  const auto write_report = [&](std::ostream& os) {
    write_diff(os, pairs, missing_pairs, rows, baseline_only, current_only,
               speed_factor, min_rel);
    if (scale_gate) {
      write_scale_diff(os, scale_rows, scale_baseline_only,
                       scale_current_only, speed_factor, scale_min_rel);
    }
  };
  write_report(std::cout);
  const std::string diff_path = cli.get_string("diff");
  if (!diff_path.empty()) {
    std::ofstream out(diff_path);
    if (!out) {
      std::cerr << "bench_check: cannot write " << diff_path << "\n";
      return 2;
    }
    write_report(out);
  }

  if (any_regressed) {
    std::cerr << "bench_check: performance regression detected\n";
    return 1;
  }
  std::cout << "\nbench_check: no regressions (" << pairs.size()
            << " pairs gated, " << rows.size() << " kernels matched, "
            << baseline_only.size() + current_only.size()
            << " unmatched; " << scale_rows.size()
            << " scale points matched, "
            << scale_baseline_only.size() + scale_current_only.size()
            << " unmatched)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "bench_check: " << error.what() << "\n";
    return 2;
  }
}
