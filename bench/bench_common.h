// Shared plumbing for the per-figure bench binaries.
//
// Every bench accepts the same base flags (--trials, --seed, --schemes,
// --chain-length, --threads, --csv) plus figure-specific sweeps, prints the
// series the corresponding paper figure plots as ASCII tables, and can dump
// CSVs for replotting.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "common/cli.h"
#include "common/error.h"
#include "exp/report.h"
#include "exp/trial_runner.h"

namespace tsajs::bench {

struct BenchOptions {
  std::size_t trials = 10;
  std::uint64_t seed = 20250704;
  std::vector<std::string> schemes;
  std::size_t chain_length = 30;
  std::size_t threads = 0;
  std::string csv_prefix;  // empty = no CSV output
  bool tsajs_incremental = true;
  bool verbose = false;  // per-point sweep progress on stderr
};

/// Registers the shared flags on `cli`.
inline void add_common_flags(CliParser& cli, const std::string& trials_default,
                             const std::string& schemes_default) {
  cli.add_flag("trials", "Monte-Carlo drops per sweep point", trials_default);
  cli.add_flag("seed", "base RNG seed", "20250704");
  cli.add_flag("schemes", "comma-separated scheme list", schemes_default);
  cli.add_flag("chain-length", "TSAJS Markov-chain length L", "30");
  cli.add_flag("threads", "worker threads (0 = hardware)", "0");
  cli.add_flag("csv", "CSV output path prefix (empty = off)", "");
  cli.add_flag("verbose", "log per-point sweep progress to stderr", "false");
}

/// Reads the shared flags back out of a parsed `cli`.
inline BenchOptions read_common_flags(const CliParser& cli) {
  BenchOptions options;
  options.trials = static_cast<std::size_t>(cli.get_uint("trials"));
  options.seed = cli.get_uint("seed");
  options.schemes = algo::parse_scheme_list(cli.get_string("schemes"));
  options.chain_length =
      static_cast<std::size_t>(cli.get_uint("chain-length"));
  options.threads = static_cast<std::size_t>(cli.get_uint("threads"));
  options.csv_prefix = cli.get_string("csv");
  options.verbose = cli.get_bool("verbose");
  return options;
}

/// Builds the TrialSpec shared skeleton from options (caller sets builder).
inline exp::TrialSpec make_spec(const BenchOptions& options) {
  exp::TrialSpec spec;
  spec.schemes = options.schemes;
  spec.options.chain_length = options.chain_length;
  spec.options.incremental_evaluator = options.tsajs_incremental;
  spec.trials = options.trials;
  spec.base_seed = options.seed;
  return spec;
}

/// Prints the solve-latency tail of a finished sweep: one "p50 / p99" cell
/// per (point, scheme), from the raw per-trial samples the runner records.
/// Means alone hide stragglers, and the anytime-deadline story is about the
/// tail — benches that report runtime should emit this next to the means.
inline void emit_latency_report(const std::string& title,
                                const std::string& x_name,
                                const std::vector<std::string>& labels,
                                const std::vector<std::vector<exp::SchemeStats>>& rows) {
  const Table table = exp::make_sweep_table(
      x_name, labels, rows, exp::metric_runtime_percentiles());
  exp::emit_report(title + " [solve latency p50 / p99]", table, "");
}

/// Runs one sweep: for each (label, builder) point, runs all trials and
/// returns the per-point stats (in label order). With `verbose`, a progress
/// line per point goes to stderr, labelled with the sweep point just
/// finished.
inline std::vector<std::vector<exp::SchemeStats>> run_sweep(
    const BenchOptions& options, const std::vector<std::string>& labels,
    const std::vector<mec::ScenarioBuilder>& builders) {
  TSAJS_REQUIRE(labels.size() == builders.size(),
                "one label per sweep point expected");
  std::vector<std::vector<exp::SchemeStats>> rows;
  rows.reserve(builders.size());
  const exp::TrialRunner runner(options.threads);
  for (std::size_t i = 0; i < builders.size(); ++i) {
    exp::TrialSpec spec = make_spec(options);
    spec.builder = builders[i];
    // Same seeds at every sweep point: points that differ only in task
    // parameters then share their drops (paired comparison, lower variance
    // along the x-axis).
    rows.push_back(runner.run(spec));
    if (options.verbose) {
      std::cerr << "sweep point " << (i + 1) << "/" << builders.size() << " ("
                << labels[i] << "): " << options.trials << " trials done\n";
    }
  }
  return rows;
}

}  // namespace tsajs::bench
