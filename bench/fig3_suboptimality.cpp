// Fig. 3 — suboptimality of TSAJS vs the exhaustive optimum.
//
// Paper setup: U = 6 users uniformly dropped over S = 4 cells with N = 2
// sub-bands each; task workload w_u in {1000, 2000, 3000, 4000} Megacycles;
// average system utility with 95% confidence intervals for Exhaustive,
// TSAJS, hJTORA, LocalSearch and Greedy.
//
// Expected shape: TSAJS ~= Exhaustive, ahead of hJTORA (~1%), LocalSearch
// (~1.5%) and Greedy (~4%); utility grows with the workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig3_suboptimality — reproduces paper Fig. 3 (avg system utility of "
      "five schemes vs task workload, small network, 95% CI)");
  bench::add_common_flags(cli, /*trials=*/"20",
                          "exhaustive,tsajs,hjtora,local-search,greedy");
  cli.add_flag("workloads", "workload sweep [Megacycles]",
               "1000,2000,3000,4000");
  cli.add_flag("users", "number of users U", "6");
  cli.add_flag("servers", "number of cells S", "4");
  cli.add_flag("subchannels", "sub-bands per cell N", "2");
  if (!cli.parse(argc, argv)) return 0;

  const bench::BenchOptions options = bench::read_common_flags(cli);
  const std::vector<double> workloads = cli.get_double_list("workloads");

  std::vector<std::string> labels;
  std::vector<mec::ScenarioBuilder> builders;
  for (const double w : workloads) {
    labels.push_back(format_double(w, 0));
    builders.push_back(
        mec::ScenarioBuilder()
            .num_users(static_cast<std::size_t>(cli.get_int("users")))
            .num_servers(static_cast<std::size_t>(cli.get_int("servers")))
            .num_subchannels(
                static_cast<std::size_t>(cli.get_int("subchannels")))
            .task_megacycles(w));
  }

  const auto rows = bench::run_sweep(options, labels, builders);
  exp::emit_sweep("Fig. 3: average system utility (95% CI), U=6 S=4 N=2",
                  "w_u [Mcycles]", labels, rows, exp::metric_utility(true),
                  options.csv_prefix);

  // Gap summary against the exhaustive optimum (the paper's headline). No
  // scheme can beat the optimum, so a mean above it can only be rounding:
  // each trial's J* is a sum of O(U + S) terms of magnitude O(1), rounded in
  // its own scheme's order, and the mean folds the trials (DESIGN.md §8
  // bounds such sums the same way). At these sizes that error stays below
  // 1e-13, so the margin 1e-9 * max(1, |J|) holds it with room to spare. A
  // gap inside the margin reads 0; a scheme above the optimum by more than
  // the margin fails the run.
  if (!rows.empty() && rows.front().front().scheme == "exhaustive") {
    Table gaps({"scheme", "mean gap vs exhaustive [%]"});
    for (std::size_t c = 1; c < rows.front().size(); ++c) {
      double gap_sum = 0.0;
      for (std::size_t p = 0; p < rows.size(); ++p) {
        const double optimum = rows[p][0].utility.mean();
        const double mean = rows[p][c].utility.mean();
        const double margin = 1e-9 * std::max(1.0, std::fabs(optimum));
        if (mean > optimum + margin) {
          throw InternalError(
              rows[p][c].scheme + "'s mean utility " + format_double(mean, 12) +
              " at w_u = " + labels[p] + " exceeds the exhaustive optimum " +
              format_double(optimum, 12) +
              " by more than the rounding margin 1e-9 * max(1, |J|)");
        }
        if (mean >= optimum - margin) continue;  // within rounding: no gap
        gap_sum += 100.0 * (optimum - mean) / optimum;
      }
      gaps.add_row({rows.front()[c].scheme,
                    format_double(gap_sum / static_cast<double>(rows.size()),
                                  2)});
    }
    exp::emit_report(
        "Fig. 3 addendum: mean optimality gap (0 within the rounding margin "
        "1e-9 * max(1, |J|) of the optimum)",
        gaps, "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
