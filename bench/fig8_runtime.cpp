// Fig. 8 — average computation time vs the number of sub-channels, for
// TSAJS chain lengths (a) L = 10 and (b) L = 50.
//
// Expected shape: every search-based scheme slows as N grows (the decision
// space is U x S x N); hJTORA's time rises steepest (it scans all candidate
// slots every admission round), while Greedy and LocalSearch stay nearly
// flat thanks to their fixed search recipes.
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig8_runtime — reproduces paper Fig. 8 (mean solve time vs "
      "#sub-channels at two chain lengths)");
  bench::add_common_flags(cli, /*trials=*/"5", "");
  cli.add_flag("subchannels", "sub-channel sweep", "2,4,6,8,10");
  cli.add_flag("chain-lengths", "TSAJS L values (one panel each)", "10,50");
  cli.add_flag("users", "number of users U", "50");
  cli.add_flag("incremental",
               "use the incremental evaluator inside TSAJS (false = the "
               "paper's literal per-iteration full recompute, whose cost "
               "grows with the offloaded-user count)",
               "false");
  if (!cli.parse(argc, argv)) return 0;

  bench::BenchOptions options = bench::read_common_flags(cli);
  options.tsajs_incremental = cli.get_bool("incremental");
  // Solve times are the metric: run trials sequentially so timings are not
  // perturbed by sibling threads.
  options.threads = 1;
  const std::vector<double> subchannels = cli.get_double_list("subchannels");

  char panel = 'a';
  for (const double chain : cli.get_double_list("chain-lengths")) {
    options.chain_length = static_cast<std::size_t>(chain);
    std::vector<std::string> labels;
    std::vector<mec::ScenarioBuilder> builders;
    for (const double n : subchannels) {
      labels.push_back(format_double(n, 0));
      builders.push_back(
          mec::ScenarioBuilder()
              .num_users(static_cast<std::size_t>(cli.get_int("users")))
              .num_subchannels(static_cast<std::size_t>(n)));
    }
    const auto rows = bench::run_sweep(options, labels, builders);
    const Table table =
        exp::make_sweep_table("N", labels, rows, exp::metric_runtime());
    const std::string title = std::string("Fig. 8(") + panel +
                              "): mean solve time vs #sub-channels, L=" +
                              format_double(chain, 0);
    const std::string csv = options.csv_prefix.empty()
                                ? ""
                                : options.csv_prefix + "_" + panel;
    exp::emit_report(title, table, csv);
    bench::emit_latency_report(title, "N", labels, rows);
    ++panel;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
