// Fig. 7 — average system utility vs the number of sub-channels N, for
// TSAJS chain lengths (a) L = 30 and (b) L = 50.
//
// Expected shape: rise-then-fall. More sub-channels add offloading slots,
// but each sub-band gets W = B/N of bandwidth, so past the point where
// slots outnumber the users worth serving, extra channels only dilute the
// uplink rate and idle capacity drags utility down.
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig7_subchannels — reproduces paper Fig. 7 (utility vs #sub-channels "
      "at two chain lengths)");
  bench::add_common_flags(cli, /*trials=*/"10", "");
  cli.add_flag("subchannels", "sub-channel sweep", "1,2,3,4,6,8,10");
  cli.add_flag("chain-lengths", "TSAJS L values (one panel each)", "30,50");
  cli.add_flag("users", "number of users U", "50");
  cli.add_flag("workload", "task workload [Megacycles]", "1000");
  if (!cli.parse(argc, argv)) return 0;

  bench::BenchOptions options = bench::read_common_flags(cli);
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
              .num_subchannels(static_cast<std::size_t>(n))
              .task_megacycles(cli.get_double("workload")));
    }
    const auto rows = bench::run_sweep(options, labels, builders);
    const Table table =
        exp::make_sweep_table("N", labels, rows, exp::metric_utility());
    const std::string title = std::string("Fig. 7(") + panel +
                              "): utility vs #sub-channels, L=" +
                              format_double(chain, 0);
    const std::string csv = options.csv_prefix.empty()
                                ? ""
                                : options.csv_prefix + "_" + panel;
    exp::emit_report(title, table, csv);
    ++panel;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
