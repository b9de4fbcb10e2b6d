// Fig. 4 — average system utility vs the number of users, for workloads
// w in {1000, 2000, 3000} Megacycles and TSAJS chain lengths L in {10, 30}
// (six panels (a)-(f) in the paper).
//
// Expected shape: utility rises with U while offloading slots are plentiful,
// then saturates/declines as bandwidth and CPU contention erode the gains;
// TSAJS stays on top, and at L=30 it keeps improving where others flatten.
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig4_user_scaling — reproduces paper Fig. 4 (utility vs #users for "
      "three workloads x two chain lengths)");
  bench::add_common_flags(cli, /*trials=*/"10", "");
  cli.add_flag("users", "user-count sweep", "10,20,30,40,50,60,70,80,90");
  cli.add_flag("workloads", "workloads [Megacycles]", "1000,2000,3000");
  cli.add_flag("chain-lengths", "TSAJS L values", "10,30");
  cli.add_flag("scale-subchannels",
               "grow N with U (N = ceil(U/S)) so every user has a slot and "
               "per-user bandwidth shrinks as the paper describes",
               "true");
  if (!cli.parse(argc, argv)) return 0;

  bench::BenchOptions options = bench::read_common_flags(cli);
  const std::vector<double> user_counts = cli.get_double_list("users");
  const std::vector<double> workloads = cli.get_double_list("workloads");
  const std::vector<double> chain_lengths =
      cli.get_double_list("chain-lengths");

  char panel = 'a';
  for (const double w : workloads) {
    for (const double chain : chain_lengths) {
      options.chain_length = static_cast<std::size_t>(chain);
      std::vector<std::string> labels;
      std::vector<mec::ScenarioBuilder> builders;
      for (const double u : user_counts) {
        labels.push_back(format_double(u, 0));
        mec::ScenarioBuilder builder;
        builder.num_users(static_cast<std::size_t>(u)).task_megacycles(w);
        if (cli.get_bool("scale-subchannels")) {
          const std::size_t servers = builder.num_servers();
          const auto needed = static_cast<std::size_t>(
              (static_cast<std::size_t>(u) + servers - 1) / servers);
          builder.num_subchannels(std::max<std::size_t>(needed, 1));
        }
        builders.push_back(std::move(builder));
      }
      const auto rows = bench::run_sweep(options, labels, builders);
      const Table table = exp::make_sweep_table("U", labels, rows,
                                                exp::metric_utility());
      const std::string title = std::string("Fig. 4(") + panel +
                                "): utility vs U, w=" + format_double(w, 0) +
                                " Mcycles, L=" + format_double(chain, 0);
      const std::string csv =
          options.csv_prefix.empty()
              ? ""
              : options.csv_prefix + "_" + panel;
      exp::emit_report(title, table, csv);
      ++panel;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
