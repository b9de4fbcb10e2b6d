// Fig. 6 — average system utility vs task workload w_u, with the number of
// users fixed at (a) U = 50 and (b) U = 90.
//
// Expected shape: utility grows with the workload for every scheme (heavier
// compute makes offloading more worthwhile); TSAJS leads throughout.
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig6_workload — reproduces paper Fig. 6 (utility vs workload at fixed "
      "user counts)");
  bench::add_common_flags(cli, /*trials=*/"10", "");
  cli.add_flag("workloads", "workload sweep [Megacycles]",
               "500,1000,1500,2000,2500,3000,3500,4000");
  cli.add_flag("user-counts", "fixed user counts (one panel each)", "50,90");
  if (!cli.parse(argc, argv)) return 0;

  const bench::BenchOptions options = bench::read_common_flags(cli);
  const std::vector<double> workloads = cli.get_double_list("workloads");

  char panel = 'a';
  for (const double users : cli.get_double_list("user-counts")) {
    std::vector<std::string> labels;
    std::vector<mec::ScenarioBuilder> builders;
    for (const double w : workloads) {
      labels.push_back(format_double(w, 0));
      builders.push_back(mec::ScenarioBuilder()
                             .num_users(static_cast<std::size_t>(users))
                             .task_megacycles(w));
    }
    const auto rows = bench::run_sweep(options, labels, builders);
    const Table table = exp::make_sweep_table("w_u [Mcycles]", labels, rows,
                                              exp::metric_utility());
    const std::string title = std::string("Fig. 6(") + panel +
                              "): utility vs workload, U=" +
                              format_double(users, 0);
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
