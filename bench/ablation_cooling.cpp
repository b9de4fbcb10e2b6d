// Ablation of the cooling policy: threshold-triggered cooling (the paper's
// TTSA, tsajs) vs plain geometric cooling at alpha1 (tsajs-geo), with the
// LocalSearch hill climber as a no-annealing reference, measured on the
// default network at two workloads. Also reports solve time, since the
// threshold trigger exists to cut wasted low-temperature sweeps.
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "ablation_cooling — threshold-triggered vs geometric cooling, with "
      "local search as the no-annealing reference");
  bench::add_common_flags(cli, /*trials=*/"10",
                          "tsajs,tsajs-geo,local-search");
  cli.add_flag("workloads", "workload sweep [Megacycles]", "1000,3000");
  cli.add_flag("users", "number of users U", "50");
  if (!cli.parse(argc, argv)) return 0;

  const bench::BenchOptions options = bench::read_common_flags(cli);
  std::vector<std::string> labels;
  std::vector<mec::ScenarioBuilder> builders;
  for (const double w : cli.get_double_list("workloads")) {
    labels.push_back(format_double(w, 0));
    builders.push_back(
        mec::ScenarioBuilder()
            .num_users(static_cast<std::size_t>(cli.get_int("users")))
            .task_megacycles(w));
  }

  const auto rows = bench::run_sweep(options, labels, builders);
  exp::emit_report(
      "Ablation: cooling policy — mean utility",
      exp::make_sweep_table("w_u [Mcycles]", labels, rows,
                            exp::metric_utility(true)),
      options.csv_prefix.empty() ? "" : options.csv_prefix + "_utility");
  exp::emit_report(
      "Ablation: cooling policy — mean solve time",
      exp::make_sweep_table("w_u [Mcycles]", labels, rows,
                            exp::metric_runtime()),
      options.csv_prefix.empty() ? "" : options.csv_prefix + "_runtime");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
