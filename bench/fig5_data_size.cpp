// Fig. 5 — average system utility vs task input-data size d_u.
//
// Expected shape: monotone decline for every scheme — a larger upload costs
// more airtime and energy while the compute saving is unchanged, so tasks
// with small inputs and heavy compute benefit most from offloading.
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig5_data_size — reproduces paper Fig. 5 (utility vs task input "
      "size)");
  bench::add_common_flags(cli, /*trials=*/"10", "");
  cli.add_flag("data-sizes", "input-size sweep [KB]",
               "100,200,300,420,500,600,700,800,900,1000");
  cli.add_flag("users", "number of users U", "50");
  cli.add_flag("workload", "task workload [Megacycles]", "1000");
  if (!cli.parse(argc, argv)) return 0;

  const bench::BenchOptions options = bench::read_common_flags(cli);
  std::vector<std::string> labels;
  std::vector<mec::ScenarioBuilder> builders;
  for (const double kb : cli.get_double_list("data-sizes")) {
    labels.push_back(format_double(kb, 0));
    builders.push_back(
        mec::ScenarioBuilder()
            .num_users(static_cast<std::size_t>(cli.get_int("users")))
            .task_input_kb(kb)
            .task_megacycles(cli.get_double("workload")));
  }

  const auto rows = bench::run_sweep(options, labels, builders);
  exp::emit_sweep(
      "Fig. 5: utility vs task data size, U=" + cli.get_string("users"),
      "d_u [KB]", labels, rows, exp::metric_utility(), options.csv_prefix);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
