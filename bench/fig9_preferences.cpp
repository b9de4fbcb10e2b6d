// Fig. 9 — impact of the user preference weights under TSAJS: sweeping
// beta_time from 0.05 to 0.95 (beta_energy = 1 - beta_time) at three user
// scales, reporting (a) average energy consumption and (b) average
// computation delay over all users.
//
// Expected shape: raising beta_time lowers the average delay and raises the
// average energy — faster completion is bought with more transmit energy
// (and less energy-driven offloading restraint).
#include "bench_common.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "fig9_preferences — reproduces paper Fig. 9 (avg energy and delay vs "
      "beta_time at three user scales, TSAJS)");
  bench::add_common_flags(cli, /*trials=*/"10", "tsajs");
  cli.add_flag("betas", "beta_time sweep",
               "0.05,0.2,0.35,0.5,0.65,0.8,0.95");
  cli.add_flag("user-scales", "user counts (one series each)", "30,60,90");
  if (!cli.parse(argc, argv)) return 0;

  const bench::BenchOptions options = bench::read_common_flags(cli);
  const std::vector<double> betas = cli.get_double_list("betas");
  const std::vector<double> scales = cli.get_double_list("user-scales");

  // One column per user scale: gather stats per (beta, scale) pair with the
  // single scheme, then re-assemble tables keyed by scale.
  std::vector<std::string> labels;
  std::vector<std::vector<exp::SchemeStats>> energy_rows;
  std::vector<std::vector<exp::SchemeStats>> delay_rows;
  const exp::TrialRunner runner(options.threads);
  for (const double beta : betas) {
    labels.push_back(format_double(beta, 2));
    std::vector<exp::SchemeStats> per_scale;
    for (const double users : scales) {
      exp::TrialSpec spec = bench::make_spec(options);
      spec.builder.num_users(static_cast<std::size_t>(users))
          .beta_time(beta);
      auto stats = runner.run(spec);
      // Collapse to a single pseudo-scheme column labelled by the scale.
      exp::SchemeStats column = std::move(stats.front());
      column.scheme = "U=" + format_double(users, 0);
      per_scale.push_back(std::move(column));
    }
    energy_rows.push_back(per_scale);
    delay_rows.push_back(std::move(per_scale));
  }

  const Table energy = exp::make_sweep_table("beta_time", labels, energy_rows,
                                             exp::metric_energy());
  exp::emit_report("Fig. 9(a): average energy consumption [J] vs beta_time",
                   energy,
                   options.csv_prefix.empty() ? ""
                                              : options.csv_prefix + "_a");
  const Table delay = exp::make_sweep_table("beta_time", labels, delay_rows,
                                            exp::metric_delay());
  exp::emit_report("Fig. 9(b): average computation delay [s] vs beta_time",
                   delay,
                   options.csv_prefix.empty() ? ""
                                              : options.csv_prefix + "_b");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
