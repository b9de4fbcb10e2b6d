// Ablation — model extensions beyond the paper:
//  1. fractional uplink power control vs the paper's fixed 10 dBm, and
//  2. non-negligible result sizes (downlink extension) vs the paper's
//     ignored downlink.
// Both run TSAJS on the default network and report utility plus the
// energy/delay aggregates the change is supposed to move.
//  3. partial (bit-level divisible) offloading vs the paper's atomic tasks,
//     evaluated on the same TSAJS decisions.
#include "bench_common.h"
#include "common/units.h"
#include "jtora/partial.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "ablation_extensions — fractional power control and downlink-size "
      "ablations under TSAJS");
  bench::add_common_flags(cli, /*trials=*/"10", "tsajs");
  cli.add_flag("users", "number of users U", "50");
  if (!cli.parse(argc, argv)) return 0;

  const bench::BenchOptions options = bench::read_common_flags(cli);
  const auto users = static_cast<std::size_t>(cli.get_int("users"));

  // --- power control --------------------------------------------------------
  {
    std::vector<std::string> labels{"fixed 10 dBm", "FPC a=0.8 p0=-80",
                                    "FPC a=1.0 p0=-95"};
    std::vector<mec::ScenarioBuilder> builders;
    builders.push_back(mec::ScenarioBuilder().num_users(users));
    builders.push_back(mec::ScenarioBuilder().num_users(users)
                           .fractional_power_control(-80.0, 0.8, 23.0));
    builders.push_back(mec::ScenarioBuilder().num_users(users)
                           .fractional_power_control(-95.0, 1.0, 23.0));
    const auto rows = bench::run_sweep(options, labels, builders);
    exp::emit_report(
        "Ablation: uplink power policy — mean utility",
        exp::make_sweep_table("power policy", labels, rows,
                              exp::metric_utility(true)),
        options.csv_prefix.empty() ? "" : options.csv_prefix + "_power");
    exp::emit_report(
        "Ablation: uplink power policy — mean per-user energy [J]",
        exp::make_sweep_table("power policy", labels, rows,
                              exp::metric_energy()),
        "");
  }

  // --- downlink output size -------------------------------------------------
  {
    std::vector<std::string> labels;
    std::vector<mec::ScenarioBuilder> builders;
    for (const double kb : {0.0, 50.0, 200.0, 800.0}) {
      labels.push_back(format_double(kb, 0) + " KB");
      mec::ScenarioBuilder builder;
      builder.num_users(users).customize_users(
          [kb](std::size_t, mec::UserEquipment& ue) {
            ue.task.output_bits = units::kilobytes_to_bits(kb);
          });
      builders.push_back(std::move(builder));
    }
    const auto rows = bench::run_sweep(options, labels, builders);
    exp::emit_report(
        "Ablation: result (downlink) size — mean utility",
        exp::make_sweep_table("output size", labels, rows,
                              exp::metric_utility(true)),
        options.csv_prefix.empty() ? "" : options.csv_prefix + "_downlink");
    exp::emit_report(
        "Ablation: result (downlink) size — mean per-user delay [s]",
        exp::make_sweep_table("output size", labels, rows,
                              exp::metric_delay()),
        "");
  }

  // --- atomic vs partial offloading ----------------------------------------
  {
    Table table({"w_u [Mcycles]", "full offload J*", "partial offload J*",
                 "gain [%]", "mean split x*"});
    for (const double w : {1000.0, 2000.0, 4000.0}) {
      Accumulator full_utility;
      Accumulator partial_utility;
      Accumulator split;
      for (std::size_t trial = 0; trial < options.trials; ++trial) {
        SplitMix64 seeder(options.seed + trial);
        Rng scenario_rng(seeder.next());
        const mec::Scenario scenario = mec::ScenarioBuilder()
                                           .num_users(users)
                                           .task_megacycles(w)
                                           .build(scenario_rng);
        Rng rng(seeder.next());
        const auto scheduler = algo::make_scheduler("tsajs");
        const jtora::CompiledProblem problem(scenario);
        const auto result =
            scheduler->solve({.problem = &problem, .rng = &rng});
        full_utility.add(result.system_utility);
        const jtora::PartialOffloadEvaluator partial(problem);
        const jtora::PartialEvaluation eval =
            partial.evaluate(result.assignment);
        partial_utility.add(eval.system_utility);
        for (std::size_t u = 0; u < scenario.num_users(); ++u) {
          if (result.assignment.is_offloaded(u)) {
            split.add(eval.users[u].split);
          }
        }
      }
      table.add_row(
          {format_double(w, 0), format_double(full_utility.mean(), 4),
           format_double(partial_utility.mean(), 4),
           format_double(100.0 * (partial_utility.mean() -
                                  full_utility.mean()) /
                             full_utility.mean(),
                         2),
           format_double(split.mean(), 3)});
    }
    exp::emit_report(
        "Ablation: atomic (paper) vs partial offloading on TSAJS decisions",
        table,
        options.csv_prefix.empty() ? "" : options.csv_prefix + "_partial");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
