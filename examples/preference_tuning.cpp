// Preference tuning — the beta_time / beta_energy dial of Eq. 10.
//
// A user with a draining battery can raise beta_energy (lowering beta_time)
// to trade completion speed for battery life; the paper's Fig. 9 studies
// exactly this dial. This example sweeps beta_time for one population and
// prints how the *achieved* average delay and energy move, plus what the
// decision looks like at the extremes.
//
//   ./build/examples/preference_tuning [--users N] [--trials T]
#include <iostream>

#include "algo/tsajs.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "preference_tuning — sweep the time/energy preference and watch the "
      "achieved delay-energy trade-off move");
  cli.add_flag("users", "number of users", "30");
  cli.add_flag("trials", "random drops per beta", "8");
  cli.add_flag("betas", "beta_time values", "0.05,0.275,0.5,0.725,0.95");
  cli.add_flag("seed", "base RNG seed", "11");
  if (!cli.parse(argc, argv)) return 0;

  const auto users = static_cast<std::size_t>(cli.get_int("users"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const auto base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  Table table({"beta_time", "beta_energy", "avg delay [s]", "avg energy [J]",
               "offloaded", "utility"});
  for (const double beta : cli.get_double_list("betas")) {
    Accumulator delay;
    Accumulator energy;
    Accumulator offloaded;
    Accumulator utility;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      SplitMix64 seeder(base_seed + trial);
      Rng scenario_rng(seeder.next());
      const mec::Scenario scenario = mec::ScenarioBuilder()
                                         .num_users(users)
                                         .beta_time(beta)
                                         .build(scenario_rng);
      Rng rng(seeder.next());
      const algo::TsajsScheduler scheduler;
      const jtora::CompiledProblem problem(scenario);
      const auto result = algo::run_and_validate(
          scheduler, {.problem = &problem, .rng = &rng});
      const jtora::UtilityEvaluator evaluator(problem);
      const jtora::Evaluation eval = evaluator.evaluate(result.assignment);
      Accumulator trial_delay;
      Accumulator trial_energy;
      for (const auto& user : eval.users) {
        trial_delay.add(user.total_delay_s);
        trial_energy.add(user.energy_j);
      }
      delay.add(trial_delay.mean());
      energy.add(trial_energy.mean());
      offloaded.add(static_cast<double>(result.assignment.num_offloaded()));
      utility.add(result.system_utility);
    }
    table.add_row({format_double(beta, 3), format_double(1.0 - beta, 3),
                   format_double(delay.mean(), 4),
                   format_double(energy.mean(), 4),
                   format_double(offloaded.mean(), 1),
                   format_double(utility.mean(), 3)});
  }

  std::cout << "\n== Preference tuning (TSAJS, " << users << " users, "
            << trials << " drops per point) ==\n";
  table.print(std::cout);
  std::cout << "\nReading: as beta_time rises the scheduler buys delay "
               "reductions at the cost\nof transmit energy (the paper's "
               "Fig. 9 trade-off); a battery-saving profile\nsits at the "
               "top of the table, a deadline-driven one at the bottom.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
