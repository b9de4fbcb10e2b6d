// Emergency priority — the provider preference lambda_u of Eq. 11.
//
// The paper's Sec. III-B motivates lambda_u with public-safety users whose
// tasks must win contention for edge resources. This example congests a
// small network (more users than offloading slots), marks a few users as
// first responders with the maximum lambda while demoting the rest, and
// shows that TSAJS gives responders a disproportionate share of the slots —
// and a bigger resource share *on* a shared server (Eq. 22 weights f_us by
// sqrt(lambda_u * beta * f_local)).
//
//   ./build/examples/emergency_priority [--responders K]
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
      "emergency_priority — provider preferences steer contention toward "
      "public-safety users");
  cli.add_flag("users", "total users", "24");
  cli.add_flag("responders", "number of high-priority users", "6");
  cli.add_flag("lambda-civilian", "lambda of ordinary users", "0.3");
  cli.add_flag("trials", "random drops", "12");
  cli.add_flag("seed", "base RNG seed", "13");
  if (!cli.parse(argc, argv)) return 0;

  const auto users = static_cast<std::size_t>(cli.get_int("users"));
  const auto responders = static_cast<std::size_t>(cli.get_int("responders"));
  const double lambda_civilian = cli.get_double("lambda-civilian");
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const auto base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // A congested deployment: 4 cells x 2 sub-bands = 8 slots for 24 users.
  mec::ScenarioBuilder builder;
  builder.num_users(users)
      .num_servers(4)
      .num_subchannels(2)
      .task_megacycles(2000.0)
      .customize_users([&](std::size_t u, mec::UserEquipment& ue) {
        ue.lambda = (u < responders) ? 1.0 : lambda_civilian;
      });

  Accumulator responder_rate;
  Accumulator civilian_rate;
  Accumulator responder_cpu;
  Accumulator civilian_cpu;
  Accumulator responder_delay;
  Accumulator civilian_delay;

  for (std::size_t trial = 0; trial < trials; ++trial) {
    SplitMix64 seeder(base_seed + trial);
    Rng scenario_rng(seeder.next());
    const mec::Scenario scenario = builder.build(scenario_rng);
    Rng rng(seeder.next());
    const algo::TsajsScheduler scheduler;
    const jtora::CompiledProblem problem(scenario);
    const auto result = algo::run_and_validate(
        scheduler, {.problem = &problem, .rng = &rng});
    const jtora::UtilityEvaluator evaluator(problem);
    const jtora::Evaluation eval = evaluator.evaluate(result.assignment);

    for (std::size_t u = 0; u < users; ++u) {
      const bool is_responder = u < responders;
      const bool off = eval.users[u].offloaded;
      (is_responder ? responder_rate : civilian_rate).add(off ? 1.0 : 0.0);
      if (off) {
        (is_responder ? responder_cpu : civilian_cpu)
            .add(eval.allocation.cpu_hz[u] / 1e9);
        (is_responder ? responder_delay : civilian_delay)
            .add(eval.users[u].total_delay_s);
      }
    }
  }

  Table table({"class", "lambda", "offload rate",
               "mean CPU share [GHz]", "mean offloaded delay [s]"});
  table.add_row({"first responder", "1.0",
                 format_double(100.0 * responder_rate.mean(), 1) + " %",
                 format_double(responder_cpu.mean(), 2),
                 format_double(responder_delay.mean(), 3)});
  table.add_row({"civilian", format_double(lambda_civilian, 2),
                 format_double(100.0 * civilian_rate.mean(), 1) + " %",
                 civilian_cpu.count() > 0
                     ? format_double(civilian_cpu.mean(), 2)
                     : "-",
                 civilian_delay.count() > 0
                     ? format_double(civilian_delay.mean(), 3)
                     : "-"});

  std::cout << "\n== Emergency priority: " << responders << " responders vs "
            << users - responders << " civilians, 8 offloading slots ==\n";
  table.print(std::cout);
  std::cout << "\nReading: with lambda weighting the objective, responders "
               "win slots far more\noften than civilians and draw larger "
               "CPU shares when co-scheduled.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
