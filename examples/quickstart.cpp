// Quickstart — the smallest end-to-end use of the library.
//
// Builds one random drop of the paper's default network (9 hexagonal cells,
// 30 users, 3 OFDMA sub-bands), solves the joint task-offloading +
// resource-allocation problem with TSAJS, and prints the decision along
// with each user's delay/energy outcome versus local execution.
//
//   ./build/examples/quickstart [--users N] [--seed S]

// GCC 12 reports a spurious -Wrestrict from std::string internals inlined
// into the decision-label concatenation below (GCC PR105651); the warning is
// a diagnostic bug, not a real overlap.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <iostream>

#include "algo/tsajs.h"
#include "common/cli.h"
#include "common/table.h"
#include "common/units.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli("quickstart — solve one MEC offloading instance with TSAJS");
  cli.add_flag("users", "number of mobile users", "30");
  cli.add_flag("seed", "RNG seed for the drop", "1");
  if (!cli.parse(argc, argv)) return 0;

  // 1. Describe the deployment. Defaults follow the paper's Sec. V:
  //    S=9 cells (ISD 1 km), B=20 MHz / N=3 sub-bands, f_s=20 GHz,
  //    f_u=1 GHz, p_u=10 dBm, d_u=420 KB, w_u=1000 Megacycles.
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  const mec::Scenario scenario =
      mec::ScenarioBuilder()
          .num_users(static_cast<std::size_t>(cli.get_int("users")))
          .build(rng);

  // 2. Solve. TSAJS = threshold-triggered simulated annealing over the
  //    offloading decision, with the KKT closed form for CPU allocation
  //    folded into every objective evaluation.
  const algo::TsajsScheduler scheduler;
  const jtora::CompiledProblem problem(scenario);
  const algo::ScheduleResult result = algo::run_and_validate(
      scheduler, {.problem = &problem, .rng = &rng});

  std::cout << "network : " << scenario.num_users() << " users, "
            << scenario.num_servers() << " cells, "
            << scenario.num_subchannels() << " sub-bands\n"
            << "utility : " << format_double(result.system_utility, 4)
            << " (J* of Eq. 24)\n"
            << "offload : " << result.assignment.num_offloaded() << "/"
            << scenario.num_users() << " users\n"
            << "solved  : " << units::duration_string(result.solve_seconds)
            << " (" << result.evaluations << " objective evaluations)\n";

  // 3. Inspect per-user outcomes under the optimal resource allocation.
  const jtora::UtilityEvaluator evaluator(problem);
  const jtora::Evaluation eval = evaluator.evaluate(result.assignment);

  Table table({"user", "decision", "rate", "delay", "local delay", "energy",
               "local energy", "J_u"});
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    const jtora::UserOutcome& outcome = eval.users[u];
    std::string decision = "local";
    if (const auto slot = result.assignment.slot_of(u); slot.has_value()) {
      decision = "s" + std::to_string(slot->server) + "/ch" +
                 std::to_string(slot->subchannel);
    }
    table.add_row({std::to_string(u), decision,
                   outcome.offloaded
                       ? units::si_string(outcome.link.rate_bps, "bps")
                       : "-",
                   units::duration_string(outcome.total_delay_s),
                   units::duration_string(scenario.user(u).local_time_s()),
                   format_double(outcome.energy_j, 4) + " J",
                   format_double(scenario.user(u).local_energy_j(), 2) + " J",
                   format_double(outcome.utility, 3)});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
