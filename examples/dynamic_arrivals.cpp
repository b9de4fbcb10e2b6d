// Dynamic arrivals — running the scheduler as an online service.
//
// The paper evaluates one static snapshot at a time; a deployed MEC
// controller re-solves every scheduling epoch as tasks arrive and users
// move. This example simulates such a timeline with the sim::
// DynamicSimulator (random-walk mobility, Bernoulli task arrivals,
// per-epoch channel redraws) and compares TSAJS against Greedy over the
// same timeline, epoch by epoch.
//
//   ./build/examples/dynamic_arrivals [--epochs E] [--population P]
//                                     [--seed S] [--warm | --cold]
//                                     [--server-mtbf M] [--server-mttr R]
//                                     [--channel-blackout P]
//                                     [--deadline-ms D]
//
// The fault flags inject server outages (geometric MTBF/MTTR, in epochs)
// and per-epoch sub-channel blackouts into the timeline; schedulers then
// degrade gracefully (stranded users fall back to local execution) and the
// run reports outage telemetry. --deadline-ms gives TSAJS an anytime solve
// budget: each epoch's solve returns its best feasible decision when the
// deadline fires, never worse than the all-local fallback.
#include <iostream>

#include "algo/greedy.h"
#include "algo/tsajs.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"
#include "common/units.h"
#include "sim/dynamic.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "dynamic_arrivals — multi-epoch online scheduling with mobility and "
      "task arrivals");
  cli.add_flag("epochs", "scheduling epochs to simulate", "30");
  cli.add_flag("population", "users in the network", "40");
  cli.add_flag("activity", "per-epoch task arrival probability", "0.6");
  cli.add_flag("seed", "RNG seed for the whole timeline", "17");
  cli.add_switch("warm",
                 "seed each epoch's solve with the previous epoch's repaired "
                 "assignment");
  cli.add_switch("cold", "solve every epoch from scratch (the default)");
  cli.add_flag("server-mtbf",
               "server mean time between failures [epochs] (0 = no outages)",
               "0");
  cli.add_flag("server-mttr", "server mean time to repair [epochs]", "3");
  cli.add_flag("channel-blackout",
               "per-epoch sub-channel blackout probability", "0");
  cli.add_flag("deadline-ms",
               "anytime solve deadline per epoch for TSAJS [ms] (0 = none)",
               "0");
  if (!cli.parse(argc, argv)) return 0;
  TSAJS_REQUIRE(!(cli.get_bool("warm") && cli.get_bool("cold")),
                "--warm and --cold are mutually exclusive");
  const sim::WarmStart warm = cli.get_bool("warm") ? sim::WarmStart::kWarm
                                                   : sim::WarmStart::kCold;

  sim::DynamicConfig config;
  config.epochs = static_cast<std::size_t>(cli.get_int("epochs"));
  config.activity_prob = cli.get_double("activity");
  config.fault.server_mtbf_epochs = cli.get_double("server-mtbf");
  config.fault.server_mttr_epochs = cli.get_double("server-mttr");
  config.fault.subchannel_blackout_prob = cli.get_double("channel-blackout");
  const sim::DynamicSimulator simulator(
      static_cast<std::size_t>(cli.get_int("population")),
      /*num_servers=*/9, /*num_subchannels=*/3, config);

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  algo::TsajsConfig tsajs_config;
  tsajs_config.chain_length = 10;  // online setting: favour fast solves
  tsajs_config.budget.max_seconds = cli.get_double("deadline-ms") / 1000.0;
  Rng rng_tsajs(seed);
  const sim::DynamicReport tsajs =
      simulator.run(algo::TsajsScheduler(tsajs_config), rng_tsajs, warm);
  Rng rng_greedy(seed);  // identical timeline
  const sim::DynamicReport greedy =
      simulator.run(algo::GreedyScheduler(), rng_greedy, warm);

  Table summary({"metric", "tsajs", "greedy"});
  summary.add_row({"mean epoch utility",
                   format_double(tsajs.utility.mean(), 3),
                   format_double(greedy.utility.mean(), 3)});
  summary.add_row({"mean offload ratio",
                   format_double(100.0 * tsajs.offload_ratio.mean(), 1) + " %",
                   format_double(100.0 * greedy.offload_ratio.mean(), 1) +
                       " %"});
  summary.add_row({"mean user delay [s]",
                   format_double(tsajs.mean_delay_s.mean(), 3),
                   format_double(greedy.mean_delay_s.mean(), 3)});
  summary.add_row({"mean user energy [J]",
                   format_double(tsajs.mean_energy_j.mean(), 3),
                   format_double(greedy.mean_energy_j.mean(), 3)});
  summary.add_row({"mean solve time",
                   units::duration_string(tsajs.solve_seconds.mean()),
                   units::duration_string(greedy.solve_seconds.mean())});
  if (config.fault.enabled()) {
    summary.add_row({"faulted epochs", std::to_string(tsajs.faulted_epochs),
                     std::to_string(greedy.faulted_epochs)});
    summary.add_row({"evictions (stranded users)",
                     std::to_string(tsajs.total_evictions),
                     std::to_string(greedy.total_evictions)});
    summary.add_row({"utility in outage epochs",
                     format_double(tsajs.faulted_utility.mean(), 3),
                     format_double(greedy.faulted_utility.mean(), 3)});
  }
  std::cout << "\n== Online scheduling over " << config.epochs << " epochs ("
            << (warm == sim::WarmStart::kWarm ? "warm" : "cold")
            << " starts) ==\n";
  summary.print(std::cout);

  Table timeline({"epoch", "active", "tsajs offloaded", "tsajs utility",
                  "greedy utility"});
  const std::size_t show = std::min<std::size_t>(10, tsajs.epochs.size());
  for (std::size_t e = 0; e < show; ++e) {
    timeline.add_row({std::to_string(e),
                      std::to_string(tsajs.epochs[e].active_users),
                      std::to_string(tsajs.epochs[e].offloaded),
                      format_double(tsajs.epochs[e].utility, 3),
                      format_double(greedy.epochs[e].utility, 3)});
  }
  std::cout << "\n== First " << show << " epochs ==\n";
  timeline.print(std::cout);
  std::cout << "\nReading: the search-based scheduler holds a steady utility "
               "edge across the\ntimeline while staying fast enough for "
               "per-epoch re-planning.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
