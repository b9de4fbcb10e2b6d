// Smart-city scenario — heterogeneous tasks and devices.
//
// The paper's introduction motivates MEC with smart-city workloads: traffic
// cameras running video analytics, IoT sensors with small bursts, and AR
// devices with latency-critical rendering. This example builds such a mixed
// population on the default 9-cell network, then compares all four schemes
// on the same drops and breaks the winning decision down by device class.
//
//   ./build/examples/smart_city [--users N] [--trials T]
#include <array>
#include <iostream>

#include "algo/registry.h"
#include "common/cli.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "jtora/utility.h"
#include "mec/scenario_builder.h"

using namespace tsajs;

namespace {

struct DeviceClass {
  const char* name;
  double input_kb;      // upload size
  double megacycles;    // compute load
  double beta_time;     // latency emphasis
  double local_ghz;     // device CPU
};

// Three device archetypes; users cycle through them round-robin.
constexpr std::array<DeviceClass, 3> kClasses{{
    // Traffic-camera clip analytics: big uploads, heavy compute, patient.
    {"camera", 840.0, 4000.0, 0.3, 1.2},
    // Environmental sensor burst: tiny uploads, light compute, battery-bound.
    {"sensor", 40.0, 200.0, 0.1, 0.6},
    // AR headset frame assist: medium uploads, deadline-driven.
    {"ar-headset", 420.0, 1500.0, 0.9, 1.5},
}};

mec::ScenarioBuilder make_builder(std::size_t users) {
  mec::ScenarioBuilder builder;
  builder.num_users(users).customize_users(
      [](std::size_t u, mec::UserEquipment& ue) {
        const DeviceClass& cls = kClasses[u % kClasses.size()];
        ue.task = mec::Task(units::kilobytes_to_bits(cls.input_kb),
                            units::megacycles_to_cycles(cls.megacycles));
        ue.beta_time = cls.beta_time;
        ue.beta_energy = 1.0 - cls.beta_time;
        ue.local_cpu_hz = cls.local_ghz * 1e9;
      });
  return builder;
}

int run(int argc, char** argv) {
  CliParser cli("smart_city — heterogeneous device mix on the MEC network");
  cli.add_flag("users", "number of devices", "45");
  cli.add_flag("trials", "random drops to average over", "10");
  cli.add_flag("seed", "base RNG seed", "7");
  if (!cli.parse(argc, argv)) return 0;

  const auto users = static_cast<std::size_t>(cli.get_int("users"));
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));
  const auto base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const mec::ScenarioBuilder builder = make_builder(users);

  // Compare the four schemes on identical drops.
  const std::vector<std::string> schemes{"tsajs", "hjtora", "local-search",
                                         "greedy"};
  std::vector<Accumulator> utility(schemes.size());
  // Per-class outcome accumulators under TSAJS.
  std::vector<Accumulator> class_offload_rate(kClasses.size());
  std::vector<Accumulator> class_speedup(kClasses.size());
  std::vector<Accumulator> class_energy_saving(kClasses.size());

  for (std::size_t trial = 0; trial < trials; ++trial) {
    SplitMix64 seeder(base_seed + trial);
    Rng scenario_rng(seeder.next());
    const mec::Scenario scenario = builder.build(scenario_rng);
    const jtora::CompiledProblem problem(scenario);
    const jtora::UtilityEvaluator evaluator(problem);

    for (std::size_t i = 0; i < schemes.size(); ++i) {
      Rng rng(seeder.next());
      const auto scheduler = algo::make_scheduler(schemes[i]);
      const auto result = algo::run_and_validate(
          *scheduler, {.problem = &problem, .rng = &rng});
      utility[i].add(result.system_utility);

      if (schemes[i] != "tsajs") continue;
      const jtora::Evaluation eval = evaluator.evaluate(result.assignment);
      for (std::size_t u = 0; u < users; ++u) {
        const std::size_t cls = u % kClasses.size();
        const bool off = eval.users[u].offloaded;
        class_offload_rate[cls].add(off ? 1.0 : 0.0);
        if (off) {
          class_speedup[cls].add(scenario.user(u).local_time_s() /
                                 eval.users[u].total_delay_s);
          class_energy_saving[cls].add(
              1.0 - eval.users[u].energy_j /
                        scenario.user(u).local_energy_j());
        }
      }
    }
  }

  Table comparison({"scheme", "mean system utility"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    comparison.add_row({schemes[i], format_double(utility[i].mean(), 4)});
  }
  std::cout << "\n== Smart city: scheme comparison over " << trials
            << " drops, " << users << " mixed devices ==\n";
  comparison.print(std::cout);

  Table breakdown({"device class", "offload rate", "mean speedup",
                   "mean energy saving"});
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    breakdown.add_row(
        {kClasses[c].name,
         format_double(100.0 * class_offload_rate[c].mean(), 1) + " %",
         class_speedup[c].count() > 0
             ? format_double(class_speedup[c].mean(), 2) + "x"
             : "-",
         class_energy_saving[c].count() > 0
             ? format_double(100.0 * class_energy_saving[c].mean(), 1) + " %"
             : "-"});
  }
  std::cout << "\n== Smart city: per-class outcomes under TSAJS ==\n";
  breakdown.print(std::cout);
  std::cout << "\nReading: compute-heavy cameras gain the most from MEC "
               "despite big uploads;\nsensors offload for energy, AR "
               "headsets for latency.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
