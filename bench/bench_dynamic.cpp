// Warm-start vs cold-start epoch scheduling in the dynamic simulator.
//
// Runs the same simulated timeline (mobility, arrivals, channels — the
// environment RNG stream is identical in both modes) twice per population
// point: once solving every epoch from scratch, once seeding each solve
// with the previous epoch's repaired assignment (sim::WarmStart::kWarm).
// Reported per point:
//
//   * mean per-epoch solve time (the headline: warm starts skip the high-
//     temperature random-walk phase of the anneal),
//   * mean per-epoch system utility with a 95% CI across scheduled epochs
//     (the guardrail: warm means must stay inside the cold CI),
//   * the cold/warm solve-time ratio ("speedup").
//
// With --json PATH the raw accumulators are dumped as a JSON document; the
// checked-in reference lives in bench/BENCH_dynamic.json.
//
// A second mode, --fault-sweep M1,M2,... (server MTBF in epochs; 0 =
// healthy baseline), injects randomized server outages / sub-channel
// blackouts into the timeline and reports graceful degradation instead:
// faulted-epoch counts, evictions off dead resources, the utility drop
// during outages, and epochs-to-recover — warm vs cold over the same
// fault schedule. Reference output: bench/BENCH_fault.json.
#include <fstream>
#include <iostream>
#include <sstream>

#include "algo/registry.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"
#include "common/units.h"
#include "exp/json_writer.h"
#include "sim/dynamic.h"

using namespace tsajs;

namespace {

struct Point {
  std::size_t population = 0;
  sim::DynamicReport cold;
  sim::DynamicReport warm;

  [[nodiscard]] double speedup() const {
    const double warm_s = warm.solve_seconds.mean();
    return warm_s > 0.0 ? cold.solve_seconds.mean() / warm_s : 0.0;
  }
};

std::string json_of_report(const sim::DynamicReport& report) {
  std::ostringstream os;
  os << "{\"utility\":" << exp::json_of(report.utility)
     << ",\"solve_seconds\":" << exp::json_of(report.solve_seconds)
     << ",\"offload_ratio\":" << exp::json_of(report.offload_ratio)
     << ",\"mean_delay_s\":" << exp::json_of(report.mean_delay_s)
     << ",\"mean_energy_j\":" << exp::json_of(report.mean_energy_j)
     << ",\"empty_epochs\":" << report.empty_epochs << '}';
  return os.str();
}

// The base report plus the degradation telemetry the fault sweep is about.
std::string json_of_fault_report(const sim::DynamicReport& report) {
  std::ostringstream os;
  os << "{\"utility\":" << exp::json_of(report.utility)
     << ",\"solve_seconds\":" << exp::json_of(report.solve_seconds)
     << ",\"faulted_epochs\":" << report.faulted_epochs
     << ",\"total_evictions\":" << report.total_evictions
     << ",\"healthy_utility\":" << exp::json_of(report.healthy_utility)
     << ",\"faulted_utility\":" << exp::json_of(report.faulted_utility)
     << ",\"epochs_to_recover\":" << exp::json_of(report.epochs_to_recover)
     << ",\"empty_epochs\":" << report.empty_epochs << '}';
  return os.str();
}

struct FaultPoint {
  double mtbf_epochs = 0.0;  // 0 = healthy baseline (faults disabled)
  sim::DynamicReport cold;
  sim::DynamicReport warm;
};

/// Utility drop during outages: healthy-epoch mean minus faulted-epoch
/// mean; zero when one of the sides has no samples (all-healthy runs).
double utility_drop(const sim::DynamicReport& report) {
  if (report.healthy_utility.count() == 0 ||
      report.faulted_utility.count() == 0) {
    return 0.0;
  }
  return report.healthy_utility.mean() - report.faulted_utility.mean();
}

int run(int argc, char** argv) {
  CliParser cli(
      "bench_dynamic — warm-start vs cold-start per-epoch solve time in the "
      "dynamic simulator, over identical timelines");
  cli.add_flag("populations", "population sweep", "60,90");
  cli.add_flag("epochs", "scheduling epochs per run", "30");
  cli.add_flag("scheme", "scheduler under test", "tsajs");
  cli.add_flag("chain-length", "TSAJS Markov-chain length L", "30");
  cli.add_flag("activity", "per-epoch task arrival probability", "0.6");
  cli.add_flag("servers", "edge servers (hex cells)", "9");
  cli.add_flag("subchannels", "sub-channels per server", "3");
  cli.add_flag("seed", "RNG seed shared by the paired runs", "20250704");
  cli.add_flag("json", "JSON output path (empty = off)", "");
  cli.add_flag("fault-sweep",
               "server MTBF sweep in epochs (0 = healthy baseline); "
               "non-empty switches to the fault/degradation bench",
               "");
  cli.add_flag("fault-mttr", "server mean time to repair [epochs]", "3");
  cli.add_flag("fault-blackout",
               "per-epoch sub-channel blackout probability", "0.02");
  if (!cli.parse(argc, argv)) return 0;

  algo::RegistryOptions options;
  options.chain_length = static_cast<std::size_t>(cli.get_uint("chain-length"));
  const auto scheduler = algo::make_scheduler(cli.get_string("scheme"), options);

  sim::DynamicConfig config;
  config.epochs = static_cast<std::size_t>(cli.get_uint("epochs"));
  config.activity_prob = cli.get_double("activity");
  const auto num_servers = static_cast<std::size_t>(cli.get_uint("servers"));
  const auto num_subchannels =
      static_cast<std::size_t>(cli.get_uint("subchannels"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const std::vector<double> fault_sweep = cli.get_double_list("fault-sweep");
  if (!fault_sweep.empty()) {
    // Fault/degradation mode: sweep server MTBF at the first population
    // point; each MTBF value gets its own randomized fault schedule, run
    // warm and cold over the identical timeline.
    const auto population =
        static_cast<std::size_t>(cli.get_double_list("populations").front());
    std::vector<FaultPoint> fault_points;
    for (const double mtbf : fault_sweep) {
      sim::DynamicConfig fault_config = config;
      fault_config.fault.server_mtbf_epochs = mtbf;  // 0 keeps faults off
      fault_config.fault.server_mttr_epochs = cli.get_double("fault-mttr");
      if (mtbf > 0.0) {
        fault_config.fault.subchannel_blackout_prob =
            cli.get_double("fault-blackout");
      }
      FaultPoint point;
      point.mtbf_epochs = mtbf;
      const sim::DynamicSimulator simulator(population, num_servers,
                                            num_subchannels, fault_config);
      Rng rng_cold(seed);
      point.cold = simulator.run(*scheduler, rng_cold, sim::WarmStart::kCold);
      Rng rng_warm(seed);  // identical timeline and fault schedule
      point.warm = simulator.run(*scheduler, rng_warm, sim::WarmStart::kWarm);
      fault_points.push_back(std::move(point));
    }

    Table table({"MTBF [epochs]", "faulted epochs", "evictions (c/w)",
                 "cold utility", "warm utility", "util drop (warm)",
                 "recover [epochs]"});
    for (const FaultPoint& point : fault_points) {
      const Accumulator& recover = point.warm.epochs_to_recover;
      table.add_row(
          {point.mtbf_epochs > 0.0 ? format_double(point.mtbf_epochs, 0)
                                   : "off",
           std::to_string(point.warm.faulted_epochs),
           std::to_string(point.cold.total_evictions) + "/" +
               std::to_string(point.warm.total_evictions),
           format_double(point.cold.utility.mean(), 3),
           format_double(point.warm.utility.mean(), 3),
           format_double(utility_drop(point.warm), 3),
           recover.count() > 0 ? format_double(recover.mean(), 2) : "-"});
    }
    std::cout << "\n== Fault sweep: graceful degradation ("
              << scheduler->name() << ", U=" << population << ", "
              << config.epochs << " epochs, seed " << seed << ") ==\n";
    table.print(std::cout);

    const std::string json_path = cli.get_string("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      TSAJS_REQUIRE(out.good(), "cannot open JSON output: " + json_path);
      out << "{\"bench\":\"dynamic_fault_sweep\",\"scheme\":\""
          << exp::json_escape(scheduler->name())
          << "\",\"population\":" << population
          << ",\"epochs\":" << config.epochs
          << ",\"mttr_epochs\":" << cli.get_double("fault-mttr")
          << ",\"blackout_prob\":" << cli.get_double("fault-blackout")
          << ",\"seed\":" << seed << ",\"points\":[";
      for (std::size_t i = 0; i < fault_points.size(); ++i) {
        if (i > 0) out << ',';
        out << "{\"mtbf_epochs\":" << fault_points[i].mtbf_epochs
            << ",\"cold\":" << json_of_fault_report(fault_points[i].cold)
            << ",\"warm\":" << json_of_fault_report(fault_points[i].warm)
            << '}';
      }
      out << "]}\n";
      TSAJS_REQUIRE(out.good(), "failed writing JSON output: " + json_path);
      std::cout << "\nwrote " << json_path << "\n";
    }
    return 0;
  }

  std::vector<Point> points;
  for (const double p : cli.get_double_list("populations")) {
    Point point;
    point.population = static_cast<std::size_t>(p);
    const sim::DynamicSimulator simulator(point.population, num_servers,
                                          num_subchannels, config);
    Rng rng_cold(seed);
    point.cold = simulator.run(*scheduler, rng_cold, sim::WarmStart::kCold);
    Rng rng_warm(seed);  // identical timeline — a paired comparison
    point.warm = simulator.run(*scheduler, rng_warm, sim::WarmStart::kWarm);
    points.push_back(std::move(point));
  }

  Table table({"population", "cold solve", "warm solve", "speedup",
               "cold utility (95% CI)", "warm utility", "warm in CI"});
  for (const Point& point : points) {
    const ConfidenceInterval ci = confidence_interval(point.cold.utility);
    const double warm_mean = point.warm.utility.mean();
    table.add_row(
        {std::to_string(point.population),
         units::duration_string(point.cold.solve_seconds.mean()),
         units::duration_string(point.warm.solve_seconds.mean()),
         format_double(point.speedup(), 2) + "x",
         format_double(ci.mean, 3) + " +- " + format_double(ci.half_width, 3),
         format_double(warm_mean, 3), ci.contains(warm_mean) ? "yes" : "no"});
  }
  std::cout << "\n== Warm-start vs cold-start (" << scheduler->name() << ", "
            << config.epochs << " epochs, seed " << seed << ") ==\n";
  table.print(std::cout);

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    TSAJS_REQUIRE(out.good(), "cannot open JSON output: " + json_path);
    out << "{\"bench\":\"dynamic_warm_start\",\"scheme\":\""
        << exp::json_escape(scheduler->name())
        << "\",\"epochs\":" << config.epochs
        << ",\"chain_length\":" << options.chain_length << ",\"seed\":" << seed
        << ",\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"population\":" << points[i].population
          << ",\"cold\":" << json_of_report(points[i].cold)
          << ",\"warm\":" << json_of_report(points[i].warm)
          << ",\"speedup\":" << format_double(points[i].speedup(), 4) << '}';
    }
    out << "]}\n";
    TSAJS_REQUIRE(out.good(), "failed writing JSON output: " + json_path);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
