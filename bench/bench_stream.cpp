// Streaming service throughput: decisions/sec and solve-latency
// percentiles across arrival rates and schemes.
//
// Each point runs sim::StreamDriver over the same seeded event timeline
// (arrivals, lifetimes, and positions derive purely from the seed, so
// every scheme faces the identical offered load) and reports:
//
//   * decisions/sec — scheduling throughput (solves per wall second),
//   * solve-latency p50/p99 [ms] — the streaming P² estimates over the
//     per-decision wall clocks,
//   * mean utility per decision and the admission split
//     (admitted/queued/rejected) at that offered load.
//
// As the arrival rate climbs past the grid's admission capacity the
// backlog fills and the reject ratio grows — the saturation curve of the
// service. With --json PATH the raw numbers are dumped as JSON.
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "algo/registry.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/table.h"
#include "sim/stream.h"

using namespace tsajs;

namespace {

struct Point {
  std::string scheme;
  double rate_hz = 0.0;
  sim::StreamReport report;
};

std::string json_of_point(const Point& point) {
  std::ostringstream os;
  os << "{\"scheme\":\"" << point.scheme << "\",\"rate_hz\":" << point.rate_hz
     << ",\"decisions\":" << point.report.decisions
     << ",\"decisions_per_sec\":" << point.report.decisions_per_sec()
     << ",\"solve_p50_ms\":" << point.report.solve_p50.value() * 1e3
     << ",\"solve_p99_ms\":" << point.report.solve_p99.value() * 1e3
     << ",\"solve_mean_ms\":" << point.report.solve_seconds.mean() * 1e3
     << ",\"utility_mean\":" << point.report.utility.mean()
     << ",\"arrivals\":" << point.report.arrivals
     << ",\"admitted\":" << point.report.admitted
     << ",\"queued\":" << point.report.queued
     << ",\"promoted\":" << point.report.promoted
     << ",\"rejected\":" << point.report.rejected
     << ",\"departed\":" << point.report.departed << '}';
  return os.str();
}

int run(int argc, char** argv) {
  CliParser cli(
      "bench_stream — streaming-service throughput and solve-latency "
      "percentiles across arrival rates and schemes");
  cli.add_flag("rates", "Poisson arrival-rate sweep [1/s]", "1,2,4");
  cli.add_flag("schemes", "comma-separated scheme list", "tsajs,greedy");
  cli.add_flag("duration", "simulated horizon per point [s]", "30");
  cli.add_flag("servers", "edge servers (hex layout)", "4");
  cli.add_flag("subchannels", "sub-channels per server", "3");
  cli.add_flag("budget-iters",
               "per-decision evaluation budget (0 = unlimited)", "20000");
  cli.add_flag("max-backlog", "admission backlog bound", "8");
  cli.add_flag("chain-length", "TSAJS Markov-chain length L", "10");
  cli.add_flag("seed", "run seed shared by every point", "20250807");
  cli.add_flag("json", "JSON output path (empty = off)", "");
  if (!cli.parse(argc, argv)) return 0;

  sim::StreamConfig config;
  config.duration_s = cli.get_double("duration");
  config.decision_budget.max_iterations =
      static_cast<std::size_t>(cli.get_uint("budget-iters"));
  config.admission.max_backlog =
      static_cast<std::size_t>(cli.get_uint("max-backlog"));
  const auto num_servers = static_cast<std::size_t>(cli.get_uint("servers"));
  const auto num_subchannels =
      static_cast<std::size_t>(cli.get_uint("subchannels"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::vector<double> rates = cli.get_double_list("rates");
  TSAJS_REQUIRE(!rates.empty(), "need at least one arrival rate");
  const std::vector<std::string> schemes =
      algo::parse_scheme_list(cli.get_string("schemes"));

  algo::RegistryOptions options;
  options.chain_length = static_cast<std::size_t>(cli.get_uint("chain-length"));

  std::vector<Point> points;
  for (const double rate : rates) {
    config.arrival_rate_hz = rate;
    const sim::StreamDriver driver(num_servers, num_subchannels, config);
    for (const std::string& scheme : schemes) {
      const auto scheduler = algo::make_scheduler(scheme, options);
      Point point;
      point.scheme = scheme;
      point.rate_hz = rate;
      point.report = driver.run(*scheduler, seed);
      points.push_back(std::move(point));
    }
  }

  Table table({"rate [1/s]", "scheme", "decisions", "dec/s", "p50 [ms]",
               "p99 [ms]", "utility", "admit/queue/reject"});
  for (const Point& point : points) {
    const sim::StreamReport& r = point.report;
    table.add_row(
        {format_double(point.rate_hz, 1), point.scheme,
         std::to_string(r.decisions), format_double(r.decisions_per_sec(), 0),
         format_double(r.solve_p50.value() * 1e3, 3),
         format_double(r.solve_p99.value() * 1e3, 3),
         format_double(r.utility.mean(), 3),
         std::to_string(r.admitted) + "/" + std::to_string(r.queued) + "/" +
             std::to_string(r.rejected)});
  }
  table.print(std::cout);

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    TSAJS_REQUIRE(out.good(), "cannot open " + json_path);
    out << "{\"bench\":\"stream\",\"points\":[\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      out << "  " << json_of_point(points[i])
          << (i + 1 < points.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
