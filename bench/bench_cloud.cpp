// Cloud-forwarding sweep: does the third tier pay off under edge overload?
//
// The three-tier extension lets an admitted task be forwarded over the
// serving edge server's backhaul into a large shared cloud pool
// (mec::CloudTier). Forwarding cannot add radio capacity — a forwarded user
// still holds its uplink slot — so it only pays when the *edge compute*
// pools are the bottleneck: many admitted users sharing a modest f_s drive
// the CRA cost Lambda up, and moving the heaviest tasks to the cloud
// relieves every remaining edge occupant.
//
// This bench builds exactly that regime: a user-count sweep with
// sub-channels scaled so every user has a slot (N = ceil(U/S)) and a
// deliberately small edge CPU, solved twice per drop — once with the cloud
// disabled (the paper's two-tier model) and once with a uniform cloud tier
// enabled — over identical drops (same seeds), for every scheme under test.
// Reported per point: two-tier vs three-tier mean utility and the delta.
// Expected shape: the delta grows with U (deepening edge overload) and is
// ~0 when the edge is uncontended.
//
// With --json PATH the raw accumulators are dumped; the checked-in
// reference lives in bench/BENCH_cloud.json.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.h"
#include "common/units.h"
#include "exp/json_writer.h"

using namespace tsajs;

namespace {

int run(int argc, char** argv) {
  CliParser cli(
      "bench_cloud — two-tier vs three-tier utility under edge overload "
      "(cloud forwarding on identical drops)");
  bench::add_common_flags(cli, /*trials=*/"10", "tsajs,hjtora,greedy");
  cli.add_flag("users", "user-count sweep", "30,60,90,120");
  cli.add_flag("servers", "edge servers (hex cells)", "9");
  cli.add_flag("edge-cpu-ghz",
               "edge server CPU [GHz]; small values create the compute "
               "overload the cloud is for",
               "4");
  cli.add_flag("cloud-cpu-ghz", "cloud pool capacity [GHz]", "100");
  cli.add_flag("backhaul-mbps", "per-server backhaul rate [Mbit/s]", "200");
  cli.add_flag("backhaul-latency-ms", "backhaul propagation latency [ms]",
               "20");
  cli.add_flag("max-forwarded",
               "cloud admission cap (0 = unlimited, CRA pool is the brake)",
               "0");
  cli.add_flag("json", "JSON output path (empty = off)", "");
  if (!cli.parse(argc, argv)) return 0;

  bench::BenchOptions options = bench::read_common_flags(cli);
  const std::vector<double> user_counts = cli.get_double_list("users");
  const auto servers = static_cast<std::size_t>(cli.get_uint("servers"));
  const double edge_cpu_hz = cli.get_double("edge-cpu-ghz") * 1e9;
  const double cloud_cpu_hz = cli.get_double("cloud-cpu-ghz") * 1e9;
  const double backhaul_bps = cli.get_double("backhaul-mbps") * 1e6;
  const double backhaul_latency_s =
      cli.get_double("backhaul-latency-ms") * 1e-3;
  const auto max_forwarded =
      static_cast<std::size_t>(cli.get_uint("max-forwarded"));

  std::vector<std::string> labels;
  std::vector<mec::ScenarioBuilder> off_builders;
  std::vector<mec::ScenarioBuilder> on_builders;
  for (const double u : user_counts) {
    labels.push_back(format_double(u, 0));
    mec::ScenarioBuilder base;
    base.num_users(static_cast<std::size_t>(u))
        .num_servers(servers)
        .server_cpu_hz(edge_cpu_hz);
    // Every user gets a slot: the sweep stresses compute, not spectrum.
    const auto needed = static_cast<std::size_t>(
        (static_cast<std::size_t>(u) + servers - 1) / servers);
    base.num_subchannels(std::max<std::size_t>(needed, 1));
    off_builders.push_back(base);
    on_builders.push_back(base.cloud(cloud_cpu_hz, backhaul_bps,
                                     backhaul_latency_s, max_forwarded));
  }

  // Same BenchOptions (and therefore the same per-trial derived seeds) for
  // both sweeps: point i solves the identical drops with and without the
  // tier, so the delta is a paired comparison.
  const auto off_rows = bench::run_sweep(options, labels, off_builders);
  const auto on_rows = bench::run_sweep(options, labels, on_builders);

  std::vector<std::string> header{"U"};
  for (const auto& stats : off_rows.front()) {
    header.push_back(stats.scheme + " off / on (delta)");
  }
  Table table(header);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    std::vector<std::string> row{labels[i]};
    for (std::size_t k = 0; k < off_rows[i].size(); ++k) {
      const double off = off_rows[i][k].utility.mean();
      const double on = on_rows[i][k].utility.mean();
      row.push_back(format_double(off, 3) + " / " + format_double(on, 3) +
                    " (+" + format_double(on - off, 3) + ")");
    }
    table.add_row(row);
  }
  std::cout << "\n== Cloud sweep: two-tier vs three-tier utility (edge "
            << format_double(edge_cpu_hz / 1e9, 0) << " GHz, cloud "
            << format_double(cloud_cpu_hz / 1e9, 0) << " GHz, seed "
            << options.seed << ") ==\n";
  table.print(std::cout);

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    TSAJS_REQUIRE(out.good(), "cannot open JSON output: " + json_path);
    out << "{\"bench\":\"cloud_sweep\",\"trials\":" << options.trials
        << ",\"chain_length\":" << options.chain_length
        << ",\"seed\":" << options.seed << ",\"edge_cpu_hz\":" << edge_cpu_hz
        << ",\"cloud_cpu_hz\":" << cloud_cpu_hz
        << ",\"backhaul_bps\":" << backhaul_bps
        << ",\"backhaul_latency_s\":" << backhaul_latency_s
        << ",\"max_forwarded\":" << max_forwarded << ",\"points\":[";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) out << ',';
      out << "{\"users\":" << labels[i] << ",\"schemes\":[";
      for (std::size_t k = 0; k < off_rows[i].size(); ++k) {
        if (k > 0) out << ',';
        out << "{\"scheme\":\"" << exp::json_escape(off_rows[i][k].scheme)
            << "\",\"two_tier_utility\":" << exp::json_of(off_rows[i][k].utility)
            << ",\"three_tier_utility\":" << exp::json_of(on_rows[i][k].utility)
            << ",\"utility_delta\":"
            << on_rows[i][k].utility.mean() - off_rows[i][k].utility.mean()
            << '}';
      }
      out << "]}";
    }
    out << "]}\n";
    TSAJS_REQUIRE(out.good(), "failed writing JSON output: " + json_path);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
