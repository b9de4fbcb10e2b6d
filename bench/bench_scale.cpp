// City-scale solves: interference-locality sharding under anytime budgets.
//
// Sweeps the user population into the tens of thousands (server count
// scales along, --users-per-server) and solves each drop with the
// "sharded:<scheme>" wrapper: the deployment is partitioned into
// interference-locality shards, each shard solved independently by the
// wrapped scheme — concurrently when --shard-threads > 1 — then boundary
// users are repaired against the global problem under the anytime
// SolveBudget (--budget-ms), which the wrapper splits across shards
// work-proportionally.
//
// --thread-sweep runs every population point at each listed thread count
// (same drops, same solve RNG stream — the scenario is built once per
// trial and the post-build RNG state is replayed per thread count), and
// the table adds a speedup column relative to the sweep's first entry.
// The sharded solve is bit-identical across thread counts under iteration
// budgets; wall-clock budgets are anytime by nature, so utilities may
// differ there while remaining within budget.
//
// Reported per (population, threads) point: deployment shape (servers,
// shards, boundary users), mean utility and offload count, solve-latency
// p50/p99 across trials, and whether every trial landed within the budget
// (solve_seconds <= budget * slack; the deadline is checked at pass
// boundaries and every 32 fixup users, so small overshoot is expected and
// --budget-slack defaults to 1.25). The validation audit of
// run_and_validate stays on at every scale.
//
// With --json PATH the raw per-trial samples are dumped as JSON; the
// checked-in reference lives in bench/BENCH_scale.json.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "algo/scheduler.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/units.h"
#include "exp/json_writer.h"
#include "geo/partition.h"
#include "jtora/compiled_problem.h"
#include "mec/scenario_builder.h"

using namespace tsajs;

namespace {

struct Trial {
  double utility = 0.0;
  double solve_seconds = 0.0;
  double compile_seconds = 0.0;
  std::size_t evaluations = 0;
  std::size_t offloaded = 0;
};

struct Point {
  std::size_t users = 0;
  std::size_t servers = 0;
  std::size_t shards = 0;
  std::size_t boundary_cells = 0;
  std::size_t shard_threads = 1;
  std::vector<Trial> trials;

  [[nodiscard]] std::vector<double> solve_samples() const {
    std::vector<double> samples;
    samples.reserve(trials.size());
    for (const Trial& t : trials) samples.push_back(t.solve_seconds);
    return samples;
  }
  [[nodiscard]] double mean_utility() const {
    Accumulator acc;
    for (const Trial& t : trials) acc.add(t.utility);
    return acc.mean();
  }
  [[nodiscard]] double max_solve() const {
    double worst = 0.0;
    for (const Trial& t : trials) worst = std::max(worst, t.solve_seconds);
    return worst;
  }
};

int run(int argc, char** argv) {
  CliParser cli(
      "bench_scale — city-scale sharded solves: population sweep into the "
      "tens of thousands of users under an anytime wall-clock budget, "
      "solved with the sharded:<scheme> interference-locality wrapper");
  cli.add_flag("users", "population sweep", "2000,5000,10000,20000");
  cli.add_flag("users-per-server",
               "server count scales with the sweep: S = max(9, U / this)",
               "25");
  cli.add_flag("subchannels", "sub-channels per server", "3");
  cli.add_flag("scheme",
               "inner scheduler wrapped by sharded: (any registry name)",
               "tsajs");
  cli.add_flag("chain-length", "TSAJS Markov-chain length L", "30");
  cli.add_flag("reach", "interference reach [m] (0 = auto from site grid)",
               "0");
  cli.add_flag("shard-threads",
               "shard-solve/fixup threads (1 = sequential, 0 = hardware)",
               "1");
  cli.add_flag("thread-sweep",
               "run every point at each of these thread counts "
               "(e.g. 1,2,8; empty = just --shard-threads)",
               "");
  cli.add_flag("budget-ms", "anytime wall-clock budget per solve [ms]",
               "2000");
  cli.add_flag("budget-slack",
               "within-budget slack factor on the recorded solve time",
               "1.25");
  cli.add_flag("trials", "drops per population point", "3");
  cli.add_flag("seed", "base RNG seed", "20250704");
  cli.add_flag("json", "JSON output path (empty = off)", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto users_per_server =
      static_cast<std::size_t>(cli.get_uint("users-per-server"));
  TSAJS_REQUIRE(users_per_server > 0, "--users-per-server must be positive");
  const auto num_subchannels =
      static_cast<std::size_t>(cli.get_uint("subchannels"));
  const auto trials = static_cast<std::size_t>(cli.get_uint("trials"));
  TSAJS_REQUIRE(trials > 0, "--trials must be positive");
  const std::uint64_t seed = cli.get_uint("seed");
  const double budget_s = cli.get_double("budget-ms") / 1000.0;
  const double slack = cli.get_double("budget-slack");
  const double reach_flag = cli.get_double("reach");

  std::vector<std::size_t> thread_list;
  for (const double value : cli.get_double_list("thread-sweep")) {
    thread_list.push_back(static_cast<std::size_t>(value));
  }
  if (thread_list.empty()) {
    thread_list.push_back(
        static_cast<std::size_t>(cli.get_uint("shard-threads")));
  }

  algo::RegistryOptions options;
  options.chain_length =
      static_cast<std::size_t>(cli.get_uint("chain-length"));
  options.budget.max_seconds = budget_s;
  options.shard_reach_m = reach_flag;
  const std::string scheme_name = "sharded:" + cli.get_string("scheme");
  // One scheduler per sweep entry: the thread count is a construction-time
  // knob.
  std::vector<std::unique_ptr<algo::Scheduler>> schedulers;
  for (const std::size_t threads : thread_list) {
    options.shard_threads = threads;
    schedulers.push_back(algo::make_scheduler(scheme_name, options));
  }

  std::vector<Point> points;
  for (const double users_value : cli.get_double_list("users")) {
    const auto num_users = static_cast<std::size_t>(users_value);
    const std::size_t num_servers =
        std::max<std::size_t>(9, num_users / users_per_server);
    const mec::ScenarioBuilder builder = mec::ScenarioBuilder()
                                             .num_users(num_users)
                                             .num_servers(num_servers)
                                             .num_subchannels(num_subchannels);
    std::vector<Point> thread_points(thread_list.size());
    for (std::size_t i = 0; i < thread_list.size(); ++i) {
      thread_points[i].users = num_users;
      thread_points[i].servers = num_servers;
      thread_points[i].shard_threads = thread_list[i];
      thread_points[i].shards = 1;
    }
    for (std::size_t t = 0; t < trials; ++t) {
      Rng rng(seed + t);  // same drops at every sweep point (paired)
      const mec::Scenario scenario = builder.build(rng);
      if (t == 0) {
        // Partition geometry is a pure function of the site grid, which is
        // deterministic for a given server count — report it once.
        std::vector<geo::Point> sites;
        for (const auto& server : scenario.servers()) {
          sites.push_back(server.position);
        }
        const double reach =
            reach_flag > 0.0 ? reach_flag
                             : geo::InterferencePartition::auto_reach(sites);
        if (reach > 0.0) {
          const geo::InterferencePartition partition(sites, reach);
          for (Point& point : thread_points) {
            point.shards = partition.num_shards();
            point.boundary_cells = partition.boundary_cells().size();
          }
        }
      }
      const Stopwatch compile_timer;
      const jtora::CompiledProblem problem(scenario);
      const double compile_seconds = compile_timer.elapsed_seconds();
      for (std::size_t i = 0; i < thread_list.size(); ++i) {
        // Replay the post-build RNG state per thread count: every sweep
        // entry solves the same drop with the same stream.
        Rng solve_rng = rng;
        Trial trial;
        trial.compile_seconds = compile_seconds;
        algo::SolveRequest request;
        request.problem = &problem;
        request.rng = &solve_rng;
        const algo::ScheduleResult result =
            algo::run_and_validate(*schedulers[i], request);
        trial.utility = result.system_utility;
        trial.solve_seconds = result.solve_seconds;
        trial.evaluations = result.evaluations;
        trial.offloaded = result.assignment.num_offloaded();
        thread_points[i].trials.push_back(trial);
      }
    }
    std::cerr << "U=" << num_users << " done (" << trials << " trials x "
              << thread_list.size() << " thread counts)\n";
    for (Point& point : thread_points) points.push_back(std::move(point));
  }

  const bool sweeping = thread_list.size() > 1;
  std::vector<std::string> headers = {
      "users",     "servers",   "shards",    "boundary cells",
      "threads",   "utility",   "offloaded", "solve p50",
      "solve p99", "within budget"};
  if (sweeping) headers.insert(headers.begin() + 9, "speedup");
  Table table(headers);
  bool all_within = true;
  for (const Point& point : points) {
    const std::vector<double> samples = point.solve_samples();
    const bool within = point.max_solve() <= budget_s * slack;
    all_within = all_within && within;
    std::vector<std::string> row = {
        std::to_string(point.users),
        std::to_string(point.servers),
        std::to_string(point.shards),
        std::to_string(point.boundary_cells),
        std::to_string(point.shard_threads),
        format_double(point.mean_utility(), 3),
        std::to_string(point.trials.front().offloaded),
        units::duration_string(quantile(samples, 0.5)),
        units::duration_string(quantile(samples, 0.99))};
    if (sweeping) {
      // Speedup vs the sweep's first entry at the same population.
      double base_p50 = 0.0;
      for (const Point& other : points) {
        if (other.users == point.users &&
            other.shard_threads == thread_list.front()) {
          base_p50 = quantile(other.solve_samples(), 0.5);
          break;
        }
      }
      const double p50 = quantile(samples, 0.5);
      row.push_back(p50 > 0.0 && base_p50 > 0.0
                        ? format_double(base_p50 / p50, 2) + "x"
                        : "-");
    }
    row.push_back(within ? "yes" : "NO");
    table.add_row(row);
  }
  std::cout << "\n== City-scale sweep (" << scheme_name << ", budget "
            << units::duration_string(budget_s) << ", seed " << seed
            << ") ==\n";
  table.print(std::cout);

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    TSAJS_REQUIRE(out.good(), "cannot open JSON output: " + json_path);
    out << "{\"bench\":\"scale_sweep\",\"scheme\":\""
        << exp::json_escape(scheme_name)
        << "\",\"budget_seconds\":" << budget_s
        << ",\"budget_slack\":" << slack
        << ",\"users_per_server\":" << users_per_server
        << ",\"subchannels\":" << num_subchannels
        << ",\"chain_length\":" << options.chain_length
        << ",\"trials\":" << trials << ",\"seed\":" << seed << ",\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& point = points[i];
      const std::vector<double> samples = point.solve_samples();
      if (i > 0) out << ',';
      out << "{\"users\":" << point.users << ",\"servers\":" << point.servers
          << ",\"shards\":" << point.shards
          << ",\"boundary_cells\":" << point.boundary_cells
          << ",\"shard_threads\":" << point.shard_threads
          << ",\"solve_p50\":" << quantile(samples, 0.5)
          << ",\"solve_p99\":" << quantile(samples, 0.99)
          << ",\"within_budget\":"
          << (point.max_solve() <= budget_s * slack ? "true" : "false")
          << ",\"trials\":[";
      for (std::size_t t = 0; t < point.trials.size(); ++t) {
        const Trial& trial = point.trials[t];
        if (t > 0) out << ',';
        out << "{\"utility\":" << format_double(trial.utility, 6)
            << ",\"solve_seconds\":" << trial.solve_seconds
            << ",\"compile_seconds\":" << trial.compile_seconds
            << ",\"evaluations\":" << trial.evaluations
            << ",\"offloaded\":" << trial.offloaded << '}';
      }
      out << "]}";
    }
    out << "]}\n";
    TSAJS_REQUIRE(out.good(), "failed writing JSON output: " + json_path);
    std::cout << "\nwrote " << json_path << "\n";
  }
  return all_within ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return run_main(argc, argv, run); }
