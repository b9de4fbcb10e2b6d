// Micro-benchmarks (google-benchmark) of the hot paths underneath every
// scheduler: channel generation, SINR/rate evaluation, the CRA closed form,
// the full system-utility objective, one neighborhood step, and end-to-end
// solves of each scheme on the default network.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "algo/neighborhood.h"
#include "common/thread_pool.h"
#include "algo/registry.h"
#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "jtora/compiled_problem.h"
#include "jtora/incremental.h"
#include "jtora/utility.h"
#include "common/units.h"
#include "mec/scenario_builder.h"
#include "mec/scenario_workspace.h"
#include "radio/channel.h"
#include "radio/pathloss.h"

namespace {

using namespace tsajs;

mec::Scenario default_scenario(std::size_t users) {
  Rng rng(42);
  return mec::ScenarioBuilder().num_users(users).build(rng);
}

void BM_ScenarioBuild(benchmark::State& state) {
  Rng rng(7);
  const auto users = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const mec::Scenario scenario =
        mec::ScenarioBuilder().num_users(users).build(rng);
    benchmark::DoNotOptimize(scenario.num_users());
  }
}
BENCHMARK(BM_ScenarioBuild)->Arg(10)->Arg(50)->Arg(90);

// Compiling a scenario into the shared flat-array problem layer: the price
// every one-shot caller pays before any evaluator can run.
void BM_CompileProblem(benchmark::State& state) {
  const mec::Scenario scenario =
      default_scenario(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const jtora::CompiledProblem problem(scenario);
    benchmark::DoNotOptimize(problem.num_users());
  }
}
BENCHMARK(BM_CompileProblem)->Arg(10)->Arg(50)->Arg(90);

// Recompilation into an existing CompiledProblem: every value is
// recomputed and only the buffers are reused, as in sim::GridState's
// per-snapshot compile(). Against BM_CompileProblem it measures what buffer
// reuse saves.
void BM_CompileProblemReuse(benchmark::State& state) {
  const mec::Scenario scenario =
      default_scenario(static_cast<std::size_t>(state.range(0)));
  jtora::CompiledProblem problem(scenario);
  for (auto _ : state) {
    problem.compile(scenario);
    benchmark::DoNotOptimize(problem.num_users());
  }
}
BENCHMARK(BM_CompileProblemReuse)->Arg(10)->Arg(50)->Arg(90);

// The staging shape of a faults_durable decision: 453 sessions against a
// 61-site grid with 4 sub-channels (110,532 gains).
const mec::Scenario& durable_staging() {
  static const mec::Scenario scenario = [] {
    Rng rng(13);
    return mec::ScenarioBuilder()
        .num_users(453)
        .num_servers(61)
        .num_subchannels(4)
        .build(rng);
  }();
  return scenario;
}

// One decision's channel redraw at that shape with every path-loss row
// cached: a shadowing draw and a pow per link, the gain stored on each of
// its 4 sub-channels.
void BM_ChannelRedraw(benchmark::State& state) {
  const mec::Scenario& shape = durable_staging();
  std::vector<geo::Point> users;
  std::vector<geo::Point> sites;
  for (const mec::UserEquipment& ue : shape.users()) {
    users.push_back(ue.position);
  }
  for (const mec::EdgeServer& bs : shape.servers()) {
    sites.push_back(bs.position);
  }
  const radio::ChannelModel channel = radio::make_paper_channel();
  radio::PathLossCache cache;
  cache.reset(users.size(), sites.size());
  Matrix3<double> gains;
  Rng rng(11);
  channel.regenerate_into(users, sites, 4, rng, gains, &cache);  // warm
  for (auto _ : state) {
    channel.regenerate_into(users, sites, 4, rng, gains, &cache);
    benchmark::DoNotOptimize(gains.flat().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ChannelRedraw)->Unit(benchmark::kMicrosecond);

// BM_ChannelRedraw's yardstick: the same normal() and pow calls on the same
// stream over the same cached path losses, one store per link. What
// BM_ChannelRedraw spends beyond it is staging, not libm.
void BM_ChannelRedraw_LibmOnly(benchmark::State& state) {
  const mec::Scenario& shape = durable_staging();
  std::vector<double> loss_db;
  for (const mec::UserEquipment& ue : shape.users()) {
    for (const mec::EdgeServer& bs : shape.servers()) {
      loss_db.push_back(
          radio::paper_pathloss_db(geo::distance(ue.position, bs.position)));
    }
  }
  std::vector<double> gains(loss_db.size());
  Rng rng(11);
  for (std::size_t k = 0; k < loss_db.size(); ++k) {
    (void)rng.normal();  // BM_ChannelRedraw's warm-up draws
  }
  for (auto _ : state) {
    for (std::size_t k = 0; k < loss_db.size(); ++k) {
      const double shadow_db = 0.0 + 8.0 * rng.normal();
      gains[k] = units::db_to_linear(-(loss_db[k] + shadow_db));
    }
    benchmark::DoNotOptimize(gains.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ChannelRedraw_LibmOnly)->Unit(benchmark::kMicrosecond);

// A decision's ScenarioWorkspace commit at the same shape: the Scenario's
// validation, its gain check over all 110,532 gains included. begin_epoch
// reclaims the staged tensor with its values, so each iteration restages
// only the 453 users.
void BM_ScenarioCommit(benchmark::State& state) {
  const mec::Scenario& shape = durable_staging();
  mec::ScenarioWorkspace ws(shape.servers(), shape.spectrum(),
                            shape.noise_w());
  ws.begin_epoch();
  ws.gains() = shape.gains();
  for (auto _ : state) {
    ws.begin_epoch();
    ws.users().assign(shape.users().begin(), shape.users().end());
    benchmark::DoNotOptimize(&ws.commit());
  }
}
BENCHMARK(BM_ScenarioCommit)->Unit(benchmark::kMicrosecond);

// Evaluator construction on top of an already-compiled problem (the path
// schedulers take per solve).
void BM_EvaluatorConstruction_Shared(benchmark::State& state) {
  const mec::Scenario scenario =
      default_scenario(static_cast<std::size_t>(state.range(0)));
  const jtora::CompiledProblem problem(scenario);
  for (auto _ : state) {
    const jtora::UtilityEvaluator evaluator(problem);
    benchmark::DoNotOptimize(&evaluator);
  }
}
BENCHMARK(BM_EvaluatorConstruction_Shared)->Arg(50);

void BM_SystemUtility(benchmark::State& state) {
  const mec::Scenario scenario =
      default_scenario(static_cast<std::size_t>(state.range(0)));
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  Rng rng(1);
  const jtora::Assignment x =
      algo::random_feasible_assignment(scenario, rng, 0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.system_utility(x));
  }
}
BENCHMARK(BM_SystemUtility)->Arg(10)->Arg(50)->Arg(90);

void BM_FullEvaluate(benchmark::State& state) {
  const mec::Scenario scenario =
      default_scenario(static_cast<std::size_t>(state.range(0)));
  const jtora::CompiledProblem problem(scenario);
  const jtora::UtilityEvaluator evaluator(problem);
  Rng rng(2);
  const jtora::Assignment x =
      algo::random_feasible_assignment(scenario, rng, 0.7);
  for (auto _ : state) {
    const jtora::Evaluation eval = evaluator.evaluate(x);
    benchmark::DoNotOptimize(eval.system_utility);
  }
}
BENCHMARK(BM_FullEvaluate)->Arg(50);

void BM_CraClosedForm(benchmark::State& state) {
  const mec::Scenario scenario = default_scenario(50);
  const jtora::CompiledProblem problem(scenario);
  const jtora::CraSolver solver(problem);
  Rng rng(3);
  const jtora::Assignment x =
      algo::random_feasible_assignment(scenario, rng, 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.optimal_objective(x));
  }
}
BENCHMARK(BM_CraClosedForm);

void BM_NeighborhoodStep(benchmark::State& state) {
  const mec::Scenario scenario = default_scenario(50);
  const algo::Neighborhood neighborhood(scenario);
  Rng rng(4);
  jtora::Assignment x = algo::random_feasible_assignment(scenario, rng, 0.5);
  for (auto _ : state) {
    neighborhood.step(x, rng);
    benchmark::DoNotOptimize(x.num_offloaded());
  }
}
BENCHMARK(BM_NeighborhoodStep);

// Cost of *rejecting* one annealer proposal on the preview/commit protocol:
// propose, preview, discard. Nothing is mutated, so there is nothing to undo.
void BM_IncrementalPreviewReject(benchmark::State& state) {
  const mec::Scenario scenario =
      default_scenario(static_cast<std::size_t>(state.range(0)));
  const algo::Neighborhood neighborhood(scenario);
  Rng rng(8);
  const jtora::Assignment x =
      algo::random_feasible_assignment(scenario, rng, 0.5);
  const jtora::CompiledProblem problem(scenario);
  jtora::IncrementalEvaluator inc(problem, x);
  algo::Neighborhood::Move move;
  for (auto _ : state) {
    move = neighborhood.propose(inc, rng);
    benchmark::DoNotOptimize(neighborhood.preview(inc, move));
  }
}
BENCHMARK(BM_IncrementalPreviewReject)->Arg(30)->Arg(90);

void BM_AssignmentCopy(benchmark::State& state) {
  const mec::Scenario scenario = default_scenario(90);
  Rng rng(5);
  const jtora::Assignment x =
      algo::random_feasible_assignment(scenario, rng, 0.7);
  for (auto _ : state) {
    jtora::Assignment copy = x;
    benchmark::DoNotOptimize(copy.num_offloaded());
  }
}
BENCHMARK(BM_AssignmentCopy);

// Times compile + solve: the problem is compiled inside the loop, as a
// one-shot caller pays it.
void BM_SchedulerSolve(benchmark::State& state, const char* scheme,
                       std::size_t users) {
  const mec::Scenario scenario = default_scenario(users);
  const auto scheduler = algo::make_scheduler(scheme);
  Rng rng(6);
  for (auto _ : state) {
    const jtora::CompiledProblem problem(scenario);
    const algo::ScheduleResult result =
        scheduler->solve({.problem = &problem, .rng = &rng});
    benchmark::DoNotOptimize(result.system_utility);
  }
}
BENCHMARK_CAPTURE(BM_SchedulerSolve, tsajs_u30, "tsajs", 30);
BENCHMARK_CAPTURE(BM_SchedulerSolve, hjtora_u30, "hjtora", 30);
BENCHMARK_CAPTURE(BM_SchedulerSolve, local_search_u30, "local-search", 30);
BENCHMARK_CAPTURE(BM_SchedulerSolve, greedy_u30, "greedy", 30);

// One warm TTSA proposal on the converged state of a full 16x4 cell (64
// users, a cold TSAJS solve then a warm one): propose, then preview with the
// annealer's rejection floor at T = 1e-6 (Floored) or with none (Exact).
// Both draw the same seeded proposal stream, so the pair's within-run ratio
// is what the floor saves per warm proposal, with no machine normalization.
void run_warm_proposals(benchmark::State& state, double rejection_floor) {
  Rng rng(5);
  const mec::Scenario scenario = mec::ScenarioBuilder()
                                     .num_users(64)
                                     .num_servers(16)
                                     .num_subchannels(4)
                                     .build(rng);
  const jtora::CompiledProblem problem(scenario);
  const algo::TsajsScheduler tsajs;
  const algo::ScheduleResult cold =
      tsajs.solve({.problem = &problem, .rng = &rng});
  const algo::ScheduleResult warm = tsajs.solve(
      {.problem = &problem, .hint = &cold.assignment, .rng = &rng});
  const jtora::IncrementalEvaluator inc(problem, warm.assignment);
  const algo::Neighborhood neighborhood(scenario);
  Rng proposals(9);
  for (auto _ : state) {
    const algo::Neighborhood::Move move = neighborhood.propose(inc, proposals);
    benchmark::DoNotOptimize(neighborhood.preview(inc, move, rejection_floor));
  }
}

void BM_WarmProposal_Exact(benchmark::State& state) {
  run_warm_proposals(state, jtora::IncrementalEvaluator::kNoFloor);
}
BENCHMARK(BM_WarmProposal_Exact);

void BM_WarmProposal_Floored(benchmark::State& state) {
  run_warm_proposals(state, -750.0 * 1e-6);
}
BENCHMARK(BM_WarmProposal_Floored);

// One warm TSAJS solve as a cell_tsajs decision runs it: a full 16x4 cell
// (64 users) whose channel was redrawn since the last solve, warm-started
// from that solve's assignment, under the workload's 20,000-evaluation
// budget. The redraws are a ring of eight shadowing draws over fixed
// positions, compiled up front, so only the solve is timed: hint repair,
// every proposal and preview, the annealer's uniform draw and exp, and the
// commits that BM_WarmProposal_* leave out.
void BM_WarmSolve(benchmark::State& state) {
  Rng rng(5);
  const mec::Scenario base = mec::ScenarioBuilder()
                                 .num_users(64)
                                 .num_servers(16)
                                 .num_subchannels(4)
                                 .build(rng);
  std::vector<geo::Point> users;
  std::vector<geo::Point> sites;
  for (const mec::UserEquipment& ue : base.users()) {
    users.push_back(ue.position);
  }
  for (const mec::EdgeServer& bs : base.servers()) {
    sites.push_back(bs.position);
  }
  const radio::ChannelModel channel = radio::make_paper_channel();
  std::vector<mec::Scenario> redraws;
  redraws.reserve(8);  // the problems below point into this vector
  for (int k = 0; k < 8; ++k) {
    redraws.emplace_back(base.users(), base.servers(), base.spectrum(),
                         base.noise_w(),
                         channel.generate(users, sites, 4, rng));
  }
  std::vector<std::unique_ptr<jtora::CompiledProblem>> problems;
  for (const mec::Scenario& redraw : redraws) {
    problems.push_back(std::make_unique<jtora::CompiledProblem>(redraw));
  }
  const algo::TsajsScheduler tsajs;
  const algo::SolveBudget budget{.max_iterations = 20000};
  algo::ScheduleResult last =
      tsajs.solve({.problem = problems[0].get(), .rng = &rng});
  std::size_t next = 1;
  for (auto _ : state) {
    last = tsajs.solve({.problem = problems[next].get(),
                        .hint = &last.assignment,
                        .budget = &budget,
                        .rng = &rng});
    next = (next + 1) % problems.size();
    benchmark::DoNotOptimize(last.system_utility);
  }
}
BENCHMARK(BM_WarmSolve)->Unit(benchmark::kMicrosecond);

// Batch preview scoring: one sub-channel row of candidate utilities (the
// co-channel occupant deltas hoisted once) vs one preview_offload call per
// free server, each re-walking the occupants. Sparse assignment so the
// sub-channel actually has free servers to score.
void BM_PreviewRow_Batch(benchmark::State& state) {
  const mec::Scenario scenario = default_scenario(90);
  const jtora::CompiledProblem problem(scenario);
  Rng rng(11);
  jtora::Assignment x = algo::random_feasible_assignment(scenario, rng, 0.15);
  if (x.is_offloaded(0)) x.make_local(0);
  const jtora::IncrementalEvaluator inc(problem, x);
  // Every server is a candidate, so the row stays comparable with the
  // recorded baseline and with BM_PreviewRow_Scalar.
  std::vector<std::size_t> servers(scenario.num_servers());
  std::iota(servers.begin(), servers.end(), std::size_t{0});
  std::vector<double> row(scenario.num_servers());
  for (auto _ : state) {
    inc.preview_offload_subchannel(0, 0, servers, row.data());
    benchmark::DoNotOptimize(row.data());
  }
}
BENCHMARK(BM_PreviewRow_Batch);

void BM_PreviewRow_Scalar(benchmark::State& state) {
  const mec::Scenario scenario = default_scenario(90);
  const jtora::CompiledProblem problem(scenario);
  Rng rng(11);
  jtora::Assignment x = algo::random_feasible_assignment(scenario, rng, 0.15);
  if (x.is_offloaded(0)) x.make_local(0);
  const jtora::IncrementalEvaluator inc(problem, x);
  double total = 0.0;
  for (auto _ : state) {
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      if (x.occupant(s, 0).has_value() || !scenario.slot_available(s, 0)) {
        continue;
      }
      total += inc.preview_offload(0, s, 0);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PreviewRow_Scalar);

// One boundary user's argmax in the sharded fixup, on the converged state
// of a full 37x8 city grid (296 users, a cold sharded:tsajs solve): the
// first offloaded user is lifted out of its slot and every server is a
// candidate. Exact scores every sub-channel row with no floor and keeps
// the first strict improvement; Bounded is IncrementalEvaluator::
// best_offload seeded with the user's old slot. Both return the same slot,
// utility bits and scored-slot count, so the pair's within-run ratio is
// what the bound saves per boundary user.
struct FixupArgmaxCase {
  std::optional<jtora::IncrementalEvaluator> lifted;  // the user made local
  std::size_t user = 0;
  std::optional<jtora::Slot> seed;
  std::vector<std::size_t> servers;
};

const FixupArgmaxCase& converged_city() {
  static const mec::Scenario scenario = [] {
    Rng rng(37);
    return mec::ScenarioBuilder()
        .num_users(296)
        .num_servers(37)
        .num_subchannels(8)
        .build(rng);
  }();
  static const jtora::CompiledProblem problem(scenario);
  static const FixupArgmaxCase fixup = [] {
    FixupArgmaxCase c;
    Rng rng(3);
    const algo::ScheduleResult result =
        algo::make_scheduler("sharded:tsajs")
            ->solve({.problem = &problem, .rng = &rng});
    c.lifted.emplace(problem, result.assignment);
    while (!c.lifted->is_offloaded(c.user)) ++c.user;
    c.seed = c.lifted->slot_of(c.user);
    c.lifted->make_local(c.user);
    c.servers.resize(scenario.num_servers());
    std::iota(c.servers.begin(), c.servers.end(), std::size_t{0});
    return c;
  }();
  return fixup;
}

void BM_FixupArgmax_Exact(benchmark::State& state) {
  const FixupArgmaxCase& c = converged_city();
  const jtora::IncrementalEvaluator& inc = *c.lifted;
  std::vector<double> row(c.servers.size());
  for (auto _ : state) {
    double best = inc.utility();
    std::size_t scored = 1;
    for (std::size_t j = 0; j < inc.problem().num_subchannels(); ++j) {
      inc.preview_offload_subchannel(c.user, j, c.servers, row.data());
      for (const double value : row) {
        if (std::isnan(value)) continue;
        ++scored;
        if (value > best) best = value;
      }
    }
    benchmark::DoNotOptimize(best);
    benchmark::DoNotOptimize(scored);
  }
}
BENCHMARK(BM_FixupArgmax_Exact);

void BM_FixupArgmax_Bounded(benchmark::State& state) {
  const FixupArgmaxCase& c = converged_city();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.lifted->best_offload(c.user, c.servers, c.seed));
  }
}
BENCHMARK(BM_FixupArgmax_Bounded);

// Chunked parallel_for dispatch: per-task overhead (queue, wake-up and the
// counted join) across grain sizes, over a body cheap enough that dispatch
// dominates. Grain 1 is
// the historical one-task-per-index path; larger grains batch indices per
// task (what the sharded fixup uses when shards outnumber workers); 0 is
// the even-split mode. Two workers keep the measurement meaningful on the
// 1-core CI container without oversubscribing it.
void BM_ParallelForGrain(benchmark::State& state) {
  ThreadPool pool(2);
  const std::size_t n = 8192;
  std::vector<double> out(n, 0.0);
  const auto grain = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    pool.parallel_for(
        n, [&](std::size_t i) { out[i] += static_cast<double>(i); }, grain);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForGrain)->Arg(1)->Arg(64)->Arg(1024)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
