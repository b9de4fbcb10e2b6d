#include "exp/trial_runner.h"

#include "algo/scheduler.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"

namespace tsajs::exp {

namespace {

struct TrialOutcome {
  double utility = 0.0;
  double solve_seconds = 0.0;
  double offloaded = 0.0;
  double mean_delay_s = 0.0;
  double mean_energy_j = 0.0;
};

TrialOutcome run_one(const jtora::CompiledProblem& problem,
                     const algo::Scheduler& scheduler, Rng& rng) {
  const algo::ScheduleResult result =
      algo::run_and_validate(scheduler, {.problem = &problem, .rng = &rng});

  const jtora::UtilityEvaluator evaluator(problem);
  const jtora::Evaluation eval = evaluator.evaluate(result.assignment);

  TrialOutcome outcome;
  outcome.utility = result.system_utility;
  outcome.solve_seconds = result.solve_seconds;
  outcome.offloaded = static_cast<double>(result.assignment.num_offloaded());
  Accumulator delay;
  Accumulator energy;
  for (const auto& user : eval.users) {
    delay.add(user.total_delay_s);
    energy.add(user.energy_j);
  }
  outcome.mean_delay_s = delay.mean();
  outcome.mean_energy_j = energy.mean();
  return outcome;
}

}  // namespace

std::vector<SchemeStats> TrialRunner::run(const TrialSpec& spec) const {
  TSAJS_REQUIRE(spec.trials >= 1, "need at least one trial");
  TSAJS_REQUIRE(!spec.schemes.empty(), "need at least one scheme");

  // Instantiate schedulers once; solve() is const and stateless.
  std::vector<std::unique_ptr<algo::Scheduler>> schedulers;
  schedulers.reserve(spec.schemes.size());
  for (const auto& name : spec.schemes) {
    schedulers.push_back(algo::make_scheduler(name, spec.options));
  }

  // One outcome slot per (trial, scheme): a worker writes only its own
  // trial's slots, and the accumulators fold them in trial order after the
  // loop, so every statistic is independent of thread scheduling.
  const std::size_t num_schemes = schedulers.size();
  std::vector<TrialOutcome> outcomes(spec.trials * num_schemes);
  ThreadPool pool(num_threads_);
  pool.parallel_for(spec.trials, [&](std::size_t trial) {
    // Seeds derive from (base_seed, trial) only — independent of threading.
    SplitMix64 seeder(spec.base_seed + 0x9E3779B97F4A7C15ULL * (trial + 1));
    Rng scenario_rng(seeder.next());
    const mec::Scenario scenario = spec.builder.build(scenario_rng);
    // One compilation per drop; every scheme solves against the same
    // immutable tables instead of each recompiling the scenario.
    const jtora::CompiledProblem problem(scenario);
    for (std::size_t i = 0; i < num_schemes; ++i) {
      Rng scheduler_rng(seeder.next());
      outcomes[trial * num_schemes + i] =
          run_one(problem, *schedulers[i], scheduler_rng);
    }
  });

  std::vector<SchemeStats> stats(num_schemes);
  for (std::size_t i = 0; i < num_schemes; ++i) {
    stats[i].scheme = spec.schemes[i];
    stats[i].solve_samples.reserve(spec.trials);
  }
  for (std::size_t trial = 0; trial < spec.trials; ++trial) {
    for (std::size_t i = 0; i < num_schemes; ++i) {
      const TrialOutcome& outcome = outcomes[trial * num_schemes + i];
      stats[i].utility.add(outcome.utility);
      stats[i].solve_seconds.add(outcome.solve_seconds);
      stats[i].solve_samples.push_back(outcome.solve_seconds);
      stats[i].offloaded.add(outcome.offloaded);
      stats[i].mean_delay_s.add(outcome.mean_delay_s);
      stats[i].mean_energy_j.add(outcome.mean_energy_j);
    }
  }
  return stats;
}

}  // namespace tsajs::exp
