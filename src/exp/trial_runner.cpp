#include "exp/trial_runner.h"

#include <mutex>

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

  std::vector<SchemeStats> stats(spec.schemes.size());
  for (std::size_t i = 0; i < spec.schemes.size(); ++i) {
    stats[i].scheme = spec.schemes[i];
    // Slot per trial index, so the sample order is deterministic no matter
    // how the pool schedules trials.
    stats[i].solve_samples.assign(spec.trials, 0.0);
  }

  std::mutex merge_mutex;
  ThreadPool pool(num_threads_);
  pool.parallel_for(spec.trials, [&](std::size_t trial) {
    // Seeds derive from (base_seed, trial) only — independent of threading.
    SplitMix64 seeder(spec.base_seed + 0x9E3779B97F4A7C15ULL * (trial + 1));
    Rng scenario_rng(seeder.next());
    const mec::Scenario scenario = spec.builder.build(scenario_rng);
    // One compilation per drop; every scheme solves against the same
    // immutable tables instead of each recompiling the scenario.
    const jtora::CompiledProblem problem(scenario);

    std::vector<TrialOutcome> outcomes(schedulers.size());
    for (std::size_t i = 0; i < schedulers.size(); ++i) {
      Rng scheduler_rng(seeder.next());
      outcomes[i] = run_one(problem, *schedulers[i], scheduler_rng);
    }

    std::lock_guard<std::mutex> lock(merge_mutex);
    for (std::size_t i = 0; i < schedulers.size(); ++i) {
      stats[i].utility.add(outcomes[i].utility);
      stats[i].solve_seconds.add(outcomes[i].solve_seconds);
      stats[i].solve_samples[trial] = outcomes[i].solve_seconds;
      stats[i].offloaded.add(outcomes[i].offloaded);
      stats[i].mean_delay_s.add(outcomes[i].mean_delay_s);
      stats[i].mean_energy_j.add(outcomes[i].mean_energy_j);
    }
  });
  return stats;
}

}  // namespace tsajs::exp
