#include "sim/dynamic.h"

#include <cmath>

#include "common/error.h"
#include "common/units.h"
#include "jtora/utility.h"

namespace tsajs::sim {

void DynamicConfig::validate() const {
  TSAJS_REQUIRE(epochs >= 1, "need at least one epoch");
  TSAJS_REQUIRE(activity_prob > 0.0 && activity_prob <= 1.0,
                "activity probability must lie in (0,1]");
  GridConfig::validate();
}

DynamicSimulator::DynamicSimulator(std::size_t population,
                                   std::size_t num_servers,
                                   std::size_t num_subchannels,
                                   DynamicConfig config)
    : population_(population),
      config_(config),
      grid_(num_servers, num_subchannels) {
  TSAJS_REQUIRE(population >= 1, "need at least one user");
  config_.validate();
}

DynamicReport DynamicSimulator::run(const algo::Scheduler& scheduler,
                                    Rng& rng, WarmStart warm) const {
  const geo::HexLayout& layout = grid_.layout();
  // Initial placement.
  std::vector<geo::Point> positions(population_);
  for (auto& p : positions) p = layout.sample_in_network(rng);

  // Fault stream: derived from the caller's RNG *only* when faults are
  // enabled — derive_seed advances the environment stream, so a disabled
  // injector leaves the whole timeline bit-identical to pre-fault code.
  GridState env(grid_, config_,
                config_.fault.enabled() ? rng.derive_seed(0xFA01'7EDULL) : 0);
  // Per population member: the slot held after the most recent scheduled
  // epoch (the warm-start hint). A member's population index keys its
  // path-loss cache row.
  std::vector<CarriedSlot> carried(population_);
  std::vector<std::size_t> active;
  active.reserve(population_);

  DynamicReport report;
  report.epochs.reserve(config_.epochs);

  // Recovery tracking: `pre_fault_utility` freezes the last healthy
  // scheduled utility when an outage begins; healthy scheduled epochs are
  // then counted until utility first re-reaches it.
  double last_healthy_utility = 0.0;
  double pre_fault_utility = 0.0;
  bool have_healthy_baseline = false;
  bool recovering = false;
  std::size_t recovery_epochs = 0;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // 0. Faults progress on wall-clock epochs (before traffic is drawn, so
    // an empty epoch still advances outages and repairs).
    EpochStats stats;
    if (env.faults_enabled()) {
      env.step_faults();
      const FaultInjector& injector = env.injector();
      stats.breakers_open = env.breaker().blocked_count();
      // A breaker-withheld link degrades the epoch the same way a raw
      // outage does — forwarding capacity is gone either way.
      stats.faulted = injector.any_fault() || stats.breakers_open > 0;
      stats.servers_down = injector.servers_down();
      stats.backhauls_down = injector.backhauls_down();
      stats.slots_unavailable = env.mask().num_unavailable_slots();
      if (stats.faulted) ++report.faulted_epochs;
    }
    // 1. Mobility: an independent random step, rejected if it leaves the
    // network.
    for (auto& p : positions) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        const double angle = rng.uniform(0.0, 2.0 * M_PI);
        const geo::Point candidate{p.x + kMobilityStepM * std::cos(angle),
                                   p.y + kMobilityStepM * std::sin(angle)};
        if (layout.contains(layout.nearest_cell(candidate), candidate)) {
          p = candidate;
          break;
        }
      }
    }

    // 2. Task arrivals: the epoch's active set, staged with the slots its
    // members carry.
    env.begin_stage();
    active.clear();
    for (std::size_t g = 0; g < population_; ++g) {
      if (!rng.bernoulli(config_.activity_prob)) continue;
      // The cycles are drawn before the input size, in two statements: the
      // evaluation order of a call's arguments is unspecified.
      const double cycles = units::megacycles_to_cycles(
          rng.uniform(kMinMegacycles, kMaxMegacycles));
      const double input_bits =
          units::kilobytes_to_bits(rng.uniform(kMinInputKb, kMaxInputKb));
      env.stage(mec::Task(input_bits, cycles), positions[g], g, carried[g]);
      active.push_back(g);
    }
    if (active.empty()) {
      // Nothing to schedule: the epoch appears in the timeline but adds no
      // sample to the aggregates, so every accumulator keeps the same
      // count (one per *scheduled* epoch).
      report.epochs.push_back(stats);
      ++report.empty_epochs;
      continue;
    }

    // 3. Fresh channel draws for the epoch's geometry; path loss is only
    // recomputed for users that moved. Users whose carried slot sits on a
    // now-masked resource are evicted to local by the warm repair; a cold
    // solve re-places them from scratch either way.
    const jtora::CompiledProblem& problem = env.compile(rng);
    const RepairedHint hint = env.repair_hint(warm == WarmStart::kWarm);

    // 4. Solve the snapshot. The scheduler gets a derived child RNG so that
    // its own randomness cannot perturb the environment stream — two
    // schedulers fed the same seed therefore see the *identical* timeline
    // (paired comparison; this also makes warm vs. cold a paired
    // comparison, since the warm hint only reaches the scheduler's side).
    Rng scheduler_rng(rng.derive_seed(epoch));
    algo::SolveRequest request;
    request.problem = &problem;
    if (hint.assignment.has_value()) request.hint = &*hint.assignment;
    request.rng = &scheduler_rng;
    const algo::ScheduleResult result =
        algo::run_and_validate(scheduler, request);

    // Remember this epoch's outcome as the next epoch's hint.
    carried.assign(population_, CarriedSlot{});
    for (std::size_t i = 0; i < active.size(); ++i) {
      carried[active[i]] = {result.assignment.slot_of(i),
                            result.assignment.is_forwarded(i)};
    }

    // 5. Record — against the same compilation the solve used.
    const jtora::UtilityEvaluator evaluator(problem);
    const jtora::Evaluation eval = evaluator.evaluate(result.assignment);
    stats.active_users = active.size();
    stats.offloaded = result.assignment.num_offloaded();
    stats.forwarded = result.assignment.num_forwarded();
    report.total_forwarded += stats.forwarded;
    stats.utility = result.system_utility;
    stats.solve_seconds = result.solve_seconds;
    stats.evictions = hint.evictions;
    stats.cloud_recalls = hint.cloud_recalls;
    report.total_evictions += hint.evictions;
    report.total_cloud_recalls += hint.cloud_recalls;
    Accumulator delay;
    Accumulator energy;
    for (const auto& user : eval.users) {
      delay.add(user.total_delay_s);
      energy.add(user.energy_j);
    }
    stats.mean_delay_s = delay.mean();
    stats.mean_energy_j = energy.mean();

    report.epochs.push_back(stats);
    report.utility.add(stats.utility);
    report.offload_ratio.add(static_cast<double>(stats.offloaded) /
                             static_cast<double>(stats.active_users));
    report.mean_delay_s.add(stats.mean_delay_s);
    report.mean_energy_j.add(stats.mean_energy_j);
    report.solve_seconds.add(stats.solve_seconds);

    // Degradation metrics: split utility samples by fault state and track
    // recovery after an outage clears.
    if (env.faults_enabled()) {
      if (stats.faulted) {
        report.faulted_utility.add(stats.utility);
        if (have_healthy_baseline && !recovering) {
          pre_fault_utility = last_healthy_utility;
          recovering = true;
        }
        recovery_epochs = 0;
      } else {
        report.healthy_utility.add(stats.utility);
        if (recovering) {
          ++recovery_epochs;
          if (stats.utility >= pre_fault_utility) {
            report.epochs_to_recover.add(
                static_cast<double>(recovery_epochs));
            recovering = false;
          }
        }
        last_healthy_utility = stats.utility;
        have_healthy_baseline = true;
      }
    }
  }
  report.breaker_trips = env.breaker().trips();
  report.breaker_half_opens = env.breaker().half_opens();
  report.breaker_closes = env.breaker().closes();
  return report;
}

}  // namespace tsajs::sim
