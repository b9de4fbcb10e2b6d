#include "algo/scheduler.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/stopwatch.h"

namespace tsajs::algo {

void SolveBudget::validate() const {
  // Negative deadlines are legal ("already expired" — the solve degrades to
  // the all-local floor at its first safe boundary); only NaN/infinity are
  // rejected, since they make the expiry comparison meaningless.
  TSAJS_REQUIRE(std::isfinite(max_seconds),
                "solve budget max_seconds must be finite");
}

void SolveRequest::validate() const {
  TSAJS_REQUIRE(problem != nullptr, "solve request must carry a problem");
  TSAJS_REQUIRE(rng != nullptr, "solve request must carry an rng");
  if (budget != nullptr) budget->validate();
}

namespace {

std::string format_slot(std::size_t u, const jtora::Slot& slot) {
  std::ostringstream os;
  os << "user " << u << " -> (server " << slot.server << ", subchannel "
     << slot.subchannel << ')';
  return os.str();
}

// Full release-mode audit of one solve. Re-derives every constraint the
// scheduler contract promises — structural map consistency, (12b)-(12d)
// from the public maps, fault masks, finite per-user outcomes, and the
// reported utility against an independent evaluation — collecting *all*
// violations before throwing a single ValidationError. The evaluator binds
// the already-compiled problem, so the guard costs no table rebuild.
void validate_result(const Scheduler& scheduler,
                     const jtora::CompiledProblem& problem,
                     const ScheduleResult& result) {
  std::vector<std::string> violations;
  const jtora::Assignment& x = result.assignment;
  const mec::Scenario& scenario = problem.scenario();

  if (x.num_users() != problem.num_users() ||
      x.num_servers() != problem.num_servers() ||
      x.num_subchannels() != problem.num_subchannels()) {
    std::ostringstream os;
    os << "assignment shape (" << x.num_users() << " users, "
       << x.num_servers() << 'x' << x.num_subchannels()
       << " slots) does not match the problem (" << problem.num_users()
       << " users, " << problem.num_servers() << 'x'
       << problem.num_subchannels() << " slots)";
    violations.push_back(os.str());
    // Every later check indexes by these dimensions; stop here.
    throw ValidationError(scheduler.name(), std::move(violations));
  }

  // Internal map invariants (redundant slot->user index, cached counts).
  try {
    x.check_consistency();
  } catch (const Error& error) {
    violations.push_back(std::string("internal map corruption: ") +
                         error.what());
  }

  // Constraints (12b)-(12d) re-derived from the public maps, plus the
  // fault-mask rule: an offloaded user must occupy exactly one in-range,
  // available slot, and no slot may carry two users. (12b, one slot per
  // user, holds by the slot_of representation; the cross-map check catches
  // a slot claimed by two users.)
  std::size_t offloaded = 0;
  for (std::size_t u = 0; u < x.num_users(); ++u) {
    const auto slot = x.slot_of(u);
    if (!slot.has_value()) continue;
    ++offloaded;
    if (slot->server >= problem.num_servers() ||
        slot->subchannel >= problem.num_subchannels()) {
      violations.push_back(format_slot(u, *slot) +
                           ": slot outside the scheduling grid (12c)");
      continue;
    }
    const auto occupant = x.occupant(slot->server, slot->subchannel);
    if (!occupant.has_value() || *occupant != u) {
      violations.push_back(format_slot(u, *slot) +
                           ": slot not held exclusively (12d)");
    }
    if (!scenario.slot_available(slot->server, slot->subchannel)) {
      violations.push_back(format_slot(u, *slot) +
                           ": slot is fault-masked unavailable");
    }
  }
  std::size_t occupied = 0;
  for (std::size_t s = 0; s < x.num_servers(); ++s) {
    for (std::size_t j = 0; j < x.num_subchannels(); ++j) {
      if (x.occupant(s, j).has_value()) ++occupied;
    }
  }
  if (occupied != offloaded) {
    std::ostringstream os;
    os << occupied << " occupied slots vs " << offloaded
       << " offloaded users (12b/12d cross-map mismatch)";
    violations.push_back(os.str());
  }

  // Cloud tier: the assignment's forwarding state must mirror the problem's
  // tier, every forwarded user must be offloaded via a live backhaul, and
  // the admission cap must hold.
  if (x.cloud_enabled() && !scenario.has_cloud()) {
    violations.push_back(
        "assignment carries forwarding state but the problem has no cloud "
        "tier");
    // The evaluation below would price its forwarded users with forwarding
    // delays this problem does not compile; stop here.
    throw ValidationError(scheduler.name(), std::move(violations));
  }
  if (!x.cloud_enabled() && scenario.has_cloud()) {
    violations.push_back(
        "problem has a cloud tier but the assignment was built without one");
  } else if (x.cloud_enabled()) {
    std::size_t forwarded = 0;
    for (std::size_t u = 0; u < x.num_users(); ++u) {
      if (!x.is_forwarded(u)) continue;
      ++forwarded;
      const auto slot = x.slot_of(u);
      if (!slot.has_value()) {
        std::ostringstream os;
        os << "user " << u << " is forwarded to the cloud but not offloaded";
        violations.push_back(os.str());
        continue;
      }
      if (!scenario.backhaul_available(slot->server)) {
        violations.push_back(format_slot(u, *slot) +
                             ": forwarded over a down backhaul");
      }
    }
    if (forwarded != x.num_forwarded()) {
      std::ostringstream os;
      os << "cached forwarded count " << x.num_forwarded() << " vs "
         << forwarded << " forwarded users";
      violations.push_back(os.str());
    }
    const std::size_t cap = scenario.cloud().max_forwarded;
    if (cap > 0 && forwarded > cap) {
      std::ostringstream os;
      os << forwarded << " forwarded users exceed the cloud admission cap "
         << cap;
      violations.push_back(os.str());
    }
  }

  // Reported utility: finite and within tolerance of an independent
  // evaluation; per-user delay / energy / utility finite.
  const jtora::UtilityEvaluator evaluator(problem);
  const double recomputed = evaluator.system_utility(x);
  if (!std::isfinite(result.system_utility)) {
    violations.push_back("reported system utility is not finite");
  } else {
    const double tolerance =
        1e-6 * std::max(1.0, std::fabs(recomputed)) + 1e-9;
    if (!(std::fabs(recomputed - result.system_utility) <= tolerance)) {
      std::ostringstream os;
      os << "reported utility " << result.system_utility
         << " disagrees with independent evaluation " << recomputed;
      violations.push_back(os.str());
    }
  }
  const jtora::Evaluation evaluation = evaluator.evaluate(x);
  for (std::size_t u = 0; u < evaluation.users.size(); ++u) {
    const jtora::UserOutcome& outcome = evaluation.users[u];
    if (!std::isfinite(outcome.total_delay_s) ||
        !std::isfinite(outcome.energy_j) || !std::isfinite(outcome.utility)) {
      std::ostringstream os;
      os << "user " << u << " outcome not finite (delay "
         << outcome.total_delay_s << " s, energy " << outcome.energy_j
         << " J, utility " << outcome.utility << ')';
      violations.push_back(os.str());
    }
  }

  if (!violations.empty()) {
    throw ValidationError(scheduler.name(), std::move(violations));
  }
}

}  // namespace

ScheduleResult run_and_validate(const Scheduler& scheduler,
                                const SolveRequest& request) {
  request.validate();
  Stopwatch timer;
  ScheduleResult result = scheduler.solve(request);
  result.solve_seconds = timer.elapsed_seconds();
  validate_result(scheduler, *request.problem, result);
  return result;
}

jtora::Assignment repair_hint(const mec::Scenario& scenario,
                              const jtora::Assignment& hint) {
  jtora::Assignment x(scenario);
  const std::size_t users =
      std::min(scenario.num_users(), hint.num_users());
  for (std::size_t u = 0; u < users; ++u) {
    const auto slot = hint.slot_of(u);
    if (!slot.has_value()) continue;
    if (slot->server >= scenario.num_servers() ||
        slot->subchannel >= scenario.num_subchannels()) {
      continue;  // the slot no longer exists; the user re-enters local
    }
    if (!x.slot_available(slot->server, slot->subchannel)) {
      continue;  // the resource faulted; the user degrades to local
    }
    if (x.occupant(slot->server, slot->subchannel).has_value()) {
      continue;  // first-come (lowest user index) keeps a contested slot
    }
    x.offload(u, slot->server, slot->subchannel);
    // Carry the cloud-forwarding bit when the new scenario still admits it;
    // a vanished tier, dead backhaul, or full cloud strands the user on edge
    // service (still feasible) rather than on a dead cloud path.
    if (hint.is_forwarded(u) && x.can_forward(u)) {
      x.set_forwarded(u, true);
    }
  }
  return x;
}

jtora::Assignment random_feasible_assignment(const mec::Scenario& scenario,
                                             Rng& rng, double offload_prob) {
  TSAJS_REQUIRE(offload_prob >= 0.0 && offload_prob <= 1.0,
                "offload probability must lie in [0,1]");
  jtora::Assignment x(scenario);
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    if (!rng.bernoulli(offload_prob)) continue;
    // A random server that still has a free sub-channel, then one of those.
    if (const auto slot = x.random_free_slot(rng); slot.has_value()) {
      x.offload(u, slot->server, slot->subchannel);
    }
  }
  return x;
}

}  // namespace tsajs::algo
