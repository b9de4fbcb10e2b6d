#include "algo/hjtora.h"

#include <optional>

namespace tsajs::algo {

namespace {

/// Upper bound on the interleaved adjustment rounds after the first
/// admission phase.
constexpr std::size_t kMaxAdjustmentPasses = 4;
/// Minimum objective improvement to accept a change (absolute).
constexpr double kMinGain = 1e-12;

struct Move {
  std::size_t user = 0;
  std::optional<jtora::Slot> to;  // nullopt = drop to local.
  double utility = 0.0;           // resulting J*(X).
};

}  // namespace

ScheduleResult HjtoraScheduler::solve(const SolveRequest& request) const {
  request.validate();
  const jtora::CompiledProblem& problem = *request.problem;

  const mec::Scenario& scenario = problem.scenario();
  const jtora::UtilityEvaluator evaluator(problem);
  jtora::Assignment x(scenario);
  double utility = evaluator.system_utility(x);
  std::size_t evaluations = 1;

  // Phase 1: best-gain admission of non-offloaded users.
  const auto admission_phase = [&] {
    bool changed = false;
    for (;;) {
      std::optional<Move> best;
      for (std::size_t u = 0; u < scenario.num_users(); ++u) {
        if (x.is_offloaded(u)) continue;
        for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
          for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
            if (!scenario.slot_available(s, j)) continue;  // fault-masked
            if (x.occupant(s, j).has_value()) continue;
            x.offload(u, s, j);
            const double candidate = evaluator.system_utility(x);
            ++evaluations;
            x.make_local(u);
            if (candidate > utility + kMinGain &&
                (!best.has_value() || candidate > best->utility)) {
              best = Move{u, jtora::Slot{s, j}, candidate};
            }
          }
        }
      }
      if (!best.has_value()) return changed;
      x.offload(best->user, best->to->server, best->to->subchannel);
      utility = best->utility;
      changed = true;
    }
  };

  // Phase 2 (one pass): one-exchange adjustment of offloaded users — move
  // to a free slot or drop to local.
  const auto adjustment_pass = [&] {
    bool changed = false;
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      const auto slot = x.slot_of(u);
      if (!slot.has_value()) continue;

      std::optional<Move> best;
      const bool was_forwarded = x.is_forwarded(u);
      // Drop to local.
      x.make_local(u);
      const double dropped = evaluator.system_utility(x);
      ++evaluations;
      if (dropped > utility + kMinGain) {
        best = Move{u, std::nullopt, dropped};
      }
      // Move to any free slot (the original slot is free now; skip it).
      for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
        for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
          if (!scenario.slot_available(s, j)) continue;  // fault-masked
          if (x.occupant(s, j).has_value()) continue;
          if (s == slot->server && j == slot->subchannel) continue;
          x.offload(u, s, j);
          const double candidate = evaluator.system_utility(x);
          ++evaluations;
          x.make_local(u);
          if (candidate > utility + kMinGain &&
              (!best.has_value() || candidate > best->utility)) {
            best = Move{u, jtora::Slot{s, j}, candidate};
          }
        }
      }
      if (best.has_value()) {
        if (best->to.has_value()) {
          x.offload(u, best->to->server, best->to->subchannel);
        }
        utility = best->utility;
        changed = true;
      } else {
        // Restore the original slot (and cloud tier — offload() recalls).
        x.offload(u, slot->server, slot->subchannel);
        if (was_forwarded) x.set_forwarded(u, true);
      }
    }
    return changed;
  };

  // Phase 3 (cloud scenarios only): best-gain tier toggles — forward an
  // edge-served user to the cloud or recall a forwarded one. Radio state is
  // untouched, so each toggle is a pure compute-pool exchange.
  const auto tier_pass = [&] {
    bool changed = false;
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      if (!x.is_offloaded(u)) continue;
      const bool forwarded = x.is_forwarded(u);
      if (!forwarded && !x.can_forward(u)) continue;
      x.set_forwarded(u, !forwarded);
      const double candidate = evaluator.system_utility(x);
      ++evaluations;
      if (candidate > utility + kMinGain) {
        utility = candidate;
        changed = true;
      } else {
        x.set_forwarded(u, forwarded);
      }
    }
    return changed;
  };

  // Interleave phases to a joint fixed point: an adjustment can unlock a
  // profitable admission (a freed slot, reduced interference) and vice
  // versa, so at convergence neither any admission nor any one-exchange
  // improves the objective.
  const bool has_cloud = scenario.has_cloud();
  admission_phase();
  for (std::size_t pass = 0; pass < kMaxAdjustmentPasses; ++pass) {
    const bool adjusted = adjustment_pass();
    const bool tiered = has_cloud && tier_pass();
    const bool admitted = admission_phase();
    if (!adjusted && !tiered && !admitted) break;
  }

  return ScheduleResult{std::move(x), utility, 0.0, evaluations};
}

}  // namespace tsajs::algo
