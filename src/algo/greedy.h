// Greedy offloading — the paper's "Greedy Offloading Method".
//
// "All permissible tasks, up to the limit set by the base stations, are
// offloaded. Users are assigned to sub-bands in a prioritized manner,
// favoring those with the strongest signal strength."
//
// Implementation: sort all (user, server) pairs by received signal power
// p_u * h_us descending (the same on every sub-channel of the link); walk
// the list placing each still-unassigned user on the lowest free, available
// sub-channel of the pair's server.
// "Permissible" is read as the paper's Sec. III-A-4 rule that a user only
// offloads when its benefit J_u is positive: after the signal-driven fill,
// users whose realized utility is negative are dropped back to local (worst
// first, re-evaluating — removing an uplink changes the interference others
// see). No further search — which is why greedy trails the search-based
// schemes in the paper's figures.
#pragma once

#include "algo/scheduler.h"

namespace tsajs::algo {

class GreedyScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "greedy"; }

  /// Warm start (request.hint): the repaired hint pre-seeds the assignment,
  /// the signal-ordered fill then only places the remaining users into the
  /// remaining slots, and the usual permissibility pass prunes hinted slots
  /// that the epoch's fresh channels have made unprofitable.
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override;

  [[nodiscard]] std::uint32_t capabilities() const noexcept override {
    return kWarmStart;
  }

 private:
  [[nodiscard]] ScheduleResult fill_and_prune(
      const jtora::CompiledProblem& problem, jtora::Assignment x) const;
};

}  // namespace tsajs::algo
