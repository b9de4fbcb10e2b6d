// hJTORA — heuristic of Tran & Pompili, "Joint Task Offloading and Resource
// Allocation for Multi-Server Mobile-Edge Computing Networks" (IEEE TVT
// 2019), reference [37] of the paper and its main comparator.
//
// Reimplemented from the published description (the original code is not
// released): a two-phase heuristic around the same TO/CRA decomposition.
//
//  Phase 1 (admission): starting from all-local, repeatedly evaluate for
//  every non-offloaded user and every free (server, sub-channel) slot the
//  *actual* change in J*(X) (full re-evaluation — adding an uplink changes
//  other users' interference), and commit the best strictly positive one.
//  Stop when no admission improves the objective.
//
//  Phase 2 (adjustment): bounded one-exchange improvement — consider moving
//  each offloaded user to every other free slot and dropping each offloaded
//  user to local; apply improvements until a pass makes no change (at most
//  four passes).
//
// This reproduces the qualitative standing the paper reports: utility close
// to (slightly below) TSAJS and above LocalSearch/Greedy, with runtime that
// grows steeply with the slot count (Fig. 8) because each round scans
// U x S x N candidates.
#pragma once

#include "algo/scheduler.h"

namespace tsajs::algo {

class HjtoraScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "hjtora"; }
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override;
};

}  // namespace tsajs::algo
