// Scheduler interface.
//
// A scheduler solves the TO problem (paper Eq. 25): given a compiled
// problem it produces an offloading decision X; the CRA optimum F*(X) is
// folded into the objective by the UtilityEvaluator. Schedulers are
// stateless between calls; all randomness flows through the caller-provided
// Rng so runs are reproducible.
//
// The single entry point is `solve(const SolveRequest&)`. A SolveRequest
// bundles everything one decision needs — the compiled problem, an optional
// warm-start hint, an optional per-call budget, and the RNG — so a
// long-running service loop builds one request per decision. What a
// scheduler *does* with the optional fields is advertised by
// `capabilities()`:
//
//   * kWarmStart   — the search is seeded from `hint` (repaired first; see
//                    repair_hint). Schedulers without the capability ignore
//                    the hint and solve cold — bit-identical to never
//                    passing one, so callers never need to branch.
//   * kBudgetAware — `budget` caps this call's search effort, overriding
//                    the configured budget. Schedulers without it ignore
//                    the field and run to completion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"
#include "mec/scenario.h"

namespace tsajs::algo {

/// Anytime solve budget: wall-clock and/or search-effort caps for one
/// solve. A budget-aware scheduler (TSAJS) checks the caps at safe
/// boundaries (plateau ends) and returns its best *feasible* solution so
/// far — degrading to the guaranteed-feasible all-local assignment if the
/// budget fires before the search finds anything better. Zero values mean
/// "unlimited"; a default-constructed SolveBudget leaves behavior and RNG
/// streams bit-identical to an unbudgeted solve. A *negative* deadline is
/// an already-expired budget: the solve stops at its first safe boundary
/// and returns the all-local floor — a valid state for a service whose
/// upstream deadline passed before the solve even started, so it validates.
struct SolveBudget {
  /// Wall-clock deadline [s]; 0 = unlimited, negative = already expired.
  double max_seconds = 0.0;
  /// Cap on objective evaluations; 0 = unlimited. This form is
  /// deterministic (independent of machine speed) and is what tests use.
  std::size_t max_iterations = 0;

  [[nodiscard]] bool unlimited() const noexcept {
    return max_seconds == 0.0 && max_iterations == 0;
  }
  void validate() const;
};

/// Outcome of one scheduling run.
struct ScheduleResult {
  jtora::Assignment assignment;
  /// J*(X) of the returned assignment (Eq. 24).
  double system_utility = 0.0;
  /// Wall-clock solve time [s] (the paper's Fig. 8 metric).
  double solve_seconds = 0.0;
  /// Number of objective evaluations performed (search effort).
  std::size_t evaluations = 0;
};

/// One scheduling decision, fully specified. Non-owning: every pointed-to
/// object must outlive the solve() call. `problem` and `rng` are required;
/// `hint` and `budget` are optional and silently ignored by schedulers
/// lacking the matching capability (see Scheduler::capabilities()).
struct SolveRequest {
  /// The compiled problem to solve (required).
  const jtora::CompiledProblem* problem = nullptr;
  /// Warm-start hint; may be shaped for a *different* scenario (stale user
  /// count, vanished slots) — schedulers repair it first (see repair_hint).
  /// nullptr = cold solve.
  const jtora::Assignment* hint = nullptr;
  /// Per-call budget override; nullptr = the scheduler's configured budget.
  const SolveBudget* budget = nullptr;
  /// RNG for this decision (required). Mutated by the solve.
  Rng* rng = nullptr;

  /// Throws unless `problem` and `rng` are set and any budget validates.
  void validate() const;
};

class Scheduler {
 public:
  /// Optional features a scheduler may honor in a SolveRequest. Bitmask
  /// values for capabilities(); absence of a bit means the matching request
  /// field is ignored (never an error).
  enum Capability : std::uint32_t {
    /// solve() seeds its search from SolveRequest::hint.
    kWarmStart = 1u << 0,
    /// solve() caps its effort by SolveRequest::budget.
    kBudgetAware = 1u << 1,
  };

  virtual ~Scheduler() = default;

  /// Short stable identifier, e.g. "tsajs", "hjtora".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Solves the TO problem described by `request`. The returned assignment
  /// is always feasible (constraints 12b-12d hold by construction of
  /// jtora::Assignment; postcondition checked in debug). Implementations
  /// must call request.validate() (or check the same preconditions) and
  /// honor exactly the optional fields their capabilities() advertise.
  [[nodiscard]] virtual ScheduleResult solve(
      const SolveRequest& request) const = 0;

  /// Bitmask of Capability bits this scheduler honors. Replaces the
  /// historical dynamic_cast<WarmStartable*>/<BudgetAware*> probes.
  [[nodiscard]] virtual std::uint32_t capabilities() const noexcept {
    return 0;
  }

  /// True when capabilities() carries `capability`.
  [[nodiscard]] bool supports(Capability capability) const noexcept {
    return (capabilities() & capability) != 0;
  }
};

/// Clamps `hint` to a feasible assignment for `scenario`: users beyond the
/// scenario's user count are dropped, slots outside the scenario's
/// server/sub-channel grid — or masked unavailable by the scenario's fault
/// state — are released (the user falls back to local, i.e. graceful
/// degradation off dead resources), and surviving slots are taken
/// first-come in ascending user order — so the result satisfies constraints
/// (12b)-(12d) by construction for *any* hint. Users the hint does not
/// cover start local.
[[nodiscard]] jtora::Assignment repair_hint(const mec::Scenario& scenario,
                                            const jtora::Assignment& hint);

/// Runs `scheduler` on `request`, fills in solve_seconds, and audits the
/// result against the full constraint set — in release builds too:
/// structural consistency, constraints (12b)-(12d) re-derived from the
/// public maps, no assignment to a fault-masked slot, finite
/// utility/delay/energy per user, and the reported utility against an
/// independent evaluation. On any violation it throws tsajs::ValidationError
/// carrying one diagnostic per violated constraint. The audit evaluator
/// shares the request's problem, so the guard costs no recompilation. This
/// is the single definition of solve timing + audit + warm-start semantics.
[[nodiscard]] ScheduleResult run_and_validate(const Scheduler& scheduler,
                                              const SolveRequest& request);

/// Draws the random feasible initial solution used by TSAJS and LocalSearch
/// (Algorithm 1 line 5): each user independently offloads with probability
/// `offload_prob` to a uniformly random server that still has a free
/// sub-channel (remaining local when every server is full).
[[nodiscard]] jtora::Assignment random_feasible_assignment(
    const mec::Scenario& scenario, Rng& rng, double offload_prob = 0.5);

}  // namespace tsajs::algo
