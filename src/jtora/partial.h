// Partial offloading — an extension beyond the paper's atomic tasks.
//
// The paper assumes non-divisible tasks; its related work ([30]) studies
// bit-level divisible ones. Here a user may offload a fraction x in [0,1]
// of its task and execute the rest locally *in parallel* with the uplink
// transfer and remote execution:
//
//   t(x) = max( (1-x) w / f_local,  x d / R + x w / f_us [+ x t_down] )
//   E(x) = (1-x) kappa f_local^2 w + p_u x d / R
//   J(x) = beta_t (t_local - t(x))/t_local + beta_e (E_local - E(x))/E_local
//
// For fixed rate R and CPU share f_us both branches of t are linear in x,
// so J is piecewise-linear concave; its maximum sits at one of three
// candidate points: x = 0 (all local), x = 1 (the paper's full offload), or
// the equal-time kink x_t where local and remote pipelines finish together.
// `best_split` evaluates the three candidates in closed form.
//
// The CPU shares come from the paper's Eq. 22 allocation (computed for full
// offload); re-deriving the joint split+allocation optimum is out of scope
// — this is the standard two-stage heuristic, and it can only improve on
// full offloading per user (x = 1 is always a candidate).
#pragma once

#include <cstddef>
#include <vector>

#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// One user's optimal-split outcome.
struct PartialOutcome {
  double split = 0.0;     ///< offloaded fraction x* in [0,1].
  double delay_s = 0.0;   ///< t(x*).
  double energy_j = 0.0;  ///< E(x*).
  double utility = 0.0;   ///< J_u(x*); >= max(0, full-offload J_u).
};

/// System-level partial-offloading evaluation of a decision X.
struct PartialEvaluation {
  double system_utility = 0.0;  ///< sum_u lambda_u J_u(x*_u).
  std::vector<PartialOutcome> users;
};

class PartialOffloadEvaluator {
 public:
  /// Binds to a shared compiled problem (non-owning; `problem` must outlive
  /// this evaluator).
  explicit PartialOffloadEvaluator(const CompiledProblem& problem);

  /// Optimal split for user `u` given its link and CPU share.
  [[nodiscard]] PartialOutcome best_split(std::size_t u,
                                          const LinkMetrics& link,
                                          double cpu_hz) const;

  /// Evaluates X with every offloaded user at its optimal split (local
  /// users keep x = 0 and zero utility).
  [[nodiscard]] PartialEvaluation evaluate(const Assignment& x) const;

 private:
  const CompiledProblem* problem_;
  UtilityEvaluator full_;  // provides links + CRA allocation
};

}  // namespace tsajs::jtora
