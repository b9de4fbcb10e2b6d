#include "algo/greedy.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <vector>

namespace tsajs::algo {

namespace {

struct Candidate {
  double signal_w;
  std::size_t user;
  std::size_t server;
};

}  // namespace

ScheduleResult GreedyScheduler::solve(const SolveRequest& request) const {
  request.validate();
  const jtora::CompiledProblem& problem = *request.problem;
  return fill_and_prune(
      problem, request.hint != nullptr
                   ? repair_hint(problem.scenario(), *request.hint)
                   : jtora::Assignment(problem.scenario()));
}

ScheduleResult GreedyScheduler::fill_and_prune(
    const jtora::CompiledProblem& problem, jtora::Assignment x) const {
  const mec::Scenario& scenario = problem.scenario();
  std::vector<Candidate> candidates;
  candidates.reserve(scenario.num_users() * scenario.num_servers());
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      // The compiled signal table is exactly p_u * h_us, on every
      // sub-channel of the link.
      candidates.push_back({problem.signal(u, s), u, s});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.signal_w != b.signal_w) return a.signal_w > b.signal_w;
              // Deterministic tie-break for reproducibility.
              return std::tie(a.user, a.server) < std::tie(b.user, b.server);
            });

  // Scenario::num_available_slots() counts a constrained mask on every
  // call, so read it once.
  const std::size_t max_offloaded =
      std::min(scenario.num_users(), scenario.num_available_slots());
  for (const Candidate& c : candidates) {
    if (x.num_offloaded() == max_offloaded) break;
    if (x.is_offloaded(c.user)) continue;
    // The lowest free sub-channel that is not fault-masked.
    for (std::size_t j = 0; j < scenario.num_subchannels(); ++j) {
      if (scenario.slot_available(c.server, j) &&
          !x.occupant(c.server, j).has_value()) {
        x.offload(c.user, c.server, j);
        break;
      }
    }
  }

  // Permissibility pass: only users with a positive offloading benefit J_u
  // keep their slots (Sec. III-A-4). Drop the worst offender, re-evaluate —
  // each removal lowers the interference every remaining user sees.
  const jtora::UtilityEvaluator evaluator(problem);
  std::size_t evaluations = 1;
  for (;;) {
    const jtora::Evaluation eval = evaluator.evaluate(x);
    ++evaluations;
    double worst_utility = 0.0;
    std::optional<std::size_t> worst_user;
    for (std::size_t u = 0; u < scenario.num_users(); ++u) {
      if (!eval.users[u].offloaded) continue;
      if (eval.users[u].utility < worst_utility) {
        worst_utility = eval.users[u].utility;
        worst_user = u;
      }
    }
    if (!worst_user.has_value()) break;
    x.make_local(*worst_user);
  }

  // Cloud tier pass: greedily toggle each survivor's tier (edge-serve vs
  // forward-to-cloud) while any toggle improves J*(X). Each toggle only
  // perturbs the two compute pools, so a few passes reach a fixed point.
  if (scenario.has_cloud()) {
    double best = evaluator.system_utility(x);
    ++evaluations;
    constexpr std::size_t kMaxTierPasses = 4;
    for (std::size_t pass = 0; pass < kMaxTierPasses; ++pass) {
      bool changed = false;
      for (std::size_t u = 0; u < scenario.num_users(); ++u) {
        if (!x.is_offloaded(u)) continue;
        const bool forwarded = x.is_forwarded(u);
        if (!forwarded && !x.can_forward(u)) continue;
        x.set_forwarded(u, !forwarded);
        const double candidate = evaluator.system_utility(x);
        ++evaluations;
        if (candidate > best) {
          best = candidate;
          changed = true;
        } else {
          x.set_forwarded(u, forwarded);
        }
      }
      if (!changed) break;
    }
  }

  const double utility = evaluator.system_utility(x);
  return ScheduleResult{std::move(x), utility, 0.0, evaluations};
}

}  // namespace tsajs::algo
