// Test-side conveniences over algo::SolveRequest.
//
// Scheduler::solve(const SolveRequest&) and run_and_validate(scheduler,
// request) are the only solve entry points. Tests issue hundreds of
// one-line solves, so these helpers pack the request: `solve` calls
// Scheduler::solve(), `validated` calls run_and_validate(). The Scenario
// overloads compile the drop once per call, which is what a one-shot test
// wants; a test that solves one drop repeatedly compiles it itself.
// `slot_crc` fingerprints an assignment for the golden tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/scheduler.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "mec/scenario.h"

namespace tsajs::test {

/// A request for `problem` drawing from `rng`; `hint` and `budget` are
/// optional (nullptr = cold / configured budget).
inline algo::SolveRequest make_request(const jtora::CompiledProblem& problem,
                                       Rng& rng,
                                       const jtora::Assignment* hint = nullptr,
                                       const algo::SolveBudget* budget =
                                           nullptr) {
  algo::SolveRequest request;
  request.problem = &problem;
  request.hint = hint;
  request.budget = budget;
  request.rng = &rng;
  return request;
}

/// Scheduler::solve() on a packed request.
inline algo::ScheduleResult solve(const algo::Scheduler& scheduler,
                                  const jtora::CompiledProblem& problem,
                                  Rng& rng,
                                  const jtora::Assignment* hint = nullptr,
                                  const algo::SolveBudget* budget = nullptr) {
  return scheduler.solve(make_request(problem, rng, hint, budget));
}

inline algo::ScheduleResult solve(const algo::Scheduler& scheduler,
                                  const mec::Scenario& scenario, Rng& rng,
                                  const jtora::Assignment* hint = nullptr,
                                  const algo::SolveBudget* budget = nullptr) {
  const jtora::CompiledProblem problem(scenario);
  return solve(scheduler, problem, rng, hint, budget);
}

/// algo::run_and_validate() on a packed request.
inline algo::ScheduleResult validated(const algo::Scheduler& scheduler,
                                      const jtora::CompiledProblem& problem,
                                      Rng& rng,
                                      const jtora::Assignment* hint = nullptr,
                                      const algo::SolveBudget* budget =
                                          nullptr) {
  return algo::run_and_validate(scheduler,
                                make_request(problem, rng, hint, budget));
}

inline algo::ScheduleResult validated(const algo::Scheduler& scheduler,
                                      const mec::Scenario& scenario, Rng& rng,
                                      const jtora::Assignment* hint = nullptr,
                                      const algo::SolveBudget* budget =
                                          nullptr) {
  const jtora::CompiledProblem problem(scenario);
  return validated(scheduler, problem, rng, hint, budget);
}

/// CRC-32 over one int32 per user: -1 local, else server * N + sub-channel,
/// with bit 30 set when the user is forwarded to the cloud.
inline std::uint32_t slot_crc(const jtora::Assignment& x) {
  std::vector<std::int32_t> code(x.num_users(), -1);
  for (std::size_t u = 0; u < x.num_users(); ++u) {
    const auto slot = x.slot_of(u);
    if (!slot.has_value()) continue;
    code[u] = static_cast<std::int32_t>(slot->server * x.num_subchannels() +
                                        slot->subchannel);
    if (x.is_forwarded(u)) code[u] |= 1 << 30;
  }
  return crc32(code.data(), code.size() * sizeof(std::int32_t));
}

}  // namespace tsajs::test
