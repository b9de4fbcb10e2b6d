// A user's home cell as jtora::ShardedProblem assigns it, recomputed
// test-side so the sharding tests check the slicing against the rule
// rather than against the slicer's own bookkeeping.
#pragma once

#include <cstddef>

#include "geo/point.h"
#include "mec/scenario.h"

namespace tsajs::test {

/// The server nearest to user `u`; the lowest index wins ties.
inline std::size_t nearest_server(const mec::Scenario& scenario,
                                  std::size_t u) {
  const geo::Point pos = scenario.user(u).position;
  std::size_t best = 0;
  double best_sq = geo::distance_squared(pos, scenario.server(0).position);
  for (std::size_t s = 1; s < scenario.num_servers(); ++s) {
    const double d_sq = geo::distance_squared(pos, scenario.server(s).position);
    if (d_sq < best_sq) {
      best = s;
      best_sq = d_sq;
    }
  }
  return best;
}

}  // namespace tsajs::test
