#include "jtora/rate.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace tsajs::jtora {

double RateEvaluator::interference_w(const Assignment& x, std::size_t s,
                                     std::size_t j,
                                     std::size_t exclude) const {
  double total = 0.0;
  // One user at most per (server, sub-channel): walk servers r != s and add
  // the occupant of (r, j) if any. O(S) per call; signal powers come from
  // the compiled table.
  for (std::size_t r = 0; r < problem_->num_servers(); ++r) {
    if (r == s) continue;
    const auto occupant = x.occupant(r, j);
    if (!occupant.has_value() || *occupant == exclude) continue;
    total += problem_->signal(*occupant, s);
  }
  return total;
}

double RateEvaluator::sinr(const Assignment& x, std::size_t u) const {
  const auto slot = x.slot_of(u);
  TSAJS_REQUIRE(slot.has_value(), "sinr() requires an offloaded user");
  const std::size_t s = slot->server;
  const std::size_t j = slot->subchannel;
  const double signal = problem_->signal(u, s);
  const double denom =
      interference_w(x, s, j, /*exclude=*/u) + problem_->noise_w();
  return signal / denom;
}

LinkMetrics RateEvaluator::link(const Assignment& x, std::size_t u) const {
  LinkMetrics m;
  m.sinr = sinr(x, u);
  const double w = problem_->subchannel_bandwidth_hz();
  m.rate_bps = w * std::log2(1.0 + m.sinr);
  const mec::UserEquipment& ue = problem_->scenario().user(u);
  if (m.rate_bps > 0.0) {
    m.upload_s = ue.task.input_bits / m.rate_bps;
  } else {
    m.upload_s = std::numeric_limits<double>::infinity();
  }
  m.tx_energy_j = ue.tx_power_w * m.upload_s;
  return m;
}

}  // namespace tsajs::jtora
