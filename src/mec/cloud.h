// The cloud tier behind the edge servers — the third placement choice.
//
// The paper's model is two-tier: a task runs locally or on the edge server
// whose (server, sub-channel) uplink slot it takes. Cooperative MEC
// (Xing et al., arxiv 1802.06862) adds a remote cloud behind the edge: an
// edge server may *forward* an admitted task over its backhaul link to a
// large shared compute pool. The radio side is untouched — a forwarded user
// still holds its uplink slot and causes the same interference — but its
// compute moves from the edge server's CRA pool to the cloud's, and its
// delay gains a backhaul term
//
//   t_fwd(u) = d_u / r_backhaul + tau
//
// (transfer of the input over the backhaul plus propagation latency). Every
// edge server's backhaul has the same rate and latency, so the term depends
// on the user alone; whether a given server's backhaul is *up* is
// per-server state in mec::Availability.
//
// A default-constructed CloudTier is *disabled* (cpu_hz == 0) and carries
// no backhaul terms: every cloud branch in the pipeline is skipped, keeping
// the two-tier paths bit-identical to the pre-cloud tree.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/error.h"

namespace tsajs::mec {

struct CloudTier {
  /// Cloud compute capacity f_cloud [Hz] shared by all forwarded tasks
  /// (one CRA pool, like a virtual edge server). 0 disables the tier.
  double cpu_hz = 0.0;
  /// Backhaul rate r_backhaul [bit/s] from every edge server to the cloud.
  double backhaul_bps = 0.0;
  /// Backhaul propagation latency tau [s].
  double backhaul_latency_s = 0.0;
  /// Hard cap on concurrently forwarded tasks (cloud admission control);
  /// 0 = unlimited (the shared CRA pool is the only brake).
  std::size_t max_forwarded = 0;

  [[nodiscard]] bool enabled() const noexcept { return cpu_hz > 0.0; }

  /// A disabled tier must carry no backhaul terms (so operator== keeps
  /// treating "no cloud" as one canonical value); an enabled one needs a
  /// finite capacity, a positive finite rate and a non-negative finite
  /// latency.
  void validate() const {
    TSAJS_REQUIRE(std::isfinite(cpu_hz) && cpu_hz >= 0.0,
                  "cloud capacity must be finite and >= 0 (0 disables)");
    if (!enabled()) {
      TSAJS_REQUIRE(backhaul_bps == 0.0 && backhaul_latency_s == 0.0,
                    "a disabled cloud tier must not carry backhaul terms");
      return;
    }
    TSAJS_REQUIRE(std::isfinite(backhaul_bps) && backhaul_bps > 0.0,
                  "backhaul rate must be positive and finite");
    TSAJS_REQUIRE(
        std::isfinite(backhaul_latency_s) && backhaul_latency_s >= 0.0,
        "backhaul latency must be non-negative and finite");
  }

  friend bool operator==(const CloudTier&, const CloudTier&) = default;
};

}  // namespace tsajs::mec
