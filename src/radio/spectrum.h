// OFDMA uplink spectrum descriptor.
//
// The paper divides the total system bandwidth B into N orthogonal sub-bands
// of equal width W = B/N; each base station can serve at most one user per
// sub-band, and same-sub-band users of *different* cells interfere (Eq. 3).
#pragma once

#include <cstddef>

#include "common/error.h"

namespace tsajs::radio {

class Spectrum {
 public:
  /// The most sub-channels a server may have: jtora::Assignment keeps each
  /// server's free slots in one 64-bit word.
  static constexpr std::size_t kMaxSubchannels = 64;

  /// `bandwidth_hz` = B, `num_subchannels` = N. Requires B > 0 and
  /// 1 <= N <= kMaxSubchannels.
  Spectrum(double bandwidth_hz, std::size_t num_subchannels)
      : bandwidth_hz_(bandwidth_hz), num_subchannels_(num_subchannels) {
    TSAJS_REQUIRE(bandwidth_hz > 0.0, "bandwidth must be positive");
    TSAJS_REQUIRE(num_subchannels >= 1, "need at least one sub-channel");
    TSAJS_REQUIRE(num_subchannels <= kMaxSubchannels,
                  "at most 64 sub-channels per server are supported");
  }

  [[nodiscard]] double bandwidth_hz() const noexcept { return bandwidth_hz_; }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return num_subchannels_;
  }

  /// Per-sub-band width W = B / N [Hz].
  [[nodiscard]] double subchannel_bandwidth_hz() const noexcept {
    return bandwidth_hz_ / static_cast<double>(num_subchannels_);
  }

 private:
  double bandwidth_hz_;
  std::size_t num_subchannels_;
};

}  // namespace tsajs::radio
