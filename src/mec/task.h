// User computation tasks (paper Sec. III-A-1).
#pragma once

#include "common/error.h"

namespace tsajs::mec {

/// An atomic (non-divisible) computation task T_u = <d_u, w_u>. There is no
/// output size: Sec. III-A-2 ignores the downlink "due to the small amount
/// of output data".
struct Task {
  /// Input data that must be uploaded to offload the task [bits] (d_u).
  double input_bits = 0.0;
  /// Computational load [CPU cycles] (w_u).
  double cycles = 0.0;

  Task() = default;
  Task(double input_bits_, double cycles_)
      : input_bits(input_bits_), cycles(cycles_) {
    TSAJS_REQUIRE(input_bits_ > 0.0, "task input size must be positive");
    TSAJS_REQUIRE(cycles_ > 0.0, "task cycle count must be positive");
  }

  friend bool operator==(const Task&, const Task&) = default;
};

}  // namespace tsajs::mec
