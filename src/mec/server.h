// Edge servers co-located with base stations (paper Sec. III-A-3).
#pragma once

#include "common/error.h"
#include "geo/point.h"

namespace tsajs::mec {

/// A base station with a co-located MEC server.
struct EdgeServer {
  /// Total computation rate f_s [cycles/s] shared by the users it serves.
  double cpu_hz = 20e9;
  /// Base-station position [m].
  geo::Point position;

  void validate() const {
    TSAJS_REQUIRE(cpu_hz > 0.0, "server CPU capacity must be positive");
  }
};

}  // namespace tsajs::mec
