#include "radio/pathloss.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace tsajs::radio {

namespace {

constexpr double kInterceptDb = 140.7;  ///< loss at 1 km
constexpr double kExponent = 3.67;      ///< path-loss exponent
constexpr double kMinDistanceM = 10.0;

}  // namespace

double paper_pathloss_db(double distance_m) {
  TSAJS_REQUIRE(distance_m >= 0.0, "distance must be non-negative");
  const double d_km = std::max(distance_m, kMinDistanceM) / 1000.0;
  return kInterceptDb + 10.0 * kExponent * std::log10(d_km);
}

}  // namespace tsajs::radio
