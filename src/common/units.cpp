#include "common/units.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.h"

namespace tsajs::units {

double linear_to_db(double linear) {
  TSAJS_REQUIRE(linear > 0.0, "dB conversion requires a positive ratio");
  return 10.0 * std::log10(linear);
}

double dbm_to_watts(double dbm) noexcept {
  return db_to_linear(dbm) * 1e-3;
}

double watts_to_dbm(double watts) {
  TSAJS_REQUIRE(watts > 0.0, "dBm conversion requires positive power");
  return linear_to_db(watts / 1e-3);
}

namespace {

struct SiScale {
  double factor;
  const char* prefix;
};

constexpr SiScale kScales[] = {
    {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
    {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
};

}  // namespace

std::string si_string(double value, const std::string& unit, int precision) {
  std::ostringstream os;
  if (value == 0.0 || !std::isfinite(value)) {
    os << value << ' ' << unit;
    return os.str();
  }
  const double mag = std::fabs(value);
  for (const auto& scale : kScales) {
    if (mag >= scale.factor) {
      os << std::setprecision(precision) << value / scale.factor << ' '
         << scale.prefix << unit;
      return os.str();
    }
  }
  os << std::setprecision(precision) << value << ' ' << unit;
  return os.str();
}

std::string duration_string(double seconds, int precision) {
  return si_string(seconds, "s", precision);
}

}  // namespace tsajs::units
