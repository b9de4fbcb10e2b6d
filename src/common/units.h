// Unit conversions used throughout the radio and MEC models.
//
// All internal computation is carried out in linear SI units (watts, hertz,
// bits, seconds, CPU cycles). Decibel quantities appear only at the
// configuration boundary, mirroring how the paper states its parameters
// (p_u = 10 dBm, sigma^2 = -100 dBm, path loss in dB).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace tsajs::units {

/// Converts a power ratio expressed in decibels to a linear ratio. Inline:
/// the channel redraw calls it once per (user, server) link, and a call
/// costs a measurable share of the `pow` it wraps.
[[nodiscard]] inline double db_to_linear(double db) noexcept {
  return std::pow(10.0, db / 10.0);
}

/// Converts a linear power ratio to decibels. Requires `linear > 0`.
[[nodiscard]] double linear_to_db(double linear);

/// Converts a power in dBm (decibel-milliwatts) to watts.
[[nodiscard]] double dbm_to_watts(double dbm) noexcept;

/// Converts a power in watts to dBm. Requires `watts > 0`.
[[nodiscard]] double watts_to_dbm(double watts);

// --- Convenience literals for the paper's parameter magnitudes. -----------

constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;

/// Bits in `kb` kilobytes (KB = 1000 bytes; the paper's 420 KB input).
[[nodiscard]] constexpr double kilobytes_to_bits(double kb) noexcept {
  return kb * 1000.0 * 8.0;
}

/// CPU cycles in `mc` Megacycles (the unit used by the paper's figures).
[[nodiscard]] constexpr double megacycles_to_cycles(double mc) noexcept {
  return mc * kMega;
}

/// Formats a value with an SI suffix, e.g. 20e9 -> "20 G". Used by reports.
[[nodiscard]] std::string si_string(double value, const std::string& unit,
                                    int precision = 3);

/// Formats a duration in seconds with an adaptive unit (s / ms / us / ns).
[[nodiscard]] std::string duration_string(double seconds, int precision = 3);

}  // namespace tsajs::units
