#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace tsajs {

P2Quantile::P2Quantile(double q) : q_(q) {
  TSAJS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
}

void P2Quantile::init_markers() noexcept {
  // Jain & Chlamtac's initial state once five samples are in: markers sit
  // on the sorted samples at ranks 1..5; desired positions spread them at
  // {min, q/2, q, (1+q)/2, max} of the growing sample.
  for (int i = 0; i < 5; ++i) positions_[i] = static_cast<double>(i + 1);
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = q_ / 2.0;
  increments_[2] = q_;
  increments_[3] = (1.0 + q_) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::add(double x) {
  TSAJS_CHECK(!std::isnan(x), "P2Quantile::add rejects NaN samples");
  if (count_ < 5) {
    // Warm-up: keep the raw samples sorted in place.
    std::size_t i = count_;
    while (i > 0 && heights_[i - 1] > x) {
      heights_[i] = heights_[i - 1];
      --i;
    }
    heights_[i] = x;
    ++count_;
    if (count_ == 5) init_markers();
    return;
  }

  // Locate the cell and clamp the extremes.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && heights_[k + 1] <= x) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Nudge the three interior markers toward their desired positions with
  // the piecewise-parabolic (P²) height update, falling back to linear
  // interpolation when the parabola would leave the bracketing heights.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    if ((d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
        (d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      const double np = positions_[i + 1] - positions_[i];
      const double nm = positions_[i - 1] - positions_[i];
      const double parabolic =
          heights_[i] +
          s / (positions_[i + 1] - positions_[i - 1]) *
              ((positions_[i] - positions_[i - 1] + s) *
                   (heights_[i + 1] - heights_[i]) / np +
               (positions_[i + 1] - positions_[i] - s) *
                   (heights_[i] - heights_[i - 1]) / (-nm));
      if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
        heights_[i] = parabolic;
      } else {
        const int j = i + static_cast<int>(s);
        heights_[i] += s * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += s;
    }
  }
  ++count_;
}

double P2Quantile::value() const noexcept {
  if (count_ == 0) return 0.0;
  if (count_ <= 5) {
    // Exact interpolated quantile over the sorted warm-up samples (same
    // convention as tsajs::quantile).
    const double pos = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= count_) return heights_[count_ - 1];
    return heights_[lo] * (1.0 - frac) + heights_[lo + 1] * frac;
  }
  return heights_[2];
}

void Accumulator::add(double x) {
  // One NaN would silently poison the running mean/variance and every
  // later sample; reject it at the door instead.
  TSAJS_CHECK(!std::isnan(x), "Accumulator::add rejects NaN samples");
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const noexcept {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

double Accumulator::stderr_mean() const noexcept {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double Accumulator::sum() const noexcept {
  return mean_ * static_cast<double>(count_);
}

namespace {

// Two-sided 95% and 99% Student-t critical values for small dof.
constexpr double kT95[] = {
    0,      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    2.228,  2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
    2.086,  2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
    2.042};
constexpr double kT99[] = {
    0,      63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250,
    3.169,  3.106,  3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861,
    2.845,  2.831,  2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756,
    2.750};

// Acklam-style inverse normal CDF (sufficient accuracy for CI reporting).
double inverse_normal_cdf(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  TSAJS_REQUIRE(p > 0.0 && p < 1.0, "inverse normal CDF domain is (0,1)");
  if (p < p_low) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > 1 - p_low) {
    const double q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

}  // namespace

double student_t_critical(std::size_t dof, double confidence) {
  TSAJS_REQUIRE(confidence > 0.0 && confidence < 1.0,
                "confidence must be in (0,1)");
  TSAJS_REQUIRE(dof >= 1, "Student-t requires dof >= 1");
  const bool is95 = std::fabs(confidence - 0.95) < 1e-9;
  const bool is99 = std::fabs(confidence - 0.99) < 1e-9;
  if (dof <= 30 && (is95 || is99)) {
    return (is95 ? kT95 : kT99)[dof];
  }
  // Normal approximation with the Cornish–Fisher dof correction.
  const double z = inverse_normal_cdf(0.5 + confidence / 2.0);
  const auto v = static_cast<double>(dof);
  return z + (z * z * z + z) / (4.0 * v);
}

ConfidenceInterval confidence_interval(const Accumulator& acc,
                                       double confidence) {
  ConfidenceInterval ci;
  ci.mean = acc.mean();
  if (acc.count() < 2) return ci;
  ci.half_width =
      student_t_critical(acc.count() - 1, confidence) * acc.stderr_mean();
  return ci;
}

double quantile(std::vector<double> samples, double q) {
  TSAJS_REQUIRE(!samples.empty(), "quantile of an empty sample");
  TSAJS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples.size()) return samples.back();
  return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

}  // namespace tsajs
