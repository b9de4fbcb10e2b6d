// Streaming statistics and confidence intervals.
//
// The paper reports mean system utility with 95% confidence intervals over
// repeated random drops (Fig. 3). `Accumulator` implements Welford's
// numerically stable online mean/variance; `confidence_interval` applies the
// Student-t quantile for small trial counts. For the streaming service's
// latency telemetry `P2Quantile` tracks one quantile via the P² algorithm —
// constant memory, deterministic, no sample retention.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace tsajs {

/// P² (Jain & Chlamtac, CACM 1985) streaming estimator of one quantile:
/// five markers track (min, the q/2, q, and (1+q)/2 quantiles, max); each
/// new sample shifts marker counts and nudges marker heights by a
/// piecewise-parabolic update. O(1) memory and time per sample, no sample
/// retention, and fully deterministic: the estimate is a pure function of
/// the sample *sequence*. Below five samples the estimate is the exact
/// interpolated quantile.
class P2Quantile {
 public:
  /// `q` in [0,1], e.g. 0.5 for the median, 0.99 for p99.
  explicit P2Quantile(double q);

  /// Adds one sample; NaN is rejected (see Accumulator::add).
  void add(double x);

  /// Current estimate; 0.0 when no samples have been added (mirroring
  /// Accumulator::mean's empty-state convention).
  [[nodiscard]] double value() const noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

 private:
  void init_markers() noexcept;

  double q_;
  std::size_t count_ = 0;
  /// Marker heights; for count_ <= 5 the first count_ entries are the
  /// sorted raw samples.
  double heights_[5] = {0, 0, 0, 0, 0};
  /// Actual marker positions (1-based sample ranks).
  double positions_[5] = {0, 0, 0, 0, 0};
  /// Desired marker positions and their per-sample increments.
  double desired_[5] = {0, 0, 0, 0, 0};
  double increments_[5] = {0, 0, 0, 0, 0};
};

/// Welford online accumulator for mean / variance / min / max.
class Accumulator {
 public:
  /// Adds one sample. Throws InternalError on NaN — a single NaN would
  /// irreversibly poison the running sums (and thus a whole report), so it
  /// is rejected before touching any state.
  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Mean of the samples; defined as 0.0 when no samples have been added
  /// (rather than NaN), so downstream arithmetic on empty accumulators —
  /// e.g. a dynamic-simulation report whose every epoch was empty — stays
  /// finite.
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : mean_;
  }
  /// Unbiased sample variance. Zero when fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean. Zero when fewer than two samples.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// A symmetric confidence interval [mean - half_width, mean + half_width].
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;

  [[nodiscard]] double lower() const noexcept { return mean - half_width; }
  [[nodiscard]] double upper() const noexcept { return mean + half_width; }
  [[nodiscard]] bool contains(double x) const noexcept {
    return x >= lower() && x <= upper();
  }
};

/// Two-sided Student-t critical value t_{alpha/2, dof} for the given
/// confidence level (e.g. 0.95). Exact for the tabulated small dofs used by
/// our trial counts; falls back to the normal quantile for large dof.
[[nodiscard]] double student_t_critical(std::size_t dof, double confidence);

/// Confidence interval of the mean from an accumulator. With fewer than two
/// samples the half-width is zero.
[[nodiscard]] ConfidenceInterval confidence_interval(const Accumulator& acc,
                                                     double confidence = 0.95);

/// Quantile (0 <= q <= 1) of a sample, linear interpolation; sorts a copy.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

}  // namespace tsajs
