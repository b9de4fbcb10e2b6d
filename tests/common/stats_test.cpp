#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"

namespace tsajs {
namespace {

TEST(Accumulator, EmptyIsSane) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.stderr_mean(), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(42.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.max(), 42.0);
}

TEST(Accumulator, RejectsNaNSamples) {
  Accumulator acc;
  acc.add(1.0);
  // One NaN would irreversibly poison the running sums; it must be refused
  // before touching any state.
  EXPECT_THROW(acc.add(std::nan("")), InternalError);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 1.0);
  // Infinities are representable (min/max/mean stay meaningful) and pass.
  acc.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(acc.count(), 2u);
}

TEST(Accumulator, KnownSampleStatistics) {
  Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(StudentT, TabulatedValues) {
  EXPECT_NEAR(student_t_critical(1, 0.95), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(9, 0.95), 2.262, 1e-3);
  EXPECT_NEAR(student_t_critical(29, 0.95), 2.045, 1e-3);
  EXPECT_NEAR(student_t_critical(9, 0.99), 3.250, 1e-3);
}

TEST(StudentT, LargeDofApproachesNormal) {
  // z_{0.975} = 1.95996...
  EXPECT_NEAR(student_t_critical(10000, 0.95), 1.96, 5e-3);
}

TEST(StudentT, RejectsBadInput) {
  EXPECT_THROW((void)student_t_critical(0, 0.95), InvalidArgumentError);
  EXPECT_THROW((void)student_t_critical(5, 0.0), InvalidArgumentError);
  EXPECT_THROW((void)student_t_critical(5, 1.0), InvalidArgumentError);
}

TEST(ConfidenceIntervalTest, CoversTrueMeanAtNominalRate) {
  // Property: a 95% CI over N(0,1) samples should contain 0 roughly 95% of
  // the time. 400 repetitions, tolerance ~4 sigma of Binomial(400, .05).
  Rng rng(7);
  int covered = 0;
  const int reps = 400;
  for (int r = 0; r < reps; ++r) {
    Accumulator acc;
    for (int i = 0; i < 20; ++i) acc.add(rng.normal());
    if (confidence_interval(acc, 0.95).contains(0.0)) ++covered;
  }
  EXPECT_GE(covered, 360);  // >= 90%
  EXPECT_LE(covered, 400);
}

TEST(ConfidenceIntervalTest, DegenerateSamples) {
  Accumulator acc;
  acc.add(5.0);
  const ConfidenceInterval ci = confidence_interval(acc);
  EXPECT_DOUBLE_EQ(ci.mean, 5.0);
  EXPECT_EQ(ci.half_width, 0.0);
}

TEST(P2QuantileTest, ExactBelowFiveSamples) {
  P2Quantile median(0.5);
  EXPECT_EQ(median.value(), 0.0);  // empty convention
  median.add(3.0);
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
  median.add(1.0);
  EXPECT_DOUBLE_EQ(median.value(), 2.0);
  median.add(5.0);
  EXPECT_DOUBLE_EQ(median.value(), 3.0);
  median.add(2.0);
  // Exact interpolated quantile of {1,2,3,5} at q=0.5.
  EXPECT_DOUBLE_EQ(median.value(), quantile({3.0, 1.0, 5.0, 2.0}, 0.5));
}

TEST(P2QuantileTest, RejectsBadLevelAndNaN) {
  EXPECT_THROW(P2Quantile(-0.1), InvalidArgumentError);
  EXPECT_THROW(P2Quantile(1.1), InvalidArgumentError);
  P2Quantile q(0.5);
  EXPECT_THROW(q.add(std::numeric_limits<double>::quiet_NaN()),
               InternalError);
}

TEST(P2QuantileTest, TracksUniformDistribution) {
  Rng rng(1234);
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform();
    samples.push_back(x);
    p50.add(x);
    p99.add(x);
  }
  EXPECT_NEAR(p50.value(), quantile(samples, 0.5), 0.01);
  EXPECT_NEAR(p99.value(), quantile(samples, 0.99), 0.01);
}

TEST(P2QuantileTest, TracksExponentialDistribution) {
  // Heavy-ish right tail: p99 of Exp(1) is ~4.6, far from the median ~0.69;
  // a sketch that conflated the two would miss by a mile.
  Rng rng(99);
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.exponential(1.0);
    samples.push_back(x);
    p50.add(x);
    p99.add(x);
  }
  const double exact50 = quantile(samples, 0.5);
  const double exact99 = quantile(samples, 0.99);
  EXPECT_NEAR(p50.value(), exact50, 0.05 * exact50);
  EXPECT_NEAR(p99.value(), exact99, 0.10 * exact99);
}

TEST(P2QuantileTest, DeterministicAcrossRuns) {
  auto run = [] {
    Rng rng(7);
    P2Quantile p(0.9);
    for (int i = 0; i < 5000; ++i) p.add(rng.normal());
    return p.value();
  };
  const double a = run();
  const double b = run();
  EXPECT_EQ(a, b);  // bitwise: pure function of the sample sequence
}

TEST(Quantile, Interpolates) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW((void)quantile({}, 0.5), InvalidArgumentError);
  EXPECT_THROW((void)quantile({1.0}, 1.5), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs
