#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace tsajs {

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
  // xoshiro256** must not be seeded with the all-zero state; SplitMix64
  // cannot produce four consecutive zeros, so state_ is already valid.
}

double Rng::uniform(double lo, double hi) {
  TSAJS_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TSAJS_REQUIRE(lo <= hi, "uniform_int requires lo <= hi");
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 on full range
  if (span == 0) return static_cast<std::int64_t>(next_u64());
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller. uniform() can return exactly 0; shift into (0, 1].
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::exponential(double rate) {
  TSAJS_REQUIRE(rate > 0.0, "exponential() requires rate > 0");
  return -std::log(1.0 - uniform()) / rate;
}

bool Rng::bernoulli(double p) {
  TSAJS_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli() requires p in [0,1]");
  return uniform() < p;
}

std::uint64_t Rng::derive_seed(std::uint64_t stream_index) noexcept {
  // Mix the generator's own stream with the index through SplitMix64 so that
  // derive_seed(i) != derive_seed(j) produce decorrelated child generators.
  SplitMix64 sm(next_u64() ^ (0x9E3779B97F4A7C15ULL * (stream_index + 1)));
  return sm.next();
}

}  // namespace tsajs
