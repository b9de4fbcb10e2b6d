// Deterministic random-number generation.
//
// Every stochastic component of the simulator (user placement, shadowing,
// the annealer's proposal/acceptance draws, Monte-Carlo trials) draws from a
// `Rng` seeded explicitly by the caller, so that every experiment in
// EXPERIMENTS.md is bit-reproducible. The generator is xoshiro256**, seeded
// through SplitMix64 per the reference recommendation; we avoid
// std::mt19937 + std::*_distribution because their output is not portable
// across standard libraries.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "common/bits.h"
#include "common/error.h"

namespace tsajs {

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds (e.g. one per Monte-Carlo trial).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 with distribution helpers.
///
/// Satisfies std::uniform_random_bit_generator, so it can also be plugged
/// into <algorithm> facilities such as std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Distinct seeds yield independent-looking streams.
  explicit Rng(std::uint64_t seed = 0x2545F4914F6CDD1DULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Raw 64 random bits.
  result_type operator()() noexcept { return next_u64(); }
  result_type next_u64() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random bits scaled.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection method);
  /// an accepted draw costs one 64-bit division unless it falls below n.
  std::uint64_t uniform_index(std::uint64_t n) {
    TSAJS_REQUIRE(n > 0, "uniform_index requires n > 0");
    // Rejection sampling to remove modulo bias: accept r >= (2^64 - n) mod
    // n. That threshold is below n, so any r >= n passes without computing
    // it; the accepted draws, and the stream, are the same either way.
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= n || r >= (0 - n) % n) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal deviate (Box–Muller with caching).
  double normal() noexcept;

  /// Exponential deviate with the given rate (rate > 0).
  double exponential(double rate);

  /// Bernoulli draw with probability `p` of returning true (p in [0,1]).
  bool bernoulli(double p);

  /// Derives a child seed; children of distinct indices are independent.
  std::uint64_t derive_seed(std::uint64_t stream_index) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// A uniformly random set bit of `word`: draws one
/// rng.uniform_index(bit_count(word)) and returns the index of that set bit,
/// counting from the lowest — the draw `candidates[rng.uniform_index(
/// candidates.size())]` makes over the ascending list of set bits. When
/// `word` is 0, returns nullopt and draws nothing.
inline std::optional<std::size_t> uniform_set_bit(Rng& rng,
                                                  std::uint64_t word) {
  const unsigned count = bit_count(word);
  if (count == 0) return std::nullopt;
  return nth_set_bit(word, rng.uniform_index(count));
}

}  // namespace tsajs
