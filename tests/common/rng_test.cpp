#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/stats.h"

namespace tsajs {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanAndRange) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform(-2.0, 6.0));
  EXPECT_NEAR(acc.mean(), 2.0, 0.05);
  EXPECT_GE(acc.min(), -2.0);
  EXPECT_LT(acc.max(), 6.0);
}

TEST(Rng, UniformIndexCoversAllValuesUnbiased) {
  Rng rng(13);
  std::vector<int> counts(7, 0);
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 7, 500);  // ~5 sigma
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(17);
  EXPECT_THROW((void)rng.uniform_index(0), InvalidArgumentError);
}

/// uniform_index as it computed every draw before it accepted r >= n
/// early: the threshold (2^64 - n) mod n, then r % n.
std::uint64_t two_division_uniform_index(Rng& rng, std::uint64_t n) {
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    if (r >= threshold) return r % n;
  }
}

TEST(Rng, UniformIndexMatchesTheTwoDivisionLoop) {
  // Small n, a power of two, and the large n whose threshold rejects often
  // (2^63 + 1 rejects almost half the draws) or whose draws mostly fall
  // below n (2^64 - 1), where the threshold must still be computed.
  const std::uint64_t ns[] = {1,
                              2,
                              3,
                              64,
                              (std::uint64_t{1} << 32) + 1,
                              (std::uint64_t{1} << 63) - 1,
                              std::uint64_t{1} << 63,
                              (std::uint64_t{1} << 63) + 1,
                              ~std::uint64_t{0}};
  for (const std::uint64_t n : ns) {
    Rng early(97);
    Rng reference(97);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(early.uniform_index(n),
                two_division_uniform_index(reference, n))
          << "n = " << n << ", draw " << i;
    }
    EXPECT_EQ(early.next_u64(), reference.next_u64()) << "n = " << n;
  }
}

TEST(Bits, CountAndSelectMatchTheBitScan) {
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    // Sparse, dense and uniform words, the empty and the full one included.
    std::uint64_t word = rng.next_u64();
    if (i % 3 == 1) word &= rng.next_u64() & rng.next_u64();
    if (i % 3 == 2) word |= rng.next_u64() | rng.next_u64();
    if (i == 0) word = 0;
    if (i == 1) word = ~std::uint64_t{0};
    ASSERT_EQ(bit_count(word), static_cast<unsigned>(std::popcount(word)));
    std::uint64_t k = 0;
    for (unsigned b = 0; b < 64; ++b) {
      if ((word >> b & 1) == 0) continue;
      ASSERT_EQ(nth_set_bit(word, k), b) << std::hex << word << " k " << k;
      ++k;
    }
  }
}

TEST(Rng, UniformSetBitDrawsOnceAmongTheSetBits) {
  Rng rng(103);
  Rng untouched = rng;
  EXPECT_FALSE(uniform_set_bit(rng, 0).has_value());
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());  // no draw for 0
  const std::uint64_t word = 0b1011'0100;  // bits 2, 4, 5 and 7
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 40000; ++i) ++counts[*uniform_set_bit(rng, word)];
  for (std::size_t bit = 0; bit < 64; ++bit) {
    if ((word >> bit & 1) != 0) {
      EXPECT_NEAR(counts[bit], 10000, 500) << "bit " << bit;
    } else {
      EXPECT_EQ(counts[bit], 0) << "bit " << bit;
    }
  }
  // The same draw as picking from the ascending list of set bits.
  const std::size_t listed[] = {2, 4, 5, 7};
  Rng a(107);
  Rng b(107);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(uniform_set_bit(a, word), listed[b.uniform_index(4)]);
  }
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(37);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.exponential(2.0));
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 30000, 700);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, DerivedSeedsDecorrelated) {
  Rng parent(47);
  Rng child_a(parent.derive_seed(0));
  Rng child_b(parent.derive_seed(1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.next_u64() == child_b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, WorksWithStdShuffle) {
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<int> original = values;
  Rng rng(53);
  std::shuffle(values.begin(), values.end(), rng);
  std::vector<int> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(SplitMix64, KnownFirstOutputsDistinct) {
  SplitMix64 sm(0);
  const auto a = sm.next();
  const auto b = sm.next();
  EXPECT_NE(a, b);
  // Reference value of splitmix64(seed=0) first output.
  EXPECT_EQ(a, 0xE220A8397B1DCDAFULL);
}

}  // namespace
}  // namespace tsajs
