#include "radio/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/stats.h"
#include "common/units.h"
#include "radio/pathloss.h"
#include "radio/spectrum.h"

namespace tsajs::radio {
namespace {

std::vector<geo::Point> grid_points(std::size_t n, double spacing) {
  std::vector<geo::Point> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = {static_cast<double>(i) * spacing, 0.0};
  }
  return pts;
}

std::vector<std::uint64_t> bits(const Matrix3<double>& gains) {
  std::vector<std::uint64_t> out;
  for (const double gain : gains.data()) {
    out.push_back(std::bit_cast<std::uint64_t>(gain));
  }
  return out;
}

// The redraw as a loop per link, the reference regenerate_into's flat pass
// must match bit for bit: the path loss of each link, a shadowing draw
// formed as mean + sigma * z with a 0 dB mean and sigma = 8 dB, the gain
// as pow(10, dB / 10), and one bounds-checked store per sub-channel.
Matrix3<double> per_link_reference(const std::vector<geo::Point>& users,
                                   const std::vector<geo::Point>& sites,
                                   std::size_t num_subchannels, Rng& rng) {
  Matrix3<double> out(users.size(), sites.size(), num_subchannels);
  for (std::size_t u = 0; u < users.size(); ++u) {
    for (std::size_t s = 0; s < sites.size(); ++s) {
      const double pl_db =
          paper_pathloss_db(geo::distance(users[u], sites[s]));
      const double shadow_db = 0.0 + 8.0 * rng.normal();
      const double link_gain = std::pow(10.0, -(pl_db + shadow_db) / 10.0);
      for (std::size_t j = 0; j < num_subchannels; ++j) {
        out(u, s, j) = link_gain;
      }
    }
  }
  return out;
}

TEST(SpectrumTest, SubchannelWidth) {
  const Spectrum spectrum(20e6, 3);
  EXPECT_NEAR(spectrum.subchannel_bandwidth_hz(), 20e6 / 3.0, 1e-6);
  EXPECT_EQ(spectrum.num_subchannels(), 3u);
}

TEST(SpectrumTest, RejectsBadArguments) {
  EXPECT_THROW(Spectrum(0.0, 3), InvalidArgumentError);
  EXPECT_THROW(Spectrum(20e6, 0), InvalidArgumentError);
}

TEST(ChannelModelTest, ShapeMatchesInputs) {
  ChannelModel model = make_paper_channel();
  Rng rng(1);
  const auto gains =
      model.generate(grid_points(5, 300.0), grid_points(3, 1000.0), 4, rng);
  EXPECT_EQ(gains.dim0(), 5u);
  EXPECT_EQ(gains.dim1(), 3u);
  EXPECT_EQ(gains.dim2(), 4u);
}

TEST(ChannelModelTest, GainsPositiveAndFinite) {
  ChannelModel model = make_paper_channel();
  Rng rng(2);
  const auto gains =
      model.generate(grid_points(10, 137.0), grid_points(4, 900.0), 3, rng);
  for (std::size_t u = 0; u < 10; ++u) {
    for (std::size_t s = 0; s < 4; ++s) {
      for (std::size_t j = 0; j < 3; ++j) {
        ASSERT_GT(gains(u, s, j), 0.0);
        ASSERT_TRUE(std::isfinite(gains(u, s, j)));
      }
    }
  }
}

TEST(ChannelModelTest, NoFadingMeansEqualGainAcrossSubchannels) {
  ChannelModel model = make_paper_channel();
  Rng rng(3);
  const auto gains =
      model.generate(grid_points(4, 250.0), grid_points(2, 1000.0), 5, rng);
  for (std::size_t u = 0; u < 4; ++u) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t j = 1; j < 5; ++j) {
        EXPECT_DOUBLE_EQ(gains(u, s, j), gains(u, s, 0));
      }
    }
  }
}

TEST(ChannelModelTest, ShadowingMedianMatchesMeanPathloss) {
  // With sigma = 8 dB, the median (in dB) of many draws of one link equals
  // the deterministic path loss; test via the mean of the dB gains.
  ChannelModel model = make_paper_channel();
  const geo::Point user{500.0, 0.0};
  const geo::Point bs{0.0, 0.0};
  Rng rng(5);
  Accumulator db_gain;
  for (int i = 0; i < 5000; ++i) {
    const auto gains = model.generate({user}, {bs}, 1, rng);
    db_gain.add(units::linear_to_db(gains(0, 0, 0)));
  }
  const double expected_db = -paper_pathloss_db(500.0);
  EXPECT_NEAR(db_gain.mean(), expected_db, 0.5);
  EXPECT_NEAR(db_gain.stddev(), 8.0, 0.3);
}

TEST(RegenerateIntoTest, MatchesGenerateBitForBit) {
  // regenerate_into draws in exactly generate()'s order, so same-seeded
  // runs of the two must agree exactly.
  const ChannelModel model = make_paper_channel();
  const auto users = grid_points(7, 240.0);
  const auto sites = grid_points(3, 1100.0);
  Rng rng_a(5);
  Rng rng_b(5);
  const Matrix3<double> reference = model.generate(users, sites, 4, rng_a);
  Matrix3<double> out;
  model.regenerate_into(users, sites, 4, rng_b, out);
  ASSERT_EQ(out.dim0(), reference.dim0());
  ASSERT_EQ(out.dim1(), reference.dim1());
  ASSERT_EQ(out.dim2(), reference.dim2());
  EXPECT_EQ(out.data(), reference.data());
}

TEST(RegenerateIntoTest, MatchesThePerLinkReference) {
  // Random shapes with N in {1, 3, 8}, U and S odd: Box–Muller makes its
  // deviates in pairs, so the cached second one is drawn for the next
  // user's first link and, U * S being odd, for the next call's. Each
  // shape is drawn three times without a cache and three times through one,
  // whose ids keep their rows (hits) or pass to other users (recycled).
  // After every call the generators continue identically.
  const ChannelModel model = make_paper_channel();
  constexpr std::size_t kSubchannels[] = {1, 3, 8};
  Rng shapes(29);
  const auto point = [&] {
    return geo::Point{shapes.uniform(-1500.0, 1500.0),
                      shapes.uniform(-1500.0, 1500.0)};
  };
  Matrix3<double> plain;  // reshaped across shapes, never cleared
  Matrix3<double> cached;
  for (int shape = 0; shape < 12; ++shape) {
    const std::size_t n = kSubchannels[shape % 3];
    const std::size_t num_users = 1 + 2 * shapes.uniform_index(20);
    const std::size_t num_sites = 1 + 2 * shapes.uniform_index(5);
    SCOPED_TRACE(::testing::Message() << "U=" << num_users << " S="
                                      << num_sites << " N=" << n);
    std::vector<geo::Point> sites(num_sites);
    std::generate(sites.begin(), sites.end(), point);
    std::vector<geo::Point> population(2 * num_users);
    std::generate(population.begin(), population.end(), point);
    std::vector<std::size_t> members(num_users);
    std::iota(members.begin(), members.end(), std::size_t{0});
    std::vector<std::size_t> ids = members;
    std::shuffle(ids.begin(), ids.end(), shapes);
    PathLossCache cache;
    cache.reset(num_users, num_sites);

    const std::uint64_t seed = shapes.next_u64();
    Rng rng_reference(seed);
    Rng rng_plain(seed);
    Rng rng_cached(seed);
    for (int call = 0; call < 3; ++call) {
      if (call > 0) {
        // The first half keep their ids and positions; the second half's
        // ids go to other users, most at positions their row was not
        // computed at.
        const std::size_t half = num_users / 2;
        std::shuffle(ids.begin() + static_cast<std::ptrdiff_t>(half),
                     ids.end(), shapes);
        for (std::size_t u = half; u < num_users; ++u) {
          members[u] = shapes.uniform_index(population.size());
        }
      }
      std::vector<geo::Point> users;
      for (const std::size_t m : members) users.push_back(population[m]);

      const Matrix3<double> reference =
          per_link_reference(users, sites, n, rng_reference);
      model.regenerate_into(users, sites, n, rng_plain, plain);
      model.regenerate_into(users, sites, n, rng_cached, cached, &cache,
                            &ids);
      ASSERT_EQ(plain.dim0(), num_users);
      ASSERT_EQ(plain.dim1(), num_sites);
      ASSERT_EQ(plain.dim2(), n);
      ASSERT_EQ(bits(plain), bits(reference)) << "call " << call;
      ASSERT_EQ(bits(cached), bits(reference)) << "call " << call;
      Rng next_reference = rng_reference;
      Rng next_plain = rng_plain;
      Rng next_cached = rng_cached;
      for (int k = 0; k < 4; ++k) {
        const auto expected = std::bit_cast<std::uint64_t>(
            next_reference.normal());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(next_plain.normal()),
                  expected);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(next_cached.normal()),
                  expected);
      }
    }
  }
}

TEST(RegenerateIntoTest, PathLossCacheDoesNotChangeResults) {
  // Drawing with a warm cache must be bit-identical to the uncached path,
  // whether users moved or not: only deterministic work is memoized.
  ChannelModel model = make_paper_channel();
  const auto sites = grid_points(3, 1000.0);
  auto users = grid_points(6, 310.0);
  PathLossCache cache;
  cache.reset(6, sites.size());

  Rng rng_cached(11);
  Rng rng_plain(11);
  Matrix3<double> cached;
  Matrix3<double> plain;
  // Epoch 1: cold cache, every row computed.
  model.regenerate_into(users, sites, 3, rng_cached, cached, &cache);
  model.regenerate_into(users, sites, 3, rng_plain, plain);
  EXPECT_EQ(cached.data(), plain.data());
  // Epoch 2: users 0 and 3 move, the rest hit the cache.
  users[0].x += 55.0;
  users[3].y += 31.0;
  model.regenerate_into(users, sites, 3, rng_cached, cached, &cache);
  model.regenerate_into(users, sites, 3, rng_plain, plain);
  EXPECT_EQ(cached.data(), plain.data());
}

TEST(RegenerateIntoTest, CacheKeyedByStableIdsAcrossActiveSubsets) {
  // With `user_ids`, rows cache under population ids: a user keeps its
  // cached path loss even when its index inside the active subset shifts.
  ChannelModel model = make_paper_channel();
  const auto sites = grid_points(2, 900.0);
  const auto population = grid_points(5, 270.0);
  PathLossCache cache;
  cache.reset(population.size(), sites.size());

  // Epoch 1: users {1, 3, 4} active; epoch 2: users {3, 4} active at the
  // same positions but different subset indices.
  const std::vector<std::size_t> active1 = {1, 3, 4};
  const std::vector<std::size_t> active2 = {3, 4};
  Rng rng_cached(17);
  Rng rng_plain(17);
  Matrix3<double> cached;
  Matrix3<double> plain;
  std::vector<geo::Point> positions;
  for (const std::size_t id : active1) positions.push_back(population[id]);
  model.regenerate_into(positions, sites, 2, rng_cached, cached, &cache,
                        &active1);
  model.regenerate_into(positions, sites, 2, rng_plain, plain);
  EXPECT_EQ(cached.data(), plain.data());
  positions.clear();
  for (const std::size_t id : active2) positions.push_back(population[id]);
  model.regenerate_into(positions, sites, 2, rng_cached, cached, &cache,
                        &active2);
  model.regenerate_into(positions, sites, 2, rng_plain, plain);
  EXPECT_EQ(cached.data(), plain.data());
}

TEST(RegenerateIntoTest, CacheGrowsAndRecyclesIdsWithoutChangingResults) {
  // Growing past a block boundary keeps the rows already cached, and an id
  // handed to a user at a new position recomputes its row.
  ChannelModel model = make_paper_channel();
  const auto sites = grid_points(3, 1000.0);
  const auto population = grid_points(8, 230.0);
  PathLossCache cache;
  cache.reset(0, sites.size());
  EXPECT_EQ(cache.num_ids(), 0u);

  Rng rng_cached(23);
  Rng rng_plain(23);
  Matrix3<double> cached;
  Matrix3<double> plain;
  const auto draw = [&](const std::vector<std::size_t>& users,
                        const std::vector<std::size_t>& ids) {
    std::vector<geo::Point> positions;
    for (const std::size_t u : users) positions.push_back(population[u]);
    model.regenerate_into(positions, sites, 2, rng_cached, cached, &cache,
                          &ids);
    model.regenerate_into(positions, sites, 2, rng_plain, plain);
    EXPECT_EQ(cached.data(), plain.data());
  };
  cache.resize(3);
  draw({0, 1, 2}, {0, 1, 2});
  cache.resize(2100);  // past two block boundaries
  EXPECT_EQ(cache.num_ids(), 2100u);
  draw({0, 3, 4}, {0, 2099, 1024});  // id 0 cached, 2099 and 1024 fresh
  draw({4, 0, 3}, {1024, 0, 2099});  // every row read back from its block
  draw({5, 1, 6}, {2099, 1, 0});     // ids 2099 and 0 now hold other users
}

}  // namespace
}  // namespace tsajs::radio
