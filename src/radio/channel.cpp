#include "radio/channel.h"

#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "radio/pathloss.h"

namespace tsajs::radio {

namespace {

/// Log-normal shadowing standard deviation [dB] (paper: 8 dB).
constexpr double kShadowingSigmaDb = 8.0;

}  // namespace

Matrix3<double> ChannelModel::generate(
    const std::vector<geo::Point>& user_positions,
    const std::vector<geo::Point>& bs_positions, std::size_t num_subchannels,
    Rng& rng) const {
  Matrix3<double> gains;
  regenerate_into(user_positions, bs_positions, num_subchannels, rng, gains);
  return gains;
}

void ChannelModel::regenerate_into(
    const std::vector<geo::Point>& user_positions,
    const std::vector<geo::Point>& bs_positions, std::size_t num_subchannels,
    Rng& rng, Matrix3<double>& out, PathLossCache* cache,
    const std::vector<std::size_t>* user_ids) const {
  TSAJS_REQUIRE(num_subchannels >= 1, "need at least one sub-channel");
  const std::size_t num_users = user_positions.size();
  const std::size_t num_bs = bs_positions.size();
  if (user_ids != nullptr) {
    TSAJS_REQUIRE(user_ids->size() == num_users,
                  "need one stable id per user row");
  }
  if (cache != nullptr) {
    TSAJS_REQUIRE(cache->num_bs() == num_bs,
                  "path-loss cache sized for a different station set");
  }
  out.reshape(num_users, num_bs, num_subchannels);
  const auto compute_row = [&](std::size_t u, double* row) {
    for (std::size_t s = 0; s < num_bs; ++s) {
      row[s] = paper_pathloss_db(
          geo::distance(user_positions[u], bs_positions[s]));
    }
  };
  // One flat pass in layout order: per user a path-loss row (cached, or
  // computed once into `uncached`), then per server one shadowing draw and
  // one pow, the gain stored N times. One draw per link in (user, server)
  // order, cached or not, is the stream the seed -> bytes contract fixes.
  std::vector<double> uncached(cache == nullptr ? num_bs : 0);
  double* link = out.flat().data();
  for (std::size_t u = 0; u < num_users; ++u) {
    const double* loss_row = uncached.data();
    if (cache == nullptr) {
      compute_row(u, uncached.data());
    } else if (num_bs > 0) {
      const std::size_t id = user_ids != nullptr ? (*user_ids)[u] : u;
      TSAJS_REQUIRE(id < cache->num_ids(), "stable user id out of range");
      double* row = cache->row(id);
      if (cache->valid_[id] == 0 ||
          !(cache->position_[id] == user_positions[u])) {
        compute_row(u, row);
        cache->position_[id] = user_positions[u];
        cache->valid_[id] = 1;
      }
      loss_row = row;
    }
    for (std::size_t s = 0; s < num_bs; ++s) {
      // X_us = 0 dB mean + sigma * z, summed in the order the contract fixes.
      const double shadow_db = 0.0 + kShadowingSigmaDb * rng.normal();
      const double link_gain =
          units::db_to_linear(-(loss_row[s] + shadow_db));
      for (std::size_t j = 0; j < num_subchannels; ++j) link[j] = link_gain;
      link += num_subchannels;
    }
  }
}

ChannelModel make_paper_channel() { return ChannelModel{}; }

}  // namespace tsajs::radio
