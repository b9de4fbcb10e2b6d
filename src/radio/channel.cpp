#include "radio/channel.h"

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
  for (std::size_t u = 0; u < num_users; ++u) {
    const double* loss_row = nullptr;
    if (cache != nullptr && num_bs > 0) {
      const std::size_t id = user_ids != nullptr ? (*user_ids)[u] : u;
      TSAJS_REQUIRE(id < cache->num_ids(), "stable user id out of range");
      double* row = cache->row(id);
      if (cache->valid_[id] == 0 ||
          !(cache->position_[id] == user_positions[u])) {
        for (std::size_t s = 0; s < num_bs; ++s) {
          row[s] = paper_pathloss_db(
              geo::distance(user_positions[u], bs_positions[s]));
        }
        cache->position_[id] = user_positions[u];
        cache->valid_[id] = 1;
      }
      loss_row = row;
    }
    for (std::size_t s = 0; s < num_bs; ++s) {
      const double pl_db =
          loss_row != nullptr
              ? loss_row[s]
              : paper_pathloss_db(
                    geo::distance(user_positions[u], bs_positions[s]));
      const double shadow_db = rng.normal(0.0, kShadowingSigmaDb);
      const double link_gain = units::db_to_linear(-(pl_db + shadow_db));
      for (std::size_t j = 0; j < num_subchannels; ++j) {
        out(u, s, j) = link_gain;
      }
    }
  }
}

ChannelModel make_paper_channel() { return ChannelModel{}; }

}  // namespace tsajs::radio
