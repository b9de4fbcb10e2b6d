// Uplink channel-gain generation.
//
// Produces the channel-gain tensor H[u][s][j] (user u -> base station s on
// sub-channel j, linear power gain) from user/BS geometry:
//
//   H = 10^(-(PL(d_us) + X_us) / 10)
//
// where PL is the paper's path loss (radio/pathloss.h) and X_us ~ N(0, 8^2)
// dB is log-normal shadowing, drawn once per link. The paper averages out
// fast fading over the long-term association timescale, so every
// sub-channel of a link carries the same gain.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "geo/point.h"

namespace tsajs::radio {

/// Memoized deterministic path loss for a fixed population of users against
/// a fixed set of base stations, keyed by a *stable* user id (not the row
/// index of one epoch's active subset). ChannelModel::regenerate_into
/// consults it so that per-epoch channel redraws only re-evaluate the
/// path loss for users whose position actually changed — under
/// random-walk mobility a user that rejected every step keeps its exact
/// position and therefore its cached row. A row is reused only while its id
/// presents the exact position it was computed at, so an id may be handed
/// to a different user (sim::StreamDriver recycles a departed session's
/// id): the new position simply recomputes the row.
class PathLossCache {
 public:
  PathLossCache() = default;

  /// Sizes the cache for `num_ids` stable user ids × `num_bs` base stations
  /// and invalidates every row. Base-station geometry is assumed fixed for
  /// the cache's lifetime.
  void reset(std::size_t num_ids, std::size_t num_bs) {
    num_bs_ = num_bs;
    blocks_.clear();
    position_.clear();
    valid_.clear();
    resize(num_ids);
  }

  /// Re-sizes the cache to `num_ids` ids, keeping the rows of the ids that
  /// survive; new ids start invalid. Rows live in fixed blocks of
  /// kBlockIds ids, so growing never moves or copies a row. Blocks are left
  /// uninitialised (a row is always written before it is read), so the
  /// pages of ids never used are never touched.
  void resize(std::size_t num_ids) {
    blocks_.resize((num_ids + kBlockIds - 1) / kBlockIds);
    for (std::unique_ptr<double[]>& block : blocks_) {
      if (!block) {
        block = std::make_unique_for_overwrite<double[]>(kBlockIds * num_bs_);
      }
    }
    position_.resize(num_ids);
    valid_.resize(num_ids, 0);
  }

  [[nodiscard]] std::size_t num_ids() const noexcept {
    return position_.size();
  }
  [[nodiscard]] std::size_t num_bs() const noexcept { return num_bs_; }

 private:
  friend class ChannelModel;
  /// Ids per block. Large enough that a stream's whole population usually
  /// shares one block: many small long-lived blocks fragment the heap
  /// around the decision's growing buffers and can raise the peak resident
  /// set by far more than the rows they hold.
  static constexpr std::size_t kBlockIds = 1024;

  /// Path loss row of `id` [dB], one entry per base station.
  [[nodiscard]] double* row(std::size_t id) noexcept {
    return blocks_[id / kBlockIds].get() + (id % kBlockIds) * num_bs_;
  }

  std::size_t num_bs_ = 0;
  std::vector<std::unique_ptr<double[]>> blocks_;  ///< kBlockIds rows each
  std::vector<geo::Point> position_;  ///< position the row was computed at
  std::vector<char> valid_;
};

/// Generates channel gains for a deployment snapshot with the paper's
/// channel. Stateless: every random draw comes from the caller's Rng.
class ChannelModel {
 public:
  /// Linear power gains, indexed (user, bs, subchannel).
  [[nodiscard]] Matrix3<double> generate(
      const std::vector<geo::Point>& user_positions,
      const std::vector<geo::Point>& bs_positions,
      std::size_t num_subchannels, Rng& rng) const;

  /// Draws a fresh set of gains *into* `out`, reshaping it in place so the
  /// tensor's allocation is reused across calls (the staging hot path of
  /// sim::GridState). Consumes exactly the same RNG stream as
  /// generate(), so the two are bit-for-bit interchangeable.
  ///
  /// With a `cache`, the deterministic path-loss term is memoized per user:
  /// `user_ids[u]` names the stable identity of row `u` (pass nullptr when
  /// row indices are themselves stable), and only rows whose position
  /// changed since their last draw re-evaluate the path loss. The
  /// shadowing draws are unconditionally redrawn either way — the cache
  /// never changes results, only skips deterministic recomputation.
  void regenerate_into(const std::vector<geo::Point>& user_positions,
                       const std::vector<geo::Point>& bs_positions,
                       std::size_t num_subchannels, Rng& rng,
                       Matrix3<double>& out, PathLossCache* cache = nullptr,
                       const std::vector<std::size_t>* user_ids =
                           nullptr) const;
};

/// The paper's channel (140.7 + 36.7 log10 d[km], 8 dB shadowing).
[[nodiscard]] ChannelModel make_paper_channel();

}  // namespace tsajs::radio
