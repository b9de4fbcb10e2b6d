#include "jtora/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.h"

namespace tsajs::jtora {

namespace {

/// Relative rounding margin of the rejection bound. The exact preview sums
/// at most 4S + 2 gain terms (S servers) in its own order, then rounds
/// three more times in `utility + sum - lambda` and the annealer's
/// difference; each slack is an S-term sum. The exact change can exceed
/// the bound by at most about (5S + 10) * 2^-53 times the magnitudes the
/// margin multiplies: about 1e-12 at S = 2,000, three orders of magnitude
/// inside this factor (DESIGN.md §8). The fixup argmax's bounds share the
/// exact chain's order, so only a log2 that is not monotone can put an
/// exact value above them, by a few ulps of the Gamma terms; the same
/// factor covers that with room to spare.
constexpr double kBoundMargin = 1e-9;

/// An upper bound on std::log2(x) for x >= 1 without calling it:
/// log2 x <= (x - 1) / ln 2. The factor carries a relative 2^-40 on top of
/// log2(e), which covers this product's three roundings and the error of
/// libm's log2 with thousands of ulps to spare, so the rounded bound is
/// never below the rounded log2 (DESIGN.md §8).
constexpr double kLog2UpperFactor = std::numbers::log2e * (1.0 + 0x1p-40);
double log2_upper(double x) { return (x - 1.0) * kLog2UpperFactor; }

/// Committed operations between two anti-drift rebuilds.
constexpr std::size_t kRebuildInterval = 4096;

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const CompiledProblem& problem,
                                           const Assignment& initial)
    : problem_(&problem),
      x_(initial),
      num_servers_(problem.num_servers()),
      num_subchannels_(problem.num_subchannels()),
      noise_w_(problem.noise_w()),
      cloud_cpu_hz_(problem.scenario().cloud().cpu_hz) {
  rebuild();
}

void IncrementalEvaluator::rebuild() {
  gain_minus_gamma_ = 0.0;
  lambda_cost_ = 0.0;
  server_sqrt_eta_.assign(num_servers_, 0.0);
  server_count_.assign(num_servers_, 0);
  cloud_sqrt_eta_ = 0.0;
  cloud_count_ = 0;
  user_gain_.assign(problem_->num_users(), 0.0);
  user_ceiling_.assign(problem_->num_users(), 0.0);
  channel_power_.assign(num_servers_ * num_subchannels_, 0.0);
  const std::vector<std::size_t> offloaded = x_.offloaded_users();
  for (const std::size_t u : offloaded) {
    const Slot slot = *x_.slot_of(u);
    user_ceiling_[u] =
        gain_of(u, slot.server, problem_->signal(u, slot.server));
    // Every offloaded user transmits, forwarded ones included, so each
    // received-power lane gets the chain 0.0 + r_1 + r_2 + ... in ascending
    // user order (offloaded_users() is ascending).
    add_channel_power(u, slot.subchannel, +1.0);
    if (x_.is_forwarded(u)) {
      cloud_sqrt_eta_ += problem_->sqrt_eta(u);
      ++cloud_count_;
      continue;
    }
    server_sqrt_eta_[slot.server] += problem_->sqrt_eta(u);
    ++server_count_[slot.server];
  }
  for (const std::size_t u : offloaded) {
    refresh_user_cost(u);
  }
  channel_slack_.assign(num_subchannels_, 0.0);
  for (std::size_t j = 0; j < num_subchannels_; ++j) refresh_slack(j);
  gain_const_total_ = 0.0;
  for (std::size_t u = 0; u < problem_->num_users(); ++u) {
    gain_const_total_ += problem_->gain_const(u);
  }
  for (std::size_t s = 0; s < num_servers_; ++s) {
    if (server_count_[s] > 0) {
      lambda_cost_ += server_sqrt_eta_[s] * server_sqrt_eta_[s] /
                      problem_->server_cpu_hz(s);
    }
  }
  if (cloud_count_ > 0) {
    lambda_cost_ += cloud_sqrt_eta_ * cloud_sqrt_eta_ / cloud_cpu_hz_;
  }
  utility_ = gain_minus_gamma_ - lambda_cost_;
}

void IncrementalEvaluator::add_channel_power(std::size_t u, std::size_t j,
                                             double sign) {
  // Elementwise AXPY against the server-contiguous signal row.
  double* power = channel_power_.data() + j * num_servers_;
  const double* row = problem_->signal_row(u);
  for (std::size_t s = 0; s < num_servers_; ++s) {
    power[s] += sign * row[s];
  }
}

double IncrementalEvaluator::gain_of(std::size_t u, std::size_t s,
                                     double channel_power_total) const {
  return gain_from_log(u, std::log2(rate_arg(u, s, channel_power_total)));
}

void IncrementalEvaluator::refresh_user_cost(std::size_t u) {
  TSAJS_CHECK(x_.is_offloaded(u), "refresh_user_cost needs an offloader");
  const Slot slot = *x_.slot_of(u);
  double gain =
      gain_of(u, slot.server,
              channel_power_[slot.subchannel * num_servers_ + slot.server]);
  if (x_.is_forwarded(u)) gain -= forward_cost(u);
  gain_minus_gamma_ += gain - user_gain_[u];
  user_gain_[u] = gain;
}

void IncrementalEvaluator::drop_user_cost(std::size_t u) {
  gain_minus_gamma_ -= user_gain_[u];
  user_gain_[u] = 0.0;
}

void IncrementalEvaluator::refresh_cochannel(std::size_t j,
                                             std::optional<std::size_t> skip) {
  for (std::size_t s = 0; s < num_servers_; ++s) {
    const auto occupant = x_.occupant(s, j);
    if (!occupant.has_value()) continue;
    if (skip.has_value() && *occupant == *skip) continue;
    refresh_user_cost(*occupant);
  }
}

void IncrementalEvaluator::refresh_slack(std::size_t j) {
  const std::vector<std::optional<std::size_t>>& slot_users = x_.slot_users();
  const bool cloud = x_.cloud_enabled();
  double slack = 0.0;
  for (std::size_t s = 0; s < num_servers_; ++s) {
    const std::optional<std::size_t>& occupant =
        slot_users[s * num_subchannels_ + j];
    if (!occupant.has_value()) continue;
    double ceiling = user_ceiling_[*occupant];
    if (cloud && x_.is_forwarded(*occupant)) ceiling -= forward_cost(*occupant);
    slack += ceiling - user_gain_[*occupant];
  }
  channel_slack_[j] = slack;
}

void IncrementalEvaluator::server_add(std::size_t s, double sqrt_eta) {
  const double before = server_sqrt_eta_[s];
  const double after = before + sqrt_eta;
  ++server_count_[s];
  server_sqrt_eta_[s] = after;
  lambda_cost_ += (after * after - before * before) / problem_->server_cpu_hz(s);
}

void IncrementalEvaluator::server_remove(std::size_t s, double sqrt_eta) {
  const double before = server_sqrt_eta_[s];
  TSAJS_CHECK(server_count_[s] > 0, "server_remove on an empty server");
  --server_count_[s];
  // Snap to exact zero when the last user leaves, the value a rebuild
  // computes: the subtraction chain would otherwise leave ~1-ulp residue.
  const double after = server_count_[s] == 0 ? 0.0 : before - sqrt_eta;
  server_sqrt_eta_[s] = after;
  lambda_cost_ += (after * after - before * before) / problem_->server_cpu_hz(s);
}

void IncrementalEvaluator::cloud_add(double sqrt_eta) {
  const double before = cloud_sqrt_eta_;
  const double after = before + sqrt_eta;
  ++cloud_count_;
  cloud_sqrt_eta_ = after;
  lambda_cost_ += (after * after - before * before) / cloud_cpu_hz_;
}

void IncrementalEvaluator::cloud_remove(double sqrt_eta) {
  const double before = cloud_sqrt_eta_;
  TSAJS_CHECK(cloud_count_ > 0, "cloud_remove on an empty cloud pool");
  --cloud_count_;
  const double after = cloud_count_ == 0 ? 0.0 : before - sqrt_eta;
  cloud_sqrt_eta_ = after;
  lambda_cost_ += (after * after - before * before) / cloud_cpu_hz_;
}

void IncrementalEvaluator::note_commit() {
  if (++commits_since_rebuild_ >= kRebuildInterval) {
    rebuild();
    commits_since_rebuild_ = 0;
  }
}

void IncrementalEvaluator::do_make_local(std::size_t u) {
  const auto slot = x_.slot_of(u);
  if (!slot.has_value()) return;
  const bool was_forwarded = x_.is_forwarded(u);
  drop_user_cost(u);
  if (was_forwarded) {
    // The user's compute lived in the cloud pool, not the server's.
    cloud_remove(problem_->sqrt_eta(u));
  } else {
    server_remove(slot->server, problem_->sqrt_eta(u));
  }
  add_channel_power(u, slot->subchannel, -1.0);
  x_.make_local(u);
  user_ceiling_[u] = 0.0;
  // Users sharing the old sub-channel lost an interferer.
  refresh_cochannel(slot->subchannel, std::nullopt);
  refresh_slack(slot->subchannel);
  utility_ = gain_minus_gamma_ - lambda_cost_;
}

void IncrementalEvaluator::do_offload(std::size_t u, std::size_t s,
                                      std::size_t j) {
  const auto old_slot = x_.slot_of(u);
  if (old_slot.has_value() && old_slot->server == s &&
      old_slot->subchannel == j) {
    return;
  }
  if (old_slot.has_value()) {
    do_make_local(u);
  }
  x_.offload(u, s, j);
  server_add(s, problem_->sqrt_eta(u));
  add_channel_power(u, j, +1.0);
  // Users sharing the new sub-channel gained an interferer; the mover's own
  // cost is computed fresh.
  refresh_cochannel(j, u);
  refresh_user_cost(u);
  user_ceiling_[u] = gain_of(u, s, problem_->signal(u, s));
  refresh_slack(j);
  utility_ = gain_minus_gamma_ - lambda_cost_;
}

double IncrementalEvaluator::apply_make_local(std::size_t u) {
  do_make_local(u);
  note_commit();
  return utility_;
}

double IncrementalEvaluator::apply_offload(std::size_t u, std::size_t s,
                                           std::size_t j) {
  do_offload(u, s, j);
  note_commit();
  return utility_;
}

double IncrementalEvaluator::apply_swap(std::size_t u1, std::size_t u2) {
  if (u1 == u2) return utility_;
  const auto slot1 = x_.slot_of(u1);
  const auto slot2 = x_.slot_of(u2);
  do_make_local(u1);
  do_make_local(u2);
  if (slot2.has_value()) {
    do_offload(u1, slot2->server, slot2->subchannel);
  }
  if (slot1.has_value()) {
    do_offload(u2, slot1->server, slot1->subchannel);
  }
  note_commit();
  return utility_;
}

void IncrementalEvaluator::do_set_forwarded(std::size_t u, bool forwarded) {
  if (x_.is_forwarded(u) == forwarded) return;
  const auto slot = x_.slot_of(u);
  TSAJS_REQUIRE(slot.has_value(), "set_forwarded needs an offloaded user");
  const double sqrt_eta = problem_->sqrt_eta(u);
  if (forwarded) {
    server_remove(slot->server, sqrt_eta);
    cloud_add(sqrt_eta);
  } else {
    cloud_remove(sqrt_eta);
    server_add(slot->server, sqrt_eta);
  }
  x_.set_forwarded(u, forwarded);
  // Interference is untouched (the uplink slot is unchanged), so only the
  // user's own cost moves: refresh picks the forward penalty up or drops it.
  refresh_user_cost(u);
  refresh_slack(slot->subchannel);
  utility_ = gain_minus_gamma_ - lambda_cost_;
}

double IncrementalEvaluator::apply_set_forwarded(std::size_t u,
                                                 bool forwarded) {
  do_set_forwarded(u, forwarded);
  note_commit();
  return utility_;
}

double IncrementalEvaluator::preview_changes(const SlotChange* changes,
                                             std::size_t n,
                                             double rejection_floor) const {
  TSAJS_CHECK(n >= 1 && n <= 2, "previews cover one- and two-user moves");

  // ---- Lambda (Eq. 23) delta over the affected pools (≤ 4). ----
  // The cloud pool is addressed as a virtual server index num_servers_: a
  // forwarded mover's eta leaves the cloud, and any slot it lands on implies
  // a recall (the eta re-enters the real server's pool).
  std::size_t srv[4];
  double srv_delta[4];
  int srv_count_delta[4];
  std::size_t num_srv = 0;
  const auto touch_server = [&](std::size_t s, double d, int dc) {
    for (std::size_t i = 0; i < num_srv; ++i) {
      if (srv[i] == s) {
        srv_delta[i] += d;
        srv_count_delta[i] += dc;
        return;
      }
    }
    srv[num_srv] = s;
    srv_delta[num_srv] = d;
    srv_count_delta[num_srv] = dc;
    ++num_srv;
  };
  for (std::size_t c = 0; c < n; ++c) {
    if (changes[c].from.has_value()) {
      const std::size_t pool = x_.is_forwarded(changes[c].user)
                                   ? num_servers_
                                   : changes[c].from->server;
      touch_server(pool, -problem_->sqrt_eta(changes[c].user), -1);
    }
    if (changes[c].to.has_value()) {
      touch_server(changes[c].to->server,
                   +problem_->sqrt_eta(changes[c].user), +1);
    }
  }
  double lambda_delta = 0.0;
  for (std::size_t i = 0; i < num_srv; ++i) {
    const bool cloud = srv[i] == num_servers_;
    const double before = cloud ? cloud_sqrt_eta_ : server_sqrt_eta_[srv[i]];
    const auto count_after =
        static_cast<int>(cloud ? cloud_count_ : server_count_[srv[i]]) +
        srv_count_delta[i];
    // Mirror server_remove's exact-zero snap so preview matches apply.
    const double after = count_after == 0 ? 0.0 : before + srv_delta[i];
    lambda_delta += (after * after - before * before) /
                    (cloud ? cloud_cpu_hz_ : problem_->server_cpu_hz(srv[i]));
  }

  // ---- Gamma-side delta: moved users plus affected co-channel users. ----
  // Received-power delta at (sub-channel j, server s) from the changes.
  const auto power_delta = [&](std::size_t j, std::size_t s) {
    double d = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (changes[c].from.has_value() && changes[c].from->subchannel == j) {
        d -= problem_->signal(changes[c].user, s);
      }
      if (changes[c].to.has_value() && changes[c].to->subchannel == j) {
        d += problem_->signal(changes[c].user, s);
      }
    }
    return d;
  };

  // Each arriving mover's log2 argument, 1 + SINR at its target slot.
  double arg[2] = {0.0, 0.0};
  for (std::size_t c = 0; c < n; ++c) {
    if (!changes[c].to.has_value()) continue;
    const std::size_t s = changes[c].to->server;
    const std::size_t j = changes[c].to->subchannel;
    arg[c] = rate_arg(changes[c].user, s,
                      channel_power_[j * num_servers_ + s] + power_delta(j, s));
  }
  // Sum of the movers' terms (new gain at the target slot, or zero when
  // going local, less the cached gain), with log2 priced by `log2_of`;
  // `magnitude` receives the sum of their absolute values, for the margin.
  const auto mover_terms = [&](auto log2_of, double& magnitude) {
    double sum = 0.0;
    magnitude = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      const SlotChange& change = changes[c];
      double term = -user_gain_[change.user];
      if (change.to.has_value()) {
        term += gain_from_log(change.user, log2_of(arg[c]));
      }
      sum += term;
      magnitude += std::fabs(term);
    }
    return sum;
  };
  // ---- Rejection bound: decide without pricing the occupants. ----
  // A standing occupant's interference can only grow on a sub-channel that
  // movers only join, so its gain cannot rise there; on a sub-channel a
  // mover leaves it rises at most to its ceiling. The occupants therefore
  // add at most the slack of the left sub-channels (DESIGN.md §8).
  const bool floored = rejection_floor > kNoFloor;
  double slack = 0.0;
  const auto below_floor = [&](double movers, double magnitude) {
    const double bound = movers + slack - lambda_delta;
    const double margin =
        kBoundMargin * (1.0 + std::fabs(utility_) + magnitude + slack +
                        std::fabs(lambda_delta));
    return bound + margin < rejection_floor;
  };
  double mover_magnitude = 0.0;  // sum of |mover term|, for the margin
  if (floored) {
    for (std::size_t c = 0; c < n; ++c) {
      if (!changes[c].from.has_value()) continue;
      const std::size_t j = changes[c].from->subchannel;
      if (c == 1 && changes[0].from.has_value() &&
          changes[0].from->subchannel == j) {
        continue;  // both movers leave j: count its slack once
      }
      slack += channel_slack_[j];
    }
    // First without log2: a log2 argument bounded from above makes each
    // mover term at least its exact value, step by step in floating point.
    const double bounded = mover_terms(
        [](double x) { return log2_upper(x); }, mover_magnitude);
    if (below_floor(bounded, mover_magnitude)) {
      return -std::numeric_limits<double>::infinity();
    }
  }
  double gain_delta =
      mover_terms([](double x) { return std::log2(x); }, mover_magnitude);
  if (floored && below_floor(gain_delta, mover_magnitude)) {
    return -std::numeric_limits<double>::infinity();
  }
  // Affected sub-channels, deduplicated (≤ 4).
  std::size_t chan[4];
  std::size_t num_chan = 0;
  const auto touch_chan = [&](std::size_t j) {
    for (std::size_t i = 0; i < num_chan; ++i) {
      if (chan[i] == j) return;
    }
    chan[num_chan++] = j;
  };
  for (std::size_t c = 0; c < n; ++c) {
    if (changes[c].from.has_value()) touch_chan(changes[c].from->subchannel);
    if (changes[c].to.has_value()) touch_chan(changes[c].to->subchannel);
  }
  // Standing occupants of the affected sub-channels whose interference
  // actually changes. A zero power delta (e.g. a same-channel server move)
  // leaves the cached gain valid — those users are skipped, never re-derived.
  for (std::size_t i = 0; i < num_chan; ++i) {
    const std::size_t j = chan[i];
    for (std::size_t s = 0; s < num_servers_; ++s) {
      const double d = power_delta(j, s);
      if (d == 0.0) continue;
      const auto occupant = x_.occupant(s, j);
      if (!occupant.has_value()) continue;
      bool moved = false;
      for (std::size_t c = 0; c < n; ++c) {
        if (changes[c].user == *occupant) moved = true;
      }
      if (moved) continue;  // handled above (or vacated the slot)
      double occ_gain =
          gain_of(*occupant, s, channel_power_[j * num_servers_ + s] + d);
      // A standing forwarded occupant keeps its forward penalty (their
      // cached user_gain_ includes it; gain_of does not).
      if (x_.is_forwarded(*occupant)) occ_gain -= forward_cost(*occupant);
      gain_delta += occ_gain - user_gain_[*occupant];
    }
  }
  return utility_ + gain_delta - lambda_delta;
}

double IncrementalEvaluator::preview_offload(std::size_t u, std::size_t s,
                                             std::size_t j,
                                             double rejection_floor) const {
  const auto old_slot = x_.slot_of(u);
  if (old_slot.has_value() && old_slot->server == s &&
      old_slot->subchannel == j) {
    return utility_;
  }
  const auto holder = x_.occupant(s, j);
  TSAJS_CHECK(!holder.has_value() || *holder == u,
              "preview_offload target slot must be free");
  const SlotChange change{u, old_slot, Slot{s, j}};
  return preview_changes(&change, 1, rejection_floor);
}

double IncrementalEvaluator::preview_make_local(
    std::size_t u, double rejection_floor) const {
  const auto slot = x_.slot_of(u);
  if (!slot.has_value()) return utility_;
  const SlotChange change{u, slot, std::nullopt};
  return preview_changes(&change, 1, rejection_floor);
}

double IncrementalEvaluator::preview_swap(std::size_t u1, std::size_t u2,
                                          double rejection_floor) const {
  if (u1 == u2) return utility_;
  const auto slot1 = x_.slot_of(u1);
  const auto slot2 = x_.slot_of(u2);
  if (!slot1.has_value() && !slot2.has_value()) return utility_;
  const SlotChange changes[2] = {{u1, slot1, slot2}, {u2, slot2, slot1}};
  return preview_changes(changes, 2, rejection_floor);
}

void IncrementalEvaluator::preview_offload_subchannel(
    std::size_t u, std::size_t j, std::span<const std::size_t> candidates,
    double* out, double floor) const {
  TSAJS_REQUIRE(!x_.is_offloaded(u),
                "preview_offload_subchannel previews a local user");
  TSAJS_REQUIRE(j < num_subchannels_, "sub-channel index out of range");
  // Per-candidate, preview_changes computes
  //   utility + ((mover_gain + delta_occ_1) + delta_occ_2 + ...) - lambda
  // where each co-channel occupant's delta_occ = gain_of(occ, r, power +
  // signal(u, r)) - user_gain_[occ] does not depend on the candidate
  // server s (u cannot land on an occupied server, so r != s always, and
  // u's received power at server r is signal(u, r) either way). Hoist
  // those deltas out of the per-candidate loop; the per-candidate chain
  // then replays the scalar addition order exactly. Occupancy and the mask
  // are read through the assignment's flat slot maps.
  const std::vector<std::optional<std::size_t>>& slot_users = x_.slot_users();
  const double* power_row = channel_power_.data() + j * num_servers_;
  const double* urow = problem_->signal_row(u);
  // Free, available candidates stage the mover's log2 argument (u's own
  // signal joins the cached power) into contiguous scratch, so the log2
  // calls run back to back; `open` maps each entry to its candidate.
  thread_local std::vector<double> mover;
  thread_local std::vector<double> lambda;
  thread_local std::vector<std::size_t> open;
  mover.clear();
  lambda.clear();
  open.clear();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::size_t s = candidates[i];
    TSAJS_REQUIRE(s < num_servers_, "candidate server index out of range");
    if (!slot_open(s * num_subchannels_ + j)) {
      out[i] = nan;
      continue;
    }
    mover.push_back(rate_arg(u, s, power_row[s] + urow[s]));
    open.push_back(i);
  }
  for (double& term : mover) term = std::log2(term);
  // Mover terms and Lambda deltas, then the floor. The occupants only join
  // interferers here, so each delta_occ is <= 0 and the chain cannot end
  // above utility + mover term - lambda: that is the bound, computed in the
  // exact path's own order. Without occupants it *is* the exact value; with
  // them the margin covers a log2 that is not monotone (DESIGN.md §8).
  const bool floored = floor > kNoFloor;
  bool occupied = false;
  for (std::size_t r = 0; floored && !occupied && r < num_servers_; ++r) {
    occupied = slot_users[r * num_subchannels_ + j].has_value();
  }
  const double occupant_cost =
      occupied ? gain_const_total_ - gain_minus_gamma_ : 0.0;
  const double sqrt_eta_u = problem_->sqrt_eta(u);
  std::size_t kept = 0;
  for (std::size_t k = 0; k < open.size(); ++k) {
    const std::size_t i = open[k];
    const std::size_t s = candidates[i];
    const double lambda_delta = join_lambda_delta(s, sqrt_eta_u);
    const double term = gain_from_log(u, mover[k]) - user_gain_[u];
    if (floored) {
      const double margin =
          occupied ? kBoundMargin * (1.0 + std::fabs(utility_) +
                                     std::fabs(term) +
                                     std::fabs(lambda_delta) + occupant_cost)
                   : 0.0;
      if (utility_ + term - lambda_delta + margin < floor) {
        out[i] = -std::numeric_limits<double>::infinity();
        continue;
      }
    }
    open[kept] = i;
    mover[kept] = term;
    lambda.push_back(lambda_delta);
    ++kept;
  }
  if (kept == 0) return;  // the occupants' log2s are not needed
  thread_local std::vector<double> occ_delta;
  occ_delta.clear();
  for (std::size_t r = 0; r < num_servers_; ++r) {
    const std::optional<std::size_t>& occ =
        slot_users[r * num_subchannels_ + j];
    if (!occ.has_value()) continue;
    double occ_gain = gain_of(*occ, r, power_row[r] + urow[r]);
    if (x_.is_forwarded(*occ)) occ_gain -= forward_cost(*occ);
    occ_delta.push_back(occ_gain - user_gain_[*occ]);
  }
  for (std::size_t k = 0; k < kept; ++k) {
    double gain_delta = mover[k];
    for (const double delta : occ_delta) gain_delta += delta;
    out[open[k]] = utility_ + gain_delta - lambda[k];
  }
}

IncrementalEvaluator::BestSlot IncrementalEvaluator::best_offload(
    std::size_t u, std::span<const std::size_t> candidates,
    std::optional<Slot> seed) const {
  TSAJS_REQUIRE(!x_.is_offloaded(u), "best_offload places a local user");
  BestSlot best{std::nullopt, utility_, 1};
  // The floor is the utility a candidate must reach to matter. The seed
  // slot's exact value is one the scan will meet, so anything below it
  // cannot win; one equal to it still can, if it comes first.
  double floor = utility_;
  if (seed.has_value() && std::find(candidates.begin(), candidates.end(),
                                    seed->server) != candidates.end()) {
    double value = kNoFloor;
    preview_offload_subchannel(u, seed->subchannel, {&seed->server, 1},
                               &value, floor);
    floor = std::max(floor, value);  // NaN (taken, masked) leaves it
  }
  // Per server, an interference-free ceiling on u's term: gain_of at zero
  // interference, which every sub-channel of the server shares (one signal
  // per link). gain_of falls as interference grows, step by step in
  // floating point too, so none of its slots prices above it, and a server
  // whose ceiling cannot reach the floor is dropped for every row. Its
  // free, available slots still count as scored.
  thread_local std::vector<std::size_t> live;
  live.clear();
  const double occupant_cost = gain_const_total_ - gain_minus_gamma_;
  const double sqrt_eta_u = problem_->sqrt_eta(u);
  for (const std::size_t s : candidates) {
    TSAJS_REQUIRE(s < num_servers_, "candidate server index out of range");
    const std::size_t free = x_.num_free_subchannels(s);
    best.evaluations += free;
    if (free == 0) continue;
    const double arg = rate_arg(u, s, problem_->signal(u, s));
    const double lambda_delta = join_lambda_delta(s, sqrt_eta_u);
    const auto ceiling_misses = [&](double log_term) {
      const double ceiling = gain_from_log(u, log_term);
      const double margin =
          kBoundMargin * (1.0 + std::fabs(utility_) + std::fabs(ceiling) +
                          std::fabs(lambda_delta) + occupant_cost);
      return utility_ + ceiling - lambda_delta + margin < floor;
    };
    // The log2-free bound raises the ceiling, so it decides first.
    if (ceiling_misses(log2_upper(arg)) || ceiling_misses(std::log2(arg))) {
      continue;
    }
    live.push_back(s);
  }
  // The scan itself, rows in order, each floored at the incumbent. A
  // pruned candidate (-infinity) and a taken one (NaN) never improve.
  thread_local std::vector<double> row;
  row.resize(live.size());
  for (std::size_t j = 0; j < num_subchannels_ && !live.empty(); ++j) {
    preview_offload_subchannel(u, j, live, row.data(), floor);
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (row[i] > best.utility) {
        best.utility = row[i];
        best.slot = Slot{live[i], j};
      }
    }
    floor = std::max(floor, best.utility);
  }
  return best;
}

double IncrementalEvaluator::join_lambda_delta(std::size_t s,
                                               double sqrt_eta) const {
  // The server's count goes k -> k + 1, never to zero: no snap branch.
  const double before = server_sqrt_eta_[s];
  const double after = before + sqrt_eta;
  return (after * after - before * before) / problem_->server_cpu_hz(s);
}

double IncrementalEvaluator::preview_set_forwarded(std::size_t u,
                                                   bool forwarded) const {
  if (x_.is_forwarded(u) == forwarded) return utility_;
  const auto slot = x_.slot_of(u);
  TSAJS_REQUIRE(slot.has_value(), "set_forwarded needs an offloaded user");
  const std::size_t s = slot->server;
  const double sqrt_eta = problem_->sqrt_eta(u);

  // Lambda: eta transfers between the server pool and the cloud pool.
  // Mirror server_remove/cloud_remove's exact-zero snap.
  const double srv_before = server_sqrt_eta_[s];
  const auto srv_count_after =
      static_cast<int>(server_count_[s]) + (forwarded ? -1 : +1);
  const double srv_after =
      srv_count_after == 0 ? 0.0
                           : srv_before + (forwarded ? -sqrt_eta : +sqrt_eta);
  const double cloud_before = cloud_sqrt_eta_;
  const auto cloud_count_after =
      static_cast<int>(cloud_count_) + (forwarded ? +1 : -1);
  const double cloud_after =
      cloud_count_after == 0
          ? 0.0
          : cloud_before + (forwarded ? +sqrt_eta : -sqrt_eta);
  const double lambda_delta =
      (srv_after * srv_after - srv_before * srv_before) /
          problem_->server_cpu_hz(s) +
      (cloud_after * cloud_after - cloud_before * cloud_before) /
          cloud_cpu_hz_;

  // Gamma: interference is unchanged, so only u's own forward penalty moves.
  // Re-derive the gain the same way refresh_user_cost would so the preview
  // tracks apply exactly.
  double gain =
      gain_of(u, s, channel_power_[slot->subchannel * num_servers_ + s]);
  if (forwarded) gain -= forward_cost(u);
  const double gain_delta = gain - user_gain_[u];
  return utility_ + gain_delta - lambda_delta;
}

double IncrementalEvaluator::preview_replace(std::size_t u, std::size_t s,
                                             std::size_t j,
                                             double rejection_floor) const {
  const auto occupant = x_.occupant(s, j);
  TSAJS_CHECK(occupant.has_value() && *occupant != u,
              "preview_replace needs a different occupant to evict");
  const SlotChange changes[2] = {{*occupant, Slot{s, j}, std::nullopt},
                                 {u, x_.slot_of(u), Slot{s, j}}};
  return preview_changes(changes, 2, rejection_floor);
}

void IncrementalEvaluator::self_check(double tolerance) const {
  const UtilityEvaluator reference_evaluator(*problem_);
  const double reference = reference_evaluator.system_utility(x_);
  TSAJS_CHECK(std::fabs(reference - utility_) <=
                  tolerance * std::max(1.0, std::fabs(reference)),
              "incremental utility drifted from the reference evaluator");
  // Stale-cache guard: recompiling the bound scenario from scratch must
  // reproduce the shared problem bit for bit. A scenario restaged in place
  // without a matching compile() fails here.
  const CompiledProblem fresh(problem_->scenario());
  TSAJS_CHECK(problem_->bitwise_equal(fresh),
              "shared CompiledProblem is stale w.r.t. its scenario");
}

}  // namespace tsajs::jtora
