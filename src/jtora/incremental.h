// Incremental system-utility evaluation.
//
// `UtilityEvaluator::system_utility` recomputes every offloaded user's SINR
// from scratch — O(U_off * S) per call. Inside the annealer, consecutive
// decisions differ by a single-user move, which only perturbs:
//   * the moved user's own cost term,
//   * the Gamma terms of users sharing the *old* and *new* sub-channel on
//     other servers (their interference changed), and
//   * the sqrt(eta) sums of the old and new server (Lambda, Eq. 23).
//
// `IncrementalEvaluator` maintains exactly that state, and changes it one
// way: preview, then apply. `preview_offload` / `preview_make_local` /
// `preview_swap` / `preview_replace` compute the candidate utility of a
// move *without mutating anything*, so a rejected proposal costs a single
// read-only pass over the affected co-channel users; `apply_*` realizes an
// accepted one. The TSAJS annealer previews every proposal and applies only
// the accepted ones. A caller that must undo applied moves applies their
// inverses (the sharded fixup replays a losing class backwards), and one
// that wants a scratch state copies the evaluator.
//
// All hot-path reads go through the shared CompiledProblem's flattened
// contiguous caches: its signal table holds p_u * h_us in (user, server)
// order (server-contiguous, so co-channel sweeps and received-power
// updates are linear scans), eliminating the repeated `scenario().gain()`
// indexing of the naive path. Users whose interference did not change are
// never recomputed: their cached `user_gain_` entry stands, and a preview
// skips any server whose received-power delta is exactly zero.
//
// Rejection floor: at the annealer's warm temperatures nearly every worse
// proposal is rejected whatever its uniform draw, so the slot previews take
// an optional floor on the utility change and return -infinity, after
// pricing only the movers and the Lambda delta, for a proposal whose upper
// bound lies below it. The bound replaces each co-channel occupant's exact
// gain change by zero (a sub-channel it only gains interferers on) or by
// the per-sub-channel *slack* (one a mover leaves): the sum over the
// occupants of their interference-free ceiling minus their cached gain.
// The bound is tried first with each mover's log2 replaced by the upper
// bound (x - 1) / ln 2, and priced with the exact log2 only when that
// cannot decide. Every proposal the bound does not decide gets the exact
// value, bit for bit (DESIGN.md §8).
//
// Fixup argmax: `best_offload` finds a local user's best slot among a list
// of candidate servers, as the sharded boundary fixup needs it. A mover
// that only joins a sub-channel can only lower its occupants' terms, so a
// candidate is bounded by its mover term less its Lambda delta, and a
// server by its interference-free ceiling. Candidates whose bound cannot
// reach the incumbent are never priced; the answer, its utility bits and
// the scored-slot count are those of the exact scan.
//
// Floating-point drift: the running sums `gain_minus_gamma_` / `lambda_cost_`
// accumulate rounding error over long move chains. Every 4096 committed
// operations the evaluator transparently recomputes itself from scratch,
// which bounds the drift on arbitrarily long runs. A server's (and the
// cloud's) sqrt(eta) sum snaps to exact 0 when its last user leaves, so an
// empty pool holds the same exact 0 a rebuild computes; the goldens and
// exact baselines pin that. A property test pins the incremental output to
// the plain evaluator across long random operation sequences, and the TSAJS
// scheduler uses this class when `TsajsConfig::use_incremental_evaluator`
// is set (the default).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// Tracks an assignment and its utility: read-only previews of single
/// moves, and applies of the accepted ones.
class IncrementalEvaluator {
 public:
  /// Binds to a shared compiled problem (non-owning; `problem` must outlive
  /// this evaluator) and adopts `initial` as the current decision. All
  /// constants and the signal table come from `problem` — nothing is
  /// re-derived here.
  IncrementalEvaluator(const CompiledProblem& problem,
                       const Assignment& initial);

  /// Current decision (always consistent with utility()).
  [[nodiscard]] const Assignment& assignment() const noexcept { return x_; }

  /// J*(X) of the current decision (maintained incrementally).
  [[nodiscard]] double utility() const noexcept { return utility_; }

  // --- single operations; each returns the new utility -------------------

  /// Moves user `u` to (s, j). The slot must be free or held by `u`.
  double apply_offload(std::size_t u, std::size_t s, std::size_t j);
  /// Makes user `u` local (no-op when already local).
  double apply_make_local(std::size_t u);
  /// Swaps the slots of two users.
  double apply_swap(std::size_t u1, std::size_t u2);
  /// Forwards (`true`) or recalls (`false`) offloaded user `u` to/from the
  /// cloud tier: its eta moves between the uplink server's pool and the
  /// cloud pool and its forward-delay penalty toggles; the radio state is
  /// untouched. No-op when already in the requested tier.
  double apply_set_forwarded(std::size_t u, bool forwarded);

  // --- read-only previews -------------------------------------------------
  // Each returns the utility the corresponding apply_* would yield, without
  // touching any state. A rejected proposal therefore costs one pass over
  // the co-channel users of the affected sub-channels and nothing else.
  //
  // The four slot previews take a `rejection_floor` on the utility change
  // Delta = preview - utility(). When an upper bound on Delta, rounding
  // margin included, lies below it, they return -infinity without pricing
  // the co-channel occupants; the exact Delta then lies below the floor too.
  // Otherwise, and always at kNoFloor, they return the exact utility.

  /// The rejection floor that never prunes: every preview is exact.
  static constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

  /// Utility if user `u` moved to (s, j). The slot must be free or held
  /// by `u`.
  [[nodiscard]] double preview_offload(std::size_t u, std::size_t s,
                                       std::size_t j,
                                       double rejection_floor = kNoFloor) const;
  /// Utility if user `u` went local.
  [[nodiscard]] double preview_make_local(
      std::size_t u, double rejection_floor = kNoFloor) const;
  /// Utility if users `u1` and `u2` exchanged slots.
  [[nodiscard]] double preview_swap(std::size_t u1, std::size_t u2,
                                    double rejection_floor = kNoFloor) const;
  /// Utility if the occupant of (s, j) were evicted to local execution and
  /// user `u` took the slot. Requires an occupant other than `u`.
  [[nodiscard]] double preview_replace(std::size_t u, std::size_t s,
                                       std::size_t j,
                                       double rejection_floor = kNoFloor) const;
  /// Utility if offloaded user `u` were forwarded to / recalled from the
  /// cloud tier. Interference is unaffected, so this is O(1): a two-pool
  /// Lambda transfer plus the user's own forward-penalty delta.
  [[nodiscard]] double preview_set_forwarded(std::size_t u,
                                             bool forwarded) const;

  /// Batch preview row: candidate utilities of offloading *local* user `u`
  /// onto sub-channel `j` at each server of `candidates`.
  /// out[i] == preview_offload(u, candidates[i], j) bit for bit where that
  /// slot is free and available; NaN elsewhere. The co-channel occupants'
  /// gain deltas are independent of the candidate server (u's interference
  /// reaches each occupant's server regardless of where u lands), so they
  /// are derived once — O(C + K_j) log2 evaluations instead of the
  /// O(C * K_j) of C scalar previews. Only the listed servers are scored
  /// (a caller wanting the whole row passes every server); `out` must hold
  /// candidates.size() slots.
  ///
  /// `floor` is a floor on the candidate utility itself (not a change):
  /// a candidate whose mover-only bound, utility + mover term - Lambda
  /// delta (rounding margin included), lies below it comes back -infinity
  /// before its addition chain; its exact utility lies below the floor
  /// too. A row with no candidate left skips its occupants' log2s.
  void preview_offload_subchannel(std::size_t u, std::size_t j,
                                  std::span<const std::size_t> candidates,
                                  double* out, double floor = kNoFloor) const;

  /// The best move of *local* user `u` onto a free, available slot of the
  /// `candidates` servers: what scanning every sub-channel's row in order
  /// (j ascending, then candidate order) and keeping the first strict
  /// improvement on staying local picks, ties included.
  struct BestSlot {
    std::optional<Slot> slot;  ///< empty when staying local is best
    double utility = 0.0;      ///< the utility after the move, bit-exact
    /// 1 (staying local) + the free, available candidate slots the scan
    /// scores; counted, whether or not the bound spared a slot its log2.
    std::size_t evaluations = 0;
  };
  /// Same answer as that exact scan, but every candidate whose upper bound
  /// cannot reach the incumbent is skipped: a server whose interference-
  /// free ceiling loses is dropped for every row, and each row runs with
  /// the incumbent as its floor. `seed` (typically the slot `u` held before
  /// it was made local) is priced first when it is a candidate slot, so its
  /// value starts the floor. DESIGN.md §8 has the bound and the tie rule.
  [[nodiscard]] BestSlot best_offload(std::size_t u,
                                      std::span<const std::size_t> candidates,
                                      std::optional<Slot> seed) const;

  /// Recomputes everything from scratch (O(U_off * S)); used after bulk
  /// edits, on the periodic anti-drift cadence, and by the self-check.
  void rebuild();

  /// Verifies the cached utility against a fresh UtilityEvaluator run, and
  /// the shared problem's tables against a freshly recompiled
  /// CompiledProblem (catches a scenario restaged without a recompile);
  /// throws InternalError on drift beyond tolerance. For tests/debugging.
  void self_check(double tolerance = 1e-6) const;

  [[nodiscard]] const CompiledProblem& problem() const noexcept {
    return *problem_;
  }

  // --- Assignment-compatible facade ---------------------------------------
  // Lets algo::Neighborhood drive an IncrementalEvaluator exactly like a
  // plain Assignment (queries delegate, mutations maintain the utility).
  [[nodiscard]] bool is_offloaded(std::size_t u) const {
    return x_.is_offloaded(u);
  }
  [[nodiscard]] std::optional<Slot> slot_of(std::size_t u) const {
    return x_.slot_of(u);
  }
  [[nodiscard]] std::optional<std::size_t> occupant(std::size_t s,
                                                    std::size_t j) const {
    return x_.occupant(s, j);
  }
  [[nodiscard]] std::optional<std::size_t> random_free_subchannel(
      std::size_t s, Rng& rng) const {
    return x_.random_free_subchannel(s, rng);
  }
  [[nodiscard]] std::optional<Slot> random_free_slot(Rng& rng) const {
    return x_.random_free_slot(rng);
  }
  [[nodiscard]] std::size_t num_offloaded() const noexcept {
    return x_.num_offloaded();
  }
  [[nodiscard]] bool cloud_enabled() const noexcept {
    return x_.cloud_enabled();
  }
  [[nodiscard]] bool is_forwarded(std::size_t u) const {
    return x_.is_forwarded(u);
  }
  [[nodiscard]] bool can_forward(std::size_t u) const {
    return x_.can_forward(u);
  }
  [[nodiscard]] std::size_t num_forwarded() const noexcept {
    return x_.num_forwarded();
  }
  void offload(std::size_t u, std::size_t s, std::size_t j) {
    apply_offload(u, s, j);
  }
  void make_local(std::size_t u) { apply_make_local(u); }
  void swap(std::size_t u1, std::size_t u2) { apply_swap(u1, u2); }
  void set_forwarded(std::size_t u, bool forwarded) {
    apply_set_forwarded(u, forwarded);
  }

 private:
  /// One user's slot transition inside a previewed move; `from`/`to` empty
  /// means local before/after.
  struct SlotChange {
    std::size_t user;
    std::optional<Slot> from;
    std::optional<Slot> to;
  };

  // Raw mutation cores (no commit accounting); apply_* wrap these with the
  // rebuild cadence.
  void do_offload(std::size_t u, std::size_t s, std::size_t j);
  void do_make_local(std::size_t u);
  void do_set_forwarded(std::size_t u, bool forwarded);

  /// Candidate utility after the (≤ 2) slot changes, computed purely from
  /// the flattened caches, or -infinity when the bound on the change lies
  /// below `rejection_floor`. The slot preview_* entry points funnel here.
  [[nodiscard]] double preview_changes(const SlotChange* changes,
                                       std::size_t n,
                                       double rejection_floor) const;

  /// Slot s * N + j is free and not masked: one the fixup argmax scores.
  /// Read through the assignment's flat slot maps.
  [[nodiscard]] bool slot_open(std::size_t slot) const {
    const std::vector<std::uint8_t>& blocked = x_.blocked_slots();
    return !x_.slot_users()[slot].has_value() &&
           (blocked.empty() || blocked[slot] == 0);
  }
  /// Gamma-side gain of user `u` on a slot of server `s` given the total
  /// received power on that (sub-channel, server). Shared by refresh and
  /// preview so both paths derive identical values from identical inputs.
  [[nodiscard]] double gain_of(std::size_t u, std::size_t s,
                               double channel_power_total) const;
  /// 1 + SINR of user `u` on a slot of server `s`: the argument of
  /// gain_of's log2. O(1) via the received-power cache (Eq. 3): everything
  /// arriving at this server on the slot's sub-channel, minus the user's
  /// own signal, is interference. Intra-cell users are orthogonal by (12d),
  /// so the only same-channel co-users are in other cells — exactly Eq. 3's
  /// sum.
  [[nodiscard]] double rate_arg(std::size_t u, std::size_t s,
                                double channel_power_total) const {
    const double signal = problem_->signal(u, s);
    const double interference = std::max(channel_power_total - signal, 0.0);
    const double sinr = signal / (interference + noise_w_);
    return 1.0 + sinr;
  }
  /// The rest of gain_of, from its log2 term on.
  [[nodiscard]] double gain_from_log(std::size_t u, double log_term) const {
    return problem_->gain_const(u) - problem_->gamma_coef(u) / log_term;
  }

  /// Recomputes the cached cost of one offloaded user (Gamma contribution)
  /// and updates the running total. O(1) thanks to the received-power cache.
  void refresh_user_cost(std::size_t u);
  /// Adds/removes user `u`'s received power on sub-channel `j` at every
  /// server (the cache behind O(1) SINR reads). Contiguous O(S) scan.
  void add_channel_power(std::size_t u, std::size_t j, double sign);
  /// Removes a user's cached cost contribution.
  void drop_user_cost(std::size_t u);
  /// Refreshes every offloaded user on sub-channel `j` except `skip`
  /// (their interference changed).
  void refresh_cochannel(std::size_t j, std::optional<std::size_t> skip);
  /// Recomputes channel_slack_[j] from scratch over its occupants (O(S)).
  /// Called for every sub-channel a commit touches, after its gains.
  void refresh_slack(std::size_t j);
  /// Lambda delta of a local user with `sqrt_eta` joining server `s`'s
  /// pool, as the batch row prices it.
  [[nodiscard]] double join_lambda_delta(std::size_t s, double sqrt_eta) const;
  /// Adjusts a server's sqrt(eta) sum and the Lambda total.
  void server_add(std::size_t s, double sqrt_eta);
  void server_remove(std::size_t s, double sqrt_eta);
  /// Same for the cloud pool (forwarded users, Eq. 23 virtual server).
  void cloud_add(double sqrt_eta);
  void cloud_remove(double sqrt_eta);
  /// Weighted forward-delay penalty of forwarding user `u`:
  /// time_cost_scale(u) * forward_time_s(u). Only valid with a cloud.
  [[nodiscard]] double forward_cost(std::size_t u) const {
    return problem_->time_cost_scale(u) * problem_->forward_time_s(u);
  }
  /// Commit accounting: triggers the periodic anti-drift rebuild.
  void note_commit();

  const CompiledProblem* problem_;
  Assignment x_;

  // Hot-loop copies of the problem dimensions/noise (avoids the extra
  // indirection on every cache index computation).
  std::size_t num_servers_ = 0;
  std::size_t num_subchannels_ = 0;
  double noise_w_ = 0.0;

  // Cached per-user Gamma-side cost: lambda_u*(bt+be) - (phi+psi p)/log2(..)
  // i.e. the user's net gain term; zero when local.
  std::vector<double> user_gain_;
  // Per-user ceiling: gain_of on the user's slot at zero interference
  // (forward penalty not applied), the most its gain term can reach while
  // it keeps that slot; zero when local. One log2 per slot change.
  std::vector<double> user_ceiling_;
  // Per sub-channel j: the sum over its occupants of ceiling (less the
  // forward penalty, as refresh_user_cost applies it) minus user_gain_ —
  // the most their gains can rise together when interferers leave j.
  std::vector<double> channel_slack_;
  // Sum of gain_const over every user. Less gain_minus_gamma_ it bounds the
  // offloaded users' Gamma-side costs (gain_const - user_gain_), the scale
  // of best_offload's rounding margin.
  double gain_const_total_ = 0.0;
  // Per-server sum of sqrt(eta_u) over its users, and the matching user
  // count (so the sum can snap to exact 0 when the last user leaves).
  // Forwarded users count toward the cloud pool instead of their server's.
  std::vector<double> server_sqrt_eta_;
  std::vector<std::uint32_t> server_count_;
  double cloud_sqrt_eta_ = 0.0;
  std::uint32_t cloud_count_ = 0;
  double cloud_cpu_hz_ = 0.0;
  // Received-power cache, flattened (sub-channel, server) row-major:
  // channel_power_[j * S + s] = sum over users k currently offloaded on
  // sub-channel j of p_k * h_{k->s}. The SINR of the occupant u of (s, j)
  // is then p_u h_us / (cache - own signal + noise). The sub-channel-major
  // layout makes every power update a contiguous AXPY against the problem's
  // signal table.
  std::vector<double> channel_power_;

  double gain_minus_gamma_ = 0.0;  // sum over offloaded users of user_gain_
  double lambda_cost_ = 0.0;       // Eq. 23 total
  double utility_ = 0.0;

  std::size_t commits_since_rebuild_ = 0;
};

}  // namespace tsajs::jtora
