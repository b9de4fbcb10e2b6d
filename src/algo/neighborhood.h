// Neighborhood generation — paper Algorithm 2 (GetNeighborhood).
//
// Draws a random single-user perturbation of an offloading decision:
//
//   rand in (0.2, 1]   "move"  — with rand < 0.75 move the target user to a
//                      different server (random free sub-channel there);
//                      otherwise (and when N > 1) move it to a different
//                      sub-channel of its current server.
//   rand in (0.05,0.2] "swap"  — exchange the slots of two random users.
//   rand in [0, 0.05]  "toggle"— flip the user's offloading state.
//
// Deviations the paper's pseudo-code leaves open (see DESIGN.md §5):
//  * When the picked user is local, the move branches become "offload to a
//    random server's free sub-channel" and toggle offloads it.
//  * "Allocate one randomly if none are free" is implemented as evicting the
//    slot's occupant to local execution, which keeps every intermediate
//    state feasible under constraint (12d).
//
// The draw is split into three stages so the annealer can reject proposals
// without ever mutating state:
//
//   propose()    consumes the RNG and returns a compact `Move` description
//                (read-only queries against the decision, no mutation);
//   preview()    asks a jtora::IncrementalEvaluator for the candidate
//                utility of a `Move` (read-only);
//   apply_move() executes a `Move` against any decision type.
//
// `step(d, rng)` ≡ `apply_move(d, propose(d, rng))` — the classic
// mutate-in-place entry point, generic over the decision type: it drives
// either a plain jtora::Assignment or a jtora::IncrementalEvaluator (which
// maintains the objective while being mutated) — both expose the same
// mutation/query surface, and both paths consume identical RNG streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "mec/scenario.h"

namespace tsajs::algo {

class Neighborhood {
 public:
  /// One drawn perturbation, in primitive form. `kReplace` evicts the
  /// occupant of (server, subchannel) to local execution before `user`
  /// takes the slot; the other kinds are single-user primitives.
  struct Move {
    enum class Kind : unsigned char {
      kNone,       ///< the draw degenerated (e.g. S == 1); nothing to do
      kOffload,    ///< user -> (server, subchannel); slot is free
      kMakeLocal,  ///< user goes local
      kSwap,       ///< user and other exchange slots
      kReplace,    ///< evict occupant of (server, subchannel), place user
      kForward,    ///< forward offloaded user to the cloud tier
      kRecall,     ///< recall forwarded user back to edge service
    };
    Kind kind = Kind::kNone;
    std::size_t user = 0;
    std::size_t other = 0;  ///< swap partner (kSwap only)
    std::size_t server = 0;
    std::size_t subchannel = 0;
  };

  explicit Neighborhood(const mec::Scenario& scenario)
      : scenario_(&scenario),
        cloud_active_(scenario.has_cloud()),
        available_(scenario.available_slot_words()) {}

  /// Draws a random neighbor of `decision` without mutating it. Consumes
  /// exactly the same RNG stream as step() so proposal sequences are
  /// identical across the preview and mutate-in-place protocols.
  template <typename Decision>
  [[nodiscard]] Move propose(const Decision& decision, Rng& rng) const {
    const auto u =
        static_cast<std::size_t>(rng.uniform_index(scenario_->num_users()));
    if (cloud_active_ && rng.uniform() < kForwardProb) {
      return propose_tier(decision, u);
    }
    const double r = rng.uniform();
    if (r < kToggleProb) return propose_toggle(decision, u, rng);
    if (r < kToggleProb + kSwapProb) return propose_swap(decision, u, rng);
    // "move": split between server move and sub-channel move.
    if (rng.uniform() < kMoveServerShare) {
      return propose_move_server(decision, u, rng);
    }
    return propose_move_subchannel(decision, u, rng);
  }

  /// Candidate utility of `move` from a read-only evaluator (anything with
  /// the IncrementalEvaluator preview surface). Does not mutate. A slot move
  /// whose utility change provably lies below `rejection_floor` may return
  /// -infinity instead (IncrementalEvaluator::preview_offload); the tier
  /// moves are O(1) and always exact.
  template <typename Evaluator>
  [[nodiscard]] double preview(
      const Evaluator& evaluator, const Move& move,
      double rejection_floor = -std::numeric_limits<double>::infinity())
      const {
    switch (move.kind) {
      case Move::Kind::kNone:
        return evaluator.utility();
      case Move::Kind::kOffload:
        return evaluator.preview_offload(move.user, move.server,
                                         move.subchannel, rejection_floor);
      case Move::Kind::kMakeLocal:
        return evaluator.preview_make_local(move.user, rejection_floor);
      case Move::Kind::kSwap:
        return evaluator.preview_swap(move.user, move.other, rejection_floor);
      case Move::Kind::kReplace:
        return evaluator.preview_replace(move.user, move.server,
                                         move.subchannel, rejection_floor);
      case Move::Kind::kForward:
        return evaluator.preview_set_forwarded(move.user, true);
      case Move::Kind::kRecall:
        return evaluator.preview_set_forwarded(move.user, false);
    }
    return evaluator.utility();  // unreachable
  }

  /// Executes `move` against `decision`. Returns false for kNone.
  template <typename Decision>
  bool apply_move(Decision& decision, const Move& move) const {
    switch (move.kind) {
      case Move::Kind::kNone:
        return false;
      case Move::Kind::kOffload:
        decision.offload(move.user, move.server, move.subchannel);
        return true;
      case Move::Kind::kMakeLocal:
        decision.make_local(move.user);
        return true;
      case Move::Kind::kSwap:
        decision.swap(move.user, move.other);
        return true;
      case Move::Kind::kReplace: {
        const auto occupant = decision.occupant(move.server, move.subchannel);
        TSAJS_CHECK(occupant.has_value(), "replace move expects an occupant");
        decision.make_local(*occupant);
        decision.offload(move.user, move.server, move.subchannel);
        return true;
      }
      case Move::Kind::kForward:
        decision.set_forwarded(move.user, true);
        return true;
      case Move::Kind::kRecall:
        decision.set_forwarded(move.user, false);
        return true;
    }
    return false;
  }

  /// Mutates `decision` into a random neighbor. Returns false when the
  /// drawn operation was a no-op (e.g. S == 1 so no other server exists);
  /// callers typically just re-evaluate regardless.
  template <typename Decision>
  bool step(Decision& decision, Rng& rng) const {
    return apply_move(decision, propose(decision, rng));
  }

 private:
  // Algorithm 2's operation mix.
  static constexpr double kToggleProb = 0.05;  ///< rand <= 0.05 -> toggle
  static constexpr double kSwapProb = 0.15;    ///< 0.05 < rand <= 0.2 -> swap
  /// Share of the "move" mass that changes server: (0.75 - 0.2) / 0.8.
  static constexpr double kMoveServerShare = 0.6875;
  /// Probability of proposing a cloud tier change (forward / recall) for the
  /// drawn user *before* the Alg. 2 operation draw. Only consulted — and
  /// only consumes RNG — when the scenario has an enabled cloud tier, so
  /// cloud-disabled runs keep their exact pre-cloud proposal streams.
  static constexpr double kForwardProb = 0.10;

  /// Picks a sub-channel of `s` for `u`: a random free one (kOffload), else
  /// a random occupied one to evict (kReplace) — the constraint-preserving
  /// reading of Alg. 2 lines 9/13.
  template <typename Decision>
  Move propose_place(const Decision& decision, std::size_t u, std::size_t s,
                     Rng& rng) const {
    if (const auto j = decision.random_free_subchannel(s, rng);
        j.has_value()) {
      return {Move::Kind::kOffload, u, 0, s, *j};
    }
    // No free sub-channel: evict a random occupant (Alg. 2 "allocate one
    // randomly if none are free", feasibility-preserving reading).
    if (const auto j = random_evictable(s, std::nullopt, rng); j.has_value()) {
      return {Move::Kind::kReplace, u, 0, s, *j};
    }
    return {};  // server fully masked: no-op
  }

  /// A uniformly random available sub-channel of the full server `s` other
  /// than `keep`: every such sub-channel is occupied, so the pick names an
  /// occupant to evict. One uniform_index draw over their number (N, or
  /// N - 1 with `keep`, on an unmasked server); nullopt, with no draw, when
  /// there is none. Masked slots carry no occupant and are unassignable, so
  /// they are never picked.
  std::optional<std::size_t> random_evictable(std::size_t s,
                                              std::optional<std::size_t> keep,
                                              Rng& rng) const {
    std::uint64_t candidates = available_[s];
    if (keep.has_value()) candidates &= ~(std::uint64_t{1} << *keep);
    return uniform_set_bit(rng, candidates);
  }

  template <typename Decision>
  Move propose_move_server(const Decision& decision, std::size_t u,
                           Rng& rng) const {
    const std::size_t num_servers = scenario_->num_servers();
    const auto slot = decision.slot_of(u);
    if (slot.has_value() && num_servers == 1) return {};
    std::size_t target;
    if (slot.has_value()) {
      // Uniform over servers other than the current one.
      target = static_cast<std::size_t>(rng.uniform_index(num_servers - 1));
      if (target >= slot->server) ++target;
    } else {
      // Local user: the "move" degenerates to offloading somewhere random.
      target = static_cast<std::size_t>(rng.uniform_index(num_servers));
    }
    return propose_place(decision, u, target, rng);
  }

  template <typename Decision>
  Move propose_move_subchannel(const Decision& decision, std::size_t u,
                               Rng& rng) const {
    const std::size_t num_subchannels = scenario_->num_subchannels();
    if (num_subchannels <= 1) return {};  // Alg. 2's K > 1 guard.
    const auto slot = decision.slot_of(u);
    if (!slot.has_value()) {
      // Local user: offload to a random server instead (DESIGN.md §5).
      const auto s = static_cast<std::size_t>(
          rng.uniform_index(scenario_->num_servers()));
      return propose_place(decision, u, s, rng);
    }
    const std::size_t s = slot->server;
    // A free sub-channel of the current server (never the user's own,
    // which it occupies) ...
    if (const auto j = decision.random_free_subchannel(s, rng);
        j.has_value()) {
      return {Move::Kind::kOffload, u, 0, s, *j};
    }
    // ... else the server is full: evict the occupant of another one.
    if (const auto j = random_evictable(s, slot->subchannel, rng);
        j.has_value()) {
      return {Move::Kind::kReplace, u, 0, s, *j};
    }
    return {};
  }

  /// Cloud tier toggle for `u`: recall when forwarded, forward when the
  /// admission checks pass, no-op otherwise (local user, dead backhaul,
  /// full cloud). Consumes no RNG beyond the draws already made.
  template <typename Decision>
  Move propose_tier(const Decision& decision, std::size_t u) const {
    if (!decision.is_offloaded(u)) return {};
    if (decision.is_forwarded(u)) {
      return {Move::Kind::kRecall, u, 0, 0, 0};
    }
    if (decision.can_forward(u)) {
      return {Move::Kind::kForward, u, 0, 0, 0};
    }
    return {};
  }

  template <typename Decision>
  Move propose_swap(const Decision& decision, std::size_t u, Rng& rng) const {
    (void)decision;
    const std::size_t num_users = scenario_->num_users();
    if (num_users < 2) return {};
    auto other = rng.uniform_index(num_users - 1);
    if (other >= u) ++other;
    return {Move::Kind::kSwap, u, static_cast<std::size_t>(other), 0, 0};
  }

  template <typename Decision>
  Move propose_toggle(const Decision& decision, std::size_t u,
                      Rng& rng) const {
    if (decision.is_offloaded(u)) {
      return {Move::Kind::kMakeLocal, u, 0, 0, 0};
    }
    // Offload to a random server with a free sub-channel, if any.
    if (const auto slot = decision.random_free_slot(rng); slot.has_value()) {
      return {Move::Kind::kOffload, u, 0, slot->server, slot->subchannel};
    }
    return {};
  }

  const mec::Scenario* scenario_;
  /// Cached scenario_->has_cloud(): gates the tier draw so cloud-disabled
  /// scenarios consume exactly the pre-cloud RNG stream.
  bool cloud_active_ = false;
  /// scenario_->available_slot_words(): the eviction draws' candidates.
  std::vector<std::uint64_t> available_;
};

}  // namespace tsajs::algo
