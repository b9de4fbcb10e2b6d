// The task-offloading decision X (paper Sec. III-A-2).
//
// `Assignment` is the set {x_us^j} in sparse form: each user holds at most
// one (server, sub-channel) slot, and each slot at most one user — i.e. the
// class enforces constraints (12b)-(12d) *by construction*. Schedulers
// mutate assignments through offload/make_local/swap and can therefore never
// produce an infeasible X.
//
// When the scenario carries a constrained mec::Availability mask, the
// masked slots are additionally *unassignable*: offload() rejects them and
// the free-slot queries (num_free_subchannels, random_free_subchannel,
// random_free_slot) never report them, so every scheduler built on these
// queries is fault-mask-safe without changes. Those queries read one
// 64-bit word per server, bit j set while slot (s, j) is free and
// available, which offload and make_local keep current; hence the
// spectrum's limit of 64 sub-channels (radio::Spectrum::kMaxSubchannels).
//
// When the scenario carries a mec::CloudTier, each offloaded user
// additionally carries a *forwarding bit*: the edge server holding its
// uplink slot relays the task to the cloud instead of executing it (the
// three-way placement local / edge-serve / edge-forward). The same
// by-construction discipline applies: set_forwarded() rejects dead
// backhauls and cloud over-admission, and every slot mutation
// (offload/make_local/swap) recalls the user to edge-serve first — so
// schedulers that never touch the bit still produce cloud-feasible
// decisions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bits.h"
#include "common/error.h"
#include "common/rng.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// One offloading slot: server s, sub-channel j.
struct Slot {
  std::size_t server = 0;
  std::size_t subchannel = 0;

  friend bool operator==(const Slot&, const Slot&) = default;
};

class Assignment {
 public:
  /// An all-local assignment sized for `scenario`.
  explicit Assignment(const mec::Scenario& scenario);

  [[nodiscard]] std::size_t num_users() const noexcept {
    return user_slot_.size();
  }
  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }
  [[nodiscard]] std::size_t num_subchannels() const noexcept {
    return num_subchannels_;
  }

  /// True iff user `u` offloads (i.e. sum_{s,j} x_us^j = 1).
  [[nodiscard]] bool is_offloaded(std::size_t u) const {
    require_user(u);
    return user_slot_[u].has_value();
  }

  /// The slot of user `u`, or nullopt when local.
  [[nodiscard]] std::optional<Slot> slot_of(std::size_t u) const {
    require_user(u);
    return user_slot_[u];
  }

  /// The user occupying (s, j), or nullopt when the slot is free.
  [[nodiscard]] std::optional<std::size_t> occupant(std::size_t s,
                                                    std::size_t j) const {
    require_slot(s, j);
    return slot_user_[slot_index(s, j)];
  }

  /// Assigns user `u` to slot (s, j). The user's previous slot (if any) is
  /// released, which clears its forwarding bit. Requires the target slot to
  /// be free (constraint 12d) unless it is already held by `u` itself, in
  /// which case the call is a complete no-op (forwarding state included).
  void offload(std::size_t u, std::size_t s, std::size_t j);

  /// Releases user `u`'s slot (clearing its forwarding bit, if set); no-op
  /// when already local.
  void make_local(std::size_t u);

  /// Exchanges the slots of two users (either may be local, in which case
  /// the other becomes local).
  void swap(std::size_t u1, std::size_t u2);

  /// Users offloaded to server `s` (the paper's U_s), ascending user index.
  [[nodiscard]] std::vector<std::size_t> users_on_server(std::size_t s) const;

  /// All offloaded users (the paper's U_offload), ascending user index.
  [[nodiscard]] std::vector<std::size_t> offloaded_users() const;

  /// Number of offloaded users.
  [[nodiscard]] std::size_t num_offloaded() const noexcept {
    return num_offloaded_;
  }

  /// Read-only slot -> user map (index = s * num_subchannels + j, nullopt =
  /// free). Flat view for IncrementalEvaluator's co-channel sweeps and
  /// UtilityEvaluator's occupant gather; prefer occupant() elsewhere.
  [[nodiscard]] const std::vector<std::optional<std::size_t>>& slot_users()
      const noexcept {
    return slot_user_;
  }

  /// True iff slot (s, j) may carry an offloaded task (not masked by the
  /// scenario's availability). Occupancy is a separate question.
  [[nodiscard]] bool slot_available(std::size_t s, std::size_t j) const {
    require_slot(s, j);
    return blocked_.empty() || blocked_[slot_index(s, j)] == 0;
  }

  /// Read-only masked-slot map (index = s * num_subchannels + j, 1 =
  /// masked); empty when every slot is available. Flat view for
  /// IncrementalEvaluator's free-slot test; prefer slot_available()
  /// elsewhere.
  [[nodiscard]] const std::vector<std::uint8_t>& blocked_slots()
      const noexcept {
    return blocked_;
  }

  // --- cloud forwarding (three-way placement) -----------------------------

  /// True when the scenario behind this assignment has a cloud tier (the
  /// forwarding bit exists).
  [[nodiscard]] bool cloud_enabled() const noexcept {
    return !forwarded_.empty();
  }

  /// True iff user `u` is offloaded *and* its edge server forwards the task
  /// to the cloud. Always false without a cloud tier.
  [[nodiscard]] bool is_forwarded(std::size_t u) const {
    require_user(u);
    return !forwarded_.empty() && forwarded_[u] != 0;
  }

  /// Number of users currently forwarded to the cloud.
  [[nodiscard]] std::size_t num_forwarded() const noexcept {
    return num_forwarded_;
  }

  /// True when user `u` could be forwarded right now: it is offloaded, the
  /// tier exists, its server's backhaul is up, and the cloud admission cap
  /// is not exhausted (a user already forwarded always may stay).
  [[nodiscard]] bool can_forward(std::size_t u) const;

  /// Sets/clears user `u`'s forwarding bit. Requires a cloud tier and an
  /// offloaded user; forwarding additionally requires can_forward(u).
  void set_forwarded(std::size_t u, bool forwarded);

  /// All forwarded users, ascending user index.
  [[nodiscard]] std::vector<std::size_t> forwarded_users() const;

  /// Number of free *and available* sub-channels of server `s`.
  [[nodiscard]] std::size_t num_free_subchannels(std::size_t s) const {
    require_server(s);
    return bit_count(free_bits_[s]);
  }

  /// A free sub-channel of server `s` chosen uniformly at random, or nullopt
  /// when the server is full: one uniform_index(num_free_subchannels(s))
  /// picks among the free ones in ascending order (uniform_set_bit); a full
  /// server draws nothing.
  [[nodiscard]] std::optional<std::size_t> random_free_subchannel(
      std::size_t s, Rng& rng) const {
    require_server(s);
    return uniform_set_bit(rng, free_bits_[s]);
  }

  /// A uniformly random server among those with a free sub-channel, then a
  /// random free sub-channel of it (random_free_subchannel): two
  /// uniform_index draws, none when every available slot is taken.
  [[nodiscard]] std::optional<Slot> random_free_slot(Rng& rng) const;

  /// Re-derives the slot->user map from the user->slot map and checks the
  /// two are consistent; throws InternalError on corruption. O(U + S*N).
  void check_consistency() const;

  friend bool operator==(const Assignment&, const Assignment&) = default;

 private:
  [[nodiscard]] std::size_t slot_index(std::size_t s, std::size_t j) const {
    return s * num_subchannels_ + j;
  }
  void require_user(std::size_t u) const {
    TSAJS_REQUIRE(u < user_slot_.size(), "user index out of range");
  }
  void require_server(std::size_t s) const {
    TSAJS_REQUIRE(s < num_servers_, "server index out of range");
  }
  void require_slot(std::size_t s, std::size_t j) const {
    require_server(s);
    TSAJS_REQUIRE(j < num_subchannels_, "sub-channel index out of range");
  }

  std::size_t num_servers_ = 0;
  std::size_t num_subchannels_ = 0;
  std::size_t num_offloaded_ = 0;
  std::size_t num_forwarded_ = 0;
  std::vector<std::optional<Slot>> user_slot_;
  std::vector<std::optional<std::size_t>> slot_user_;
  /// Per server, bit j set iff slot (s, j) is unoccupied and not masked.
  std::vector<std::uint64_t> free_bits_;
  /// Unassignable slots (1 = masked). Empty — no per-slot loads at all —
  /// for the common fully available scenario.
  std::vector<std::uint8_t> blocked_;
  /// Per-user forwarding bits. Empty — no loads, no storage — for
  /// scenarios without a cloud tier, so two-tier assignments compare and
  /// behave exactly as before.
  std::vector<std::uint8_t> forwarded_;
  /// Per-server "backhaul up" bits (only sized when the cloud tier exists).
  std::vector<std::uint8_t> backhaul_ok_;
  /// Cloud admission cap (0 = unlimited); copied from the scenario's tier.
  std::size_t max_forwarded_ = 0;
};

}  // namespace tsajs::jtora
