#include "jtora/assignment.h"

#include <algorithm>

#include "common/error.h"

namespace tsajs::jtora {

namespace {
constexpr std::uint64_t bit(std::size_t j) { return std::uint64_t{1} << j; }
}  // namespace

Assignment::Assignment(const mec::Scenario& scenario)
    : num_servers_(scenario.num_servers()),
      num_subchannels_(scenario.num_subchannels()),
      user_slot_(scenario.num_users()),
      slot_user_(scenario.num_servers() * scenario.num_subchannels()),
      free_bits_(scenario.available_slot_words()) {
  if (!scenario.fully_available()) {
    blocked_.assign(num_servers_ * num_subchannels_, 0);
    for (std::size_t s = 0; s < num_servers_; ++s) {
      for (std::size_t j = 0; j < num_subchannels_; ++j) {
        if (!scenario.slot_available(s, j)) blocked_[slot_index(s, j)] = 1;
      }
    }
  }
  if (scenario.has_cloud()) {
    forwarded_.assign(user_slot_.size(), 0);
    backhaul_ok_.assign(num_servers_, 0);
    for (std::size_t s = 0; s < num_servers_; ++s) {
      if (scenario.backhaul_available(s)) backhaul_ok_[s] = 1;
    }
    max_forwarded_ = scenario.cloud().max_forwarded;
  }
}

void Assignment::offload(std::size_t u, std::size_t s, std::size_t j) {
  require_user(u);
  require_slot(s, j);
  const auto& current = slot_user_[slot_index(s, j)];
  TSAJS_REQUIRE(!current.has_value() || *current == u,
                "slot already occupied by another user (constraint 12d)");
  TSAJS_REQUIRE(slot_available(s, j),
                "slot is masked unavailable (failed server or blackout)");
  if (current.has_value() && *current == u) return;  // true no-op: keep tier
  make_local(u);
  user_slot_[u] = Slot{s, j};
  slot_user_[slot_index(s, j)] = u;
  free_bits_[s] &= ~bit(j);
  ++num_offloaded_;
}

void Assignment::make_local(std::size_t u) {
  require_user(u);
  if (!user_slot_[u].has_value()) return;
  if (!forwarded_.empty() && forwarded_[u] != 0) {
    // Releasing the uplink slot recalls the task from the cloud too.
    forwarded_[u] = 0;
    --num_forwarded_;
  }
  const Slot slot = *user_slot_[u];
  slot_user_[slot_index(slot.server, slot.subchannel)].reset();
  free_bits_[slot.server] |= bit(slot.subchannel);
  user_slot_[u].reset();
  --num_offloaded_;
}

void Assignment::swap(std::size_t u1, std::size_t u2) {
  require_user(u1);
  require_user(u2);
  if (u1 == u2) return;
  const std::optional<Slot> slot1 = user_slot_[u1];
  const std::optional<Slot> slot2 = user_slot_[u2];
  make_local(u1);
  make_local(u2);
  if (slot2.has_value()) offload(u1, slot2->server, slot2->subchannel);
  if (slot1.has_value()) offload(u2, slot1->server, slot1->subchannel);
}

bool Assignment::can_forward(std::size_t u) const {
  require_user(u);
  if (forwarded_.empty() || !user_slot_[u].has_value()) return false;
  if (backhaul_ok_[user_slot_[u]->server] == 0) return false;
  if (forwarded_[u] != 0) return true;  // already admitted, may stay
  return max_forwarded_ == 0 || num_forwarded_ < max_forwarded_;
}

void Assignment::set_forwarded(std::size_t u, bool forwarded) {
  require_user(u);
  TSAJS_REQUIRE(!forwarded_.empty(),
                "forwarding needs a cloud tier in the scenario");
  TSAJS_REQUIRE(user_slot_[u].has_value(),
                "only an offloaded user can be forwarded to the cloud");
  if ((forwarded_[u] != 0) == forwarded) return;
  if (forwarded) {
    TSAJS_REQUIRE(can_forward(u),
                  "cannot forward: backhaul down or cloud cap reached");
    forwarded_[u] = 1;
    ++num_forwarded_;
  } else {
    forwarded_[u] = 0;
    --num_forwarded_;
  }
}

std::vector<std::size_t> Assignment::forwarded_users() const {
  std::vector<std::size_t> users;
  users.reserve(num_forwarded_);
  for (std::size_t u = 0; u < forwarded_.size(); ++u) {
    if (forwarded_[u] != 0) users.push_back(u);
  }
  return users;
}

std::vector<std::size_t> Assignment::users_on_server(std::size_t s) const {
  require_server(s);
  std::vector<std::size_t> users;
  for (std::size_t j = 0; j < num_subchannels_; ++j) {
    if (const auto& user = slot_user_[slot_index(s, j)]; user.has_value()) {
      users.push_back(*user);
    }
  }
  std::sort(users.begin(), users.end());
  return users;
}

std::vector<std::size_t> Assignment::offloaded_users() const {
  std::vector<std::size_t> users;
  users.reserve(num_offloaded_);
  for (std::size_t u = 0; u < user_slot_.size(); ++u) {
    if (user_slot_[u].has_value()) users.push_back(u);
  }
  return users;
}

std::optional<Slot> Assignment::random_free_slot(Rng& rng) const {
  // One uniform_index over the servers with a free slot, the k-th of them
  // in ascending order, then one over that server's free sub-channels.
  std::size_t open = 0;
  for (const std::uint64_t word : free_bits_) open += word != 0 ? 1 : 0;
  if (open == 0) return std::nullopt;
  std::uint64_t k = rng.uniform_index(open);
  for (std::size_t s = 0;; ++s) {
    if (free_bits_[s] == 0) continue;
    if (k == 0) return Slot{s, *random_free_subchannel(s, rng)};
    --k;
  }
}

void Assignment::check_consistency() const {
  std::size_t offloaded = 0;
  for (std::size_t u = 0; u < user_slot_.size(); ++u) {
    if (!user_slot_[u].has_value()) continue;
    ++offloaded;
    const Slot slot = *user_slot_[u];
    TSAJS_CHECK(slot.server < num_servers_ &&
                    slot.subchannel < num_subchannels_,
                "user points at an out-of-range slot");
    const auto& back = slot_user_[slot_index(slot.server, slot.subchannel)];
    TSAJS_CHECK(back.has_value() && *back == u,
                "slot->user map disagrees with user->slot map");
    TSAJS_CHECK(blocked_.empty() ||
                    blocked_[slot_index(slot.server, slot.subchannel)] == 0,
                "user occupies a masked (unavailable) slot");
  }
  std::size_t occupied = 0;
  for (const auto& user : slot_user_) {
    if (user.has_value()) ++occupied;
  }
  TSAJS_CHECK(occupied == offloaded, "occupied-slot count mismatch");
  for (std::size_t s = 0; s < num_servers_; ++s) {
    std::uint64_t free = 0;
    for (std::size_t j = 0; j < num_subchannels_; ++j) {
      const std::size_t slot = slot_index(s, j);
      if (!slot_user_[slot].has_value() &&
          (blocked_.empty() || blocked_[slot] == 0)) {
        free |= bit(j);
      }
    }
    TSAJS_CHECK(free_bits_[s] == free, "free-slot word disagrees with slots");
  }
  TSAJS_CHECK(num_offloaded_ == offloaded, "cached offload count mismatch");
  std::size_t forwarded = 0;
  for (std::size_t u = 0; u < forwarded_.size(); ++u) {
    if (forwarded_[u] == 0) continue;
    ++forwarded;
    TSAJS_CHECK(user_slot_[u].has_value(),
                "forwarded user is not offloaded");
    TSAJS_CHECK(backhaul_ok_[user_slot_[u]->server] != 0,
                "forwarded user sits behind a dead backhaul");
  }
  TSAJS_CHECK(num_forwarded_ == forwarded, "cached forward count mismatch");
  TSAJS_CHECK(max_forwarded_ == 0 || forwarded <= max_forwarded_,
              "cloud admission cap exceeded");
}

}  // namespace tsajs::jtora
