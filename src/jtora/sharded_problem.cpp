#include "jtora/sharded_problem.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/error.h"
#include "common/matrix.h"
#include "geo/point.h"

namespace tsajs::jtora {

std::vector<std::size_t> split_units(std::size_t total,
                                     const std::vector<std::uint64_t>& weights,
                                     bool at_least_one) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> alloc(n, 0);
  // Deterministically downscale the weights until their sum fits in 32
  // bits: the apportionment below forms remainder x weight products, and
  // bounding the sum bounds both factors, so no product can overflow.
  // Halving preserves the proportions to within the resolution the split
  // can express anyway.
  std::vector<std::uint64_t> scaled(weights);
  std::uint64_t weight_sum = 0;
  for (const std::uint64_t w : scaled) weight_sum += w;
  while (weight_sum >= (std::uint64_t{1} << 32)) {
    weight_sum = 0;
    for (std::uint64_t& w : scaled) {
      if (w != 0) w = std::max<std::uint64_t>(std::uint64_t{1}, w / 2);
      weight_sum += w;
    }
  }
  if (weight_sum == 0 || total == 0) return alloc;
  const std::uint64_t quotient = total / weight_sum;
  const std::uint64_t residue = total % weight_sum;
  std::uint64_t assigned = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> remainders;
  remainders.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    if (scaled[k] == 0) continue;
    // total * w / sum, split as q*w + r*w/sum so every product stays
    // within 64 bits (q*w <= total, r*w < sum^2 < 2^64).
    alloc[k] = static_cast<std::size_t>(quotient * scaled[k] +
                                        (residue * scaled[k]) / weight_sum);
    assigned += alloc[k];
    remainders.emplace_back((residue * scaled[k]) % weight_sum, k);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const std::pair<std::uint64_t, std::size_t>& a,
               const std::pair<std::uint64_t, std::size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::uint64_t leftover = total > assigned ? total - assigned : 0;
  for (const auto& [remainder, k] : remainders) {
    if (leftover == 0) break;
    ++alloc[k];
    --leftover;
  }
  if (at_least_one) {
    for (std::size_t k = 0; k < n; ++k) {
      if (weights[k] != 0 && alloc[k] == 0) alloc[k] = 1;
    }
  }
  return alloc;
}

ShardedProblem::ShardedProblem(const CompiledProblem& problem,
                               const geo::InterferencePartition& partition) {
  TSAJS_REQUIRE(problem.compiled(), "ShardedProblem needs a compiled problem");
  const mec::Scenario& scenario = problem.scenario();
  TSAJS_REQUIRE(partition.num_cells() == scenario.num_servers(),
                "partition must have one cell per server");

  const std::size_t num_users = scenario.num_users();
  const std::size_t num_servers = scenario.num_servers();
  const std::size_t num_subchannels = scenario.num_subchannels();
  const std::size_t num_shards = partition.num_shards();

  // Shard skeletons: the partition's server groups.
  shards_.resize(num_shards);
  server_shard_.resize(num_servers);
  server_local_.resize(num_servers);
  for (std::size_t k = 0; k < num_shards; ++k) {
    std::vector<std::size_t>& servers = shards_[k].servers;
    servers = partition.cells(k);
    for (std::size_t i = 0; i < servers.size(); ++i) {
      server_shard_[servers[i]] = k;
      server_local_[servers[i]] = i;
    }
  }

  // Home cell per user = nearest server, lowest index on ties.
  boundary_users_of_.resize(num_shards);
  for (std::size_t u = 0; u < num_users; ++u) {
    const geo::Point pos = scenario.user(u).position;
    std::size_t best = 0;
    double best_sq = geo::distance_squared(pos, scenario.server(0).position);
    for (std::size_t s = 1; s < num_servers; ++s) {
      const double d_sq =
          geo::distance_squared(pos, scenario.server(s).position);
      if (d_sq < best_sq) {
        best = s;
        best_sq = d_sq;
      }
    }
    const std::size_t k = partition.shard_of(best);
    shards_[k].users.push_back(u);  // ascending: u is ascending
    if (partition.is_boundary(best)) boundary_users_of_[k].push_back(u);
  }

  // Cloud tier apportionment: the cloud is one shared global resource, so
  // each populated shard receives a deterministic slice — compute capacity
  // proportional to its user count, the backhaul rate and latency as they
  // are, and the admission cap split by largest remainder over the shard
  // user counts (split_units). A shard whose cap
  // share rounds to zero has the tier disabled outright: a CloudTier cap of
  // 0 means "unlimited", the opposite of a zero share — so the per-shard
  // caps always sum to at most the global cap and the merged assignment can
  // never over-admit.
  std::vector<mec::CloudTier> shard_cloud(num_shards);
  if (scenario.has_cloud()) {
    const mec::CloudTier& cloud = scenario.cloud();
    std::vector<std::uint64_t> shard_sizes(num_shards);
    for (std::size_t k = 0; k < num_shards; ++k) {
      shard_sizes[k] = shards_[k].users.size();
    }
    const std::vector<std::size_t> cap =
        split_units(cloud.max_forwarded, shard_sizes, false);
    for (std::size_t k = 0; k < num_shards; ++k) {
      const std::size_t shard_users = shards_[k].users.size();
      if (shard_users == 0) continue;
      if (cloud.max_forwarded > 0 && cap[k] == 0) continue;
      shard_cloud[k] = mec::CloudTier{
          cloud.cpu_hz * static_cast<double>(shard_users) /
              static_cast<double>(num_users),
          cloud.backhaul_bps, cloud.backhaul_latency_s, cap[k]};
    }
  }

  // One sub-scenario + compilation per populated shard.
  for (std::size_t k = 0; k < num_shards; ++k) {
    Shard& shard = shards_[k];
    if (shard.users.empty()) continue;
    std::vector<mec::UserEquipment> users;
    users.reserve(shard.users.size());
    for (const std::size_t gu : shard.users) users.push_back(scenario.user(gu));
    std::vector<mec::EdgeServer> servers;
    servers.reserve(shard.servers.size());
    for (const std::size_t gs : shard.servers) {
      servers.push_back(scenario.server(gs));
    }
    // Slice the gain tensor row by row: every (user, server) pair is a
    // contiguous run of num_subchannels gains in both tensors.
    Matrix3<double> gains(shard.users.size(), shard.servers.size(),
                          num_subchannels);
    const double* global_gains = scenario.gains().data().data();
    double* slice = gains.flat().data();
    for (const std::size_t gu : shard.users) {
      const double* user_gains =
          global_gains + gu * num_servers * num_subchannels;
      for (const std::size_t gs : shard.servers) {
        const double* run = user_gains + gs * num_subchannels;
        slice = std::copy(run, run + num_subchannels, slice);
      }
    }
    // Backhaul-only faults do not show in fully_available() (the slot fast
    // paths deliberately ignore them), so probe them separately when this
    // shard carries a tier slice.
    bool backhaul_fault = false;
    if (shard_cloud[k].enabled()) {
      for (const std::size_t gs : shard.servers) {
        if (!scenario.backhaul_available(gs)) {
          backhaul_fault = true;
          break;
        }
      }
    }
    mec::Availability availability;
    if (!scenario.fully_available() || backhaul_fault) {
      availability = mec::Availability(shard.servers.size(), num_subchannels);
      for (std::size_t ls = 0; ls < shard.servers.size(); ++ls) {
        const std::size_t gs = shard.servers[ls];
        if (shard_cloud[k].enabled() && !scenario.backhaul_available(gs)) {
          availability.fail_backhaul(ls);
        }
        if (!scenario.server_available(gs)) {
          availability.fail_server(ls);
          continue;
        }
        for (std::size_t j = 0; j < num_subchannels; ++j) {
          if (!scenario.slot_available(gs, j)) availability.block_slot(ls, j);
        }
      }
    }
    shard.scenario = std::make_unique<const mec::Scenario>(
        std::move(users), std::move(servers), scenario.spectrum(),
        scenario.noise_w(), std::move(gains), std::move(availability),
        shard_cloud[k]);
    shard.problem = std::make_unique<const CompiledProblem>(*shard.scenario);
  }
}

const ShardedProblem::Shard& ShardedProblem::shard(std::size_t k) const {
  TSAJS_REQUIRE(k < shards_.size(), "shard index out of range");
  return shards_[k];
}

const std::vector<std::size_t>& ShardedProblem::boundary_users_of(
    std::size_t k) const {
  TSAJS_REQUIRE(k < boundary_users_of_.size(), "shard index out of range");
  return boundary_users_of_[k];
}

void ShardedProblem::merge_into(std::size_t k, const Assignment& local,
                                Assignment& global) const {
  const Shard& shard = this->shard(k);
  TSAJS_REQUIRE(local.num_users() == shard.users.size(),
                "local assignment does not match the shard's user count");
  for (std::size_t lu = 0; lu < shard.users.size(); ++lu) {
    const auto slot = local.slot_of(lu);
    if (!slot.has_value()) continue;
    global.offload(shard.users[lu], shard.servers[slot->server],
                   slot->subchannel);
    // Translate the cloud-forwarding bit. The shard's tier slice mirrors
    // the global backhaul state and its cap never exceeds its share of the
    // global cap, so the global set_forwarded always admits.
    if (local.is_forwarded(lu)) {
      global.set_forwarded(shard.users[lu], true);
    }
  }
}

Assignment ShardedProblem::shard_hint(std::size_t k,
                                      const Assignment& global) const {
  const Shard& shard = this->shard(k);
  TSAJS_REQUIRE(shard.scenario != nullptr,
                "shard_hint needs a populated shard");
  Assignment local(*shard.scenario);
  const std::size_t num_subchannels = shard.scenario->num_subchannels();
  for (std::size_t lu = 0; lu < shard.users.size(); ++lu) {
    const std::size_t gu = shard.users[lu];
    if (gu >= global.num_users()) continue;
    const auto slot = global.slot_of(gu);
    if (!slot.has_value()) continue;
    if (slot->server >= server_shard_.size() ||
        server_shard_[slot->server] != k ||
        slot->subchannel >= num_subchannels) {
      continue;  // placed outside the shard: the local solve starts it local
    }
    const std::size_t ls = server_local_[slot->server];
    if (!local.slot_available(ls, slot->subchannel)) continue;
    local.offload(lu, ls, slot->subchannel);
    // Carry the forwarding bit when the shard's tier slice still admits it
    // (tier present, backhaul up, cap not exhausted); otherwise the user
    // warm-starts edge-served.
    if (global.is_forwarded(gu) && local.can_forward(lu)) {
      local.set_forwarded(lu, true);
    }
  }
  return local;
}

}  // namespace tsajs::jtora
