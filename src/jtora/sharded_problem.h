// ShardedProblem — per-shard views of one CompiledProblem.
//
// Given an interference-locality partition of the deployment's cells
// (geo::InterferencePartition; one cell per edge server), `ShardedProblem`
// slices a compiled city-scale problem into independent subproblems:
//
//   * every user belongs to the shard of its *home cell* (nearest server —
//     under the paper's link budget the only servers worth offloading to);
//   * each shard gets a self-contained mec::Scenario over its own users and
//     servers (gains sliced from the parent tensor, availability masks
//     carried over) plus a CompiledProblem of its own, so any registered
//     scheduler can solve it unchanged;
//   * users whose home cell is a partition *boundary* cell are listed per
//     shard in `boundary_users_of(k)` — their in-shard solve ignored
//     cross-shard co-channel interference, so an inter-shard fixup must
//     re-score them against the global problem (algo::ShardedScheduler's
//     fixup round).
//
// Shards own disjoint server sets, so shard-local assignments merge into
// one feasible global assignment without conflicts (`merge_into`).
// Slicing preserves values bitwise: a shard's compiled signal table entry
// equals the parent's entry for the corresponding (user, server) pair, and
// a shard with the full server set reproduces the parent problem exactly.
//
// A ShardedProblem is built once from (problem, partition) and holds no
// state beyond that pair's slices: algo::ShardedScheduler builds one per
// solve and drops it on return.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geo/partition.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "mec/scenario.h"

namespace tsajs::jtora {

/// Largest-remainder apportionment of `total` units over integer weights:
/// floor the exact share, then hand the leftover units to the largest
/// fractional parts (lowest shard id on ties). Zero-weight shards get
/// nothing. With `at_least_one`, every positive-weight shard gets >= 1 unit
/// — a SolveBudget slice of 0 would mean "unlimited", the opposite of a
/// small share. Splits the cloud cap across shards (ShardedProblem) and
/// the iteration budget across shard solves (algo::ShardedScheduler).
[[nodiscard]] std::vector<std::size_t> split_units(
    std::size_t total, const std::vector<std::uint64_t>& weights,
    bool at_least_one);

class ShardedProblem {
 public:
  /// One shard's slice. `scenario`/`problem` are null when no user homes in
  /// the shard (nothing to solve; its servers stay idle).
  struct Shard {
    std::vector<std::size_t> servers;  ///< global server ids, ascending
    std::vector<std::size_t> users;    ///< global user ids, ascending
    /// The sub-scenario over the shard's own users and servers: sliced
    /// gains, availability mask and cloud share.
    std::unique_ptr<const mec::Scenario> scenario;
    /// The compilation of `scenario`.
    std::unique_ptr<const CompiledProblem> problem;
  };

  /// Slices `problem` along `partition`, which must have one cell per server
  /// of the compiled scenario (cell c = server c, the layout
  /// ScenarioBuilder produces). Nothing refers to `problem` afterwards.
  ShardedProblem(const CompiledProblem& problem,
                 const geo::InterferencePartition& partition);

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Shard& shard(std::size_t k) const;

  /// Shard `k`'s users homed in a boundary cell, ascending. The per-shard
  /// view lets the colored boundary fixup sweep non-conflicting shards
  /// concurrently (algo::ShardedScheduler).
  [[nodiscard]] const std::vector<std::size_t>& boundary_users_of(
      std::size_t k) const;

  /// Applies shard `k`'s local assignment onto the global assignment:
  /// local user i offloaded at (local s, j) becomes global user
  /// shard(k).users[i] at (shard(k).servers[s], j). Server sets are
  /// disjoint across shards, so merges never collide.
  void merge_into(std::size_t k, const Assignment& local,
                  Assignment& global) const;

  /// Slices a feasible *global* assignment into shard `k`'s local frame
  /// (the inverse of merge_into, restricted to k): a shard user whose
  /// global slot sits on one of k's servers keeps it, translated to local
  /// indices; users placed outside k (or local) start local. Used to route
  /// a global warm-start hint to the per-shard solves.
  [[nodiscard]] Assignment shard_hint(std::size_t k,
                                      const Assignment& global) const;

 private:
  std::vector<Shard> shards_;
  // Per global server: its shard, and its index in that shard's servers.
  std::vector<std::size_t> server_shard_;
  std::vector<std::size_t> server_local_;
  std::vector<std::vector<std::size_t>> boundary_users_of_;
};

}  // namespace tsajs::jtora
