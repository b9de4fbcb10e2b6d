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
//   * users whose home cell is a partition *boundary* cell are collected
//     into `boundary_users()` — their in-shard solve ignored cross-shard
//     co-channel interference, so an inter-shard fixup must re-score them
//     against the global problem (algo::ShardedScheduler's fixup round).
//
// Shards own disjoint server sets, so shard-local assignments merge into
// one feasible global assignment without conflicts (`merge_into`).
// Slicing preserves values bitwise: a shard's compiled signal table entry
// equals the parent's entry for the corresponding (user, server) pair, and
// a shard with the full server set reproduces the parent problem exactly.
//
// Epoch reuse: compile() may be called repeatedly (the dynamic-simulation
// loop re-slices every epoch). When the server layout is unchanged, each
// shard keeps its mec::ScenarioWorkspace and CompiledProblem across calls —
// the sub-scenario is restaged into the retained buffers and the shard
// compilation refreshes in place, reusing CompiledProblem::compile's
// unchanged-per-user skip. shards_rebuilt()/shards_refreshed() report how
// the last compile classified each populated shard (user membership changed
// vs channel/task-only refresh). Reuse is bitwise-invisible: the slices
// equal a from-scratch construction bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geo/partition.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "mec/scenario_workspace.h"

namespace tsajs::jtora {

/// Largest-remainder apportionment of `total` units over integer weights:
/// floor the exact share, then hand the leftover units to the largest
/// fractional parts (lowest shard id on ties). Zero-weight shards get
/// nothing. With `at_least_one`, every positive-weight shard gets >= 1 unit
/// — a SolveBudget slice of 0 would mean "unlimited", the opposite of a
/// small share. Splits the cloud cap across shards (ShardedProblem::compile)
/// and the iteration budget across shard solves (algo::ShardedScheduler).
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
    /// Committed sub-scenario view, owned by `workspace`; valid until the
    /// next compile(). Null when the shard is unpopulated.
    const mec::Scenario* scenario = nullptr;
    /// The shard's compilation, refreshed in place across epochs. Null when
    /// the shard is unpopulated.
    std::unique_ptr<CompiledProblem> problem;
    /// Epoch-reusable buffers behind `scenario` (kept even while the shard
    /// is unpopulated, so a returning user does not pay a reallocation).
    std::unique_ptr<mec::ScenarioWorkspace> workspace;
  };

  /// An empty sliceable; call compile() before any query.
  ShardedProblem() = default;

  /// Slices `problem` along `partition` (compile() in one step).
  ShardedProblem(const CompiledProblem& problem,
                 const geo::InterferencePartition& partition);

  /// (Re)slices `problem` along `partition`. The partition must have one
  /// cell per server of the compiled scenario (cell c = server c, the
  /// layout ScenarioBuilder produces). `problem` must outlive this object
  /// (or the next compile). Repeated calls reuse per-shard storage as
  /// described in the header comment.
  void compile(const CompiledProblem& problem,
               const geo::InterferencePartition& partition);

  [[nodiscard]] bool compiled() const noexcept { return parent_ != nullptr; }

  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Shard& shard(std::size_t k) const;

  /// Nearest server (home cell) of user `u`; lowest index wins ties.
  [[nodiscard]] std::size_t home_server(std::size_t u) const;
  [[nodiscard]] std::size_t shard_of_user(std::size_t u) const;

  /// Shard owning global server `s`, and s's index within that shard's
  /// ascending server list.
  [[nodiscard]] std::size_t shard_of_server(std::size_t s) const;
  [[nodiscard]] std::size_t local_server_index(std::size_t s) const;

  /// Users homed in a boundary cell, ascending global user index.
  [[nodiscard]] const std::vector<std::size_t>& boundary_users()
      const noexcept {
    return boundary_users_;
  }

  /// Shard `k`'s slice of boundary_users(), ascending. The per-shard view
  /// lets the colored boundary fixup sweep non-conflicting shards
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

  /// Classification of the populated shards by the last compile(): a shard
  /// is *rebuilt* when its user membership changed (its sub-scenario is
  /// restaged wholesale) and *refreshed* when membership held, so the
  /// in-place recompile skips every unchanged per-user constant block.
  [[nodiscard]] std::size_t shards_rebuilt() const noexcept {
    return shards_rebuilt_;
  }
  [[nodiscard]] std::size_t shards_refreshed() const noexcept {
    return shards_refreshed_;
  }

  [[nodiscard]] const CompiledProblem& parent() const noexcept {
    return *parent_;
  }

 private:
  /// True when the retained shards can be reused for (scenario, partition):
  /// same shard/server layout, same server parameters, spectrum and noise.
  [[nodiscard]] bool layout_reusable(
      const mec::Scenario& scenario,
      const geo::InterferencePartition& partition) const;

  const CompiledProblem* parent_ = nullptr;
  std::vector<Shard> shards_;
  std::vector<std::size_t> home_server_;    // per global user
  std::vector<std::size_t> shard_of_user_;  // per global user
  std::vector<std::size_t> server_shard_;   // per global server
  std::vector<std::size_t> server_local_;   // per global server
  std::vector<std::size_t> boundary_users_;
  std::vector<std::vector<std::size_t>> boundary_users_of_;
  std::vector<std::vector<std::size_t>> staged_users_;  // compile scratch
  std::size_t shards_rebuilt_ = 0;
  std::size_t shards_refreshed_ = 0;
};

}  // namespace tsajs::jtora
