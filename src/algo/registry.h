// Name -> scheduler factory, used by benches and examples to select schemes
// from the command line.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/scheduler.h"
#include "algo/tsajs.h"

namespace tsajs::algo {

/// Per-run knobs shared across schemes (the figure sweeps vary L).
struct RegistryOptions {
  /// Markov-chain length L for TSAJS; also scales LocalSearch's budget so
  /// the two search baselines see comparable effort knobs.
  std::size_t chain_length = 30;
  /// TSAJS proposal evaluation: incremental (fast, default) or the paper's
  /// literal per-iteration full recompute of Eqs. 22/24. Results are
  /// identical; only the runtime profile differs (relevant to Fig. 8).
  bool incremental_evaluator = true;
  /// Anytime solve budget for the TSAJS variants (tsajs, tsajs-geo); the
  /// default (unlimited) keeps them bit-identical to the unbudgeted
  /// solvers. "sharded:<inner>" wrappers own the whole budget —
  /// they slice it across shards and guard the fixup rounds with the
  /// wall-clock cap — so their inner scheme is built with the budget
  /// cleared (no double-capping). Other schemes currently ignore it.
  SolveBudget budget;
  /// Interference reach [m] for "sharded:<inner>" wrappers; 0 (default)
  /// auto-derives it from the deployment geometry.
  double shard_reach_m = 0.0;
  /// Worker threads for "sharded:<inner>" wrappers (shard solves + colored
  /// fixup sweeps): 1 = sequential (default), 0 = hardware concurrency.
  /// Results are bit-identical for every setting; only the wall clock
  /// changes.
  std::size_t shard_threads = 1;
  /// Hedged-retry trigger for "sharded:<inner>" wrappers: a shard solve
  /// overrunning this multiple of its budget slice is retried with the
  /// deterministic greedy fallback (better result kept). 0 (default)
  /// disables; otherwise must be >= 1. See ShardedConfig::hedge_factor.
  double shard_hedge_factor = 0.0;
};

/// Creates a scheduler by name: "tsajs", "tsajs-geo" (geometric-cooling
/// ablation), "hjtora", "greedy", "local-search", "exhaustive"; any name
/// may be prefixed "sharded:" (e.g. "sharded:tsajs") to wrap the scheme in
/// the interference-locality ShardedScheduler. Every returned scheduler's
/// name() is the name it was made from. Throws NotFoundError for unknown
/// names.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name, const RegistryOptions& options = {});

/// All registered scheme names, in the canonical report order.
[[nodiscard]] std::vector<std::string> scheduler_names();

/// Parses a comma-separated scheme list ("tsajs,hjtora,greedy"), validating
/// every name; an empty string selects the paper's four main schemes.
[[nodiscard]] std::vector<std::string> parse_scheme_list(
    const std::string& csv);

}  // namespace tsajs::algo
