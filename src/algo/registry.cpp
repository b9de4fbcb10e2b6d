#include "algo/registry.h"

#include <sstream>

#include "algo/exhaustive.h"
#include "algo/greedy.h"
#include "algo/hjtora.h"
#include "algo/local_search.h"
#include "algo/sharded.h"
#include "common/error.h"

namespace tsajs::algo {

std::unique_ptr<Scheduler> make_scheduler(const std::string& name,
                                          const RegistryOptions& options) {
  if (name == "tsajs" || name == "tsajs-geo") {
    TsajsConfig config;
    config.chain_length = options.chain_length;
    config.use_incremental_evaluator = options.incremental_evaluator;
    config.budget = options.budget;
    if (name == "tsajs-geo") config.cooling = CoolingMode::kGeometric;
    return std::make_unique<TsajsScheduler>(config);
  }
  if (name == "hjtora") return std::make_unique<HjtoraScheduler>();
  if (name == "greedy") return std::make_unique<GreedyScheduler>();
  if (name == "local-search") {
    return std::make_unique<LocalSearchScheduler>(options.chain_length);
  }
  if (name == "exhaustive") return std::make_unique<ExhaustiveScheduler>();
  // "sharded:<inner>" wraps any registered scheme in the interference-
  // locality decomposition (per-shard solves + boundary fixup).
  if (name.rfind("sharded:", 0) == 0) {
    const std::string inner_name = name.substr(8);
    TSAJS_REQUIRE(inner_name.rfind("sharded:", 0) != 0,
                  "sharded: wrappers do not nest");
    ShardedConfig config;
    config.reach_m = options.shard_reach_m;
    config.threads = options.shard_threads;
    config.budget = options.budget;
    config.hedge_factor = options.shard_hedge_factor;
    // The wrapper owns the budget (per-shard slices + reclaim + fixup
    // deadline); the inner scheme must run uncapped within its slice, so
    // its configured budget is cleared here.
    RegistryOptions inner_options = options;
    inner_options.budget = SolveBudget{};
    return std::make_unique<ShardedScheduler>(
        make_scheduler(inner_name, inner_options), config);
  }
  throw NotFoundError("unknown scheduler: " + name);
}

std::vector<std::string> scheduler_names() {
  return {"exhaustive", "tsajs", "tsajs-geo", "hjtora", "local-search",
          "greedy"};
}

std::vector<std::string> parse_scheme_list(const std::string& csv) {
  if (csv.empty()) return {"tsajs", "hjtora", "local-search", "greedy"};
  std::vector<std::string> names;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    (void)make_scheduler(item);  // validates the name
    names.push_back(item);
  }
  TSAJS_REQUIRE(!names.empty(), "scheme list must name at least one scheme");
  return names;
}

}  // namespace tsajs::algo
