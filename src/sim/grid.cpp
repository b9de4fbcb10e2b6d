#include "sim/grid.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/units.h"
#include "mec/cloud.h"
#include "mec/scenario_builder.h"

namespace tsajs::sim {

void GridConfig::validate() const {
  TSAJS_REQUIRE(std::isfinite(cloud_cpu_hz) && cloud_cpu_hz >= 0.0,
                "cloud capacity must be finite and >= 0 (0 disables)");
  fault.validate();
  breaker.validate();
}

Grid::Grid(std::size_t num_servers, std::size_t num_subchannels)
    : layout_(num_servers, mec::kInterSiteDistanceM),
      servers_(num_servers),
      channel_(radio::make_paper_channel()),
      spectrum_(mec::kBandwidthHz, num_subchannels),
      noise_w_(units::dbm_to_watts(mec::kNoiseDbm)) {
  for (std::size_t s = 0; s < num_servers; ++s) {
    servers_[s].position = layout_.site(s);
    bs_positions_.push_back(servers_[s].position);
  }
}

GridState::GridState(const Grid& grid, const GridConfig& config,
                     std::uint64_t fault_seed)
    : grid_(grid),
      workspace_(grid.servers_, grid.spectrum_, grid.noise_w_),
      breaker_(grid.num_servers(), config.breaker) {
  if (config.has_cloud()) {
    // The tier is static for the run; faults vary only the availability
    // mask, never the tier itself.
    workspace_.set_cloud({config.cloud_cpu_hz, kCloudBackhaulBps,
                          kCloudBackhaulLatencyS, config.cloud_max_forwarded});
  }
  if (config.fault.enabled()) {
    injector_.emplace(grid.num_servers(), grid.num_subchannels(),
                      config.fault, fault_seed);
  }
  pathloss_.reset(0, grid.num_servers());
}

void GridState::step_faults() {
  injector_->advance_epoch();
  mec::Availability mask = injector_->availability();
  // The breaker observes the raw link state, then narrows the scheduler's
  // view: a tripped (open or half-open) breaker forces its backhaul down
  // even when the raw link is up — including fully healthy steps, whose
  // unconstrained mask is first materialised for the breaker to write into.
  breaker_.observe_epoch(mask);
  if (mask.unconstrained() && breaker_.blocked_count() > 0) {
    mask = mec::Availability(grid_.num_servers(), grid_.num_subchannels());
  }
  breaker_.apply(mask);
  workspace_.set_availability(std::move(mask));
}

void GridState::begin_stage() {
  workspace_.begin_epoch();
  positions_.clear();
  cache_ids_.clear();
  carried_.clear();
}

void GridState::stage(const mec::Task& task, geo::Point position,
                      std::size_t cache_id, CarriedSlot carried) {
  mec::UserEquipment user;
  user.task = task;
  user.position = position;
  workspace_.users().push_back(std::move(user));
  positions_.push_back(position);
  // An id past the cache grows it; growing never moves a cached row.
  if (cache_id >= pathloss_.num_ids()) pathloss_.resize(cache_id + 1);
  cache_ids_.push_back(cache_id);
  carried_.push_back(carried);
}

const jtora::CompiledProblem& GridState::compile(Rng& rng) {
  grid_.channel_.regenerate_into(positions_, grid_.bs_positions_,
                                 grid_.num_subchannels(), rng,
                                 workspace_.gains(), &pathloss_, &cache_ids_);
  compiled_.compile(workspace_.commit());
  return compiled_;
}

RepairedHint GridState::repair_hint(bool build) const {
  const mec::Scenario& scenario = compiled_.scenario();
  RepairedHint repaired;
  if (build) repaired.assignment.emplace(scenario);
  for (std::size_t u = 0; u < carried_.size(); ++u) {
    const auto& [slot, forwarded] = carried_[u];
    if (!slot.has_value()) continue;
    if (!scenario.slot_available(slot->server, slot->subchannel)) {
      ++repaired.evictions;
      continue;
    }
    if (forwarded && !scenario.backhaul_available(slot->server)) {
      ++repaired.cloud_recalls;
    }
    if (!build) continue;
    jtora::Assignment& hint = *repaired.assignment;
    if (hint.occupant(slot->server, slot->subchannel).has_value()) continue;
    hint.offload(u, slot->server, slot->subchannel);
    // Re-forward when the tier still admits it (backhaul up, cap not hit);
    // a user stranded on a dead backhaul stays edge-served.
    if (forwarded && hint.can_forward(u)) hint.set_forwarded(u, true);
  }
  return repaired;
}

}  // namespace tsajs::sim
