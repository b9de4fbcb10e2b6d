// A test-side scenario variant the builder does not offer: a drop with a
// different noise floor, for the extreme link-budget tests.
#pragma once

#include "common/units.h"
#include "mec/scenario.h"

namespace tsajs::test {

/// `scenario` with its noise power sigma^2 set to `dbm`. ScenarioBuilder::
/// build reads the noise floor only when it constructs the Scenario, so
/// this is, bit for bit, the drop the builder draws from the same generator
/// state at that noise power.
inline mec::Scenario with_noise_dbm(const mec::Scenario& scenario,
                                    double dbm) {
  return mec::Scenario(scenario.users(), scenario.servers(),
                       scenario.spectrum(), units::dbm_to_watts(dbm),
                       scenario.gains(), scenario.availability(),
                       scenario.cloud());
}

}  // namespace tsajs::test
