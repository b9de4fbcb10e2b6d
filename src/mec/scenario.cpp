#include "mec/scenario.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace tsajs::mec {

void UserEquipment::validate() const {
  TSAJS_REQUIRE(task.input_bits > 0.0, "task input size must be positive");
  TSAJS_REQUIRE(task.cycles > 0.0, "task cycle count must be positive");
  TSAJS_REQUIRE(local_cpu_hz > 0.0, "local CPU speed must be positive");
  TSAJS_REQUIRE(tx_power_w > 0.0, "transmit power must be positive");
  TSAJS_REQUIRE(kappa > 0.0, "energy coefficient must be positive");
  TSAJS_REQUIRE(beta_time >= 0.0 && beta_time <= 1.0,
                "beta_time must lie in [0,1]");
  TSAJS_REQUIRE(beta_energy >= 0.0 && beta_energy <= 1.0,
                "beta_energy must lie in [0,1]");
  TSAJS_REQUIRE(std::fabs(beta_time + beta_energy - 1.0) < 1e-9,
                "the paper requires beta_time + beta_energy = 1");
  TSAJS_REQUIRE(lambda > 0.0 && lambda <= 1.0, "lambda must lie in (0,1]");
}

Scenario::Scenario(std::vector<UserEquipment> users,
                   std::vector<EdgeServer> servers, radio::Spectrum spectrum,
                   double noise_w, Matrix3<double> gains,
                   Availability availability, CloudTier cloud)
    : users_(std::move(users)),
      servers_(std::move(servers)),
      spectrum_(spectrum),
      noise_w_(noise_w),
      gains_(std::move(gains)),
      availability_(std::move(availability)),
      cloud_(cloud),
      fully_available_(availability_.all_available()) {
  TSAJS_REQUIRE(!users_.empty(), "a scenario needs at least one user");
  TSAJS_REQUIRE(!servers_.empty(), "a scenario needs at least one server");
  TSAJS_REQUIRE(noise_w_ > 0.0, "noise power must be positive");
  TSAJS_REQUIRE(gains_.dim0() == users_.size() &&
                    gains_.dim1() == servers_.size() &&
                    gains_.dim2() == spectrum_.num_subchannels(),
                "gain tensor shape must be users x servers x subchannels");
  TSAJS_REQUIRE(
      availability_.matches_grid(servers_.size(), spectrum_.num_subchannels()),
      "availability mask shape must be servers x subchannels");
  cloud_.validate();
  for (const auto& user : users_) user.validate();
  for (const auto& server : servers_) server.validate();
  // Each gain is positive and finite, and one (user, server) link has the
  // same gain on every sub-channel: the paper's channel has no frequency-
  // selective term (DESIGN.md §1), and jtora::CompiledProblem reads each
  // link from sub-channel 0. A link is a run of N gains in the tensor.
  //
  // One branch-free pass over the bit patterns. A double is positive and
  // finite exactly when its bits b satisfy 0 < b < 0x7ff0000000000000
  // (sign clear, not +0.0, below +inf and every NaN), i.e. when b - 1
  // wraps below 0x7fefffffffffffff. That is tested on each link's first
  // gain; the link's other gains must then have the first one's bits. For
  // a positive finite first gain that is the same test as ==, since only
  // +0.0 and -0.0 compare equal with different bits and NaN equals nothing.
  const std::vector<double>& tensor = gains_.data();
  const std::size_t n = spectrum_.num_subchannels();
  bool bad_first = false;
  std::uint64_t varies = 0;
  for (std::size_t link = 0; link < tensor.size(); link += n) {
    const auto first = std::bit_cast<std::uint64_t>(tensor[link]);
    bad_first |= first - 1 >= 0x7fefffffffffffffULL;
    for (std::size_t j = 1; j < n; ++j) {
      varies |= std::bit_cast<std::uint64_t>(tensor[link + j]) ^ first;
    }
  }
  TSAJS_REQUIRE(!bad_first, "channel gains must be positive and finite");
  TSAJS_REQUIRE(varies == 0,
                "a link's channel gain must not vary across sub-channels");
}

const UserEquipment& Scenario::user(std::size_t u) const {
  TSAJS_REQUIRE(u < users_.size(), "user index out of range");
  return users_[u];
}

const EdgeServer& Scenario::server(std::size_t s) const {
  TSAJS_REQUIRE(s < servers_.size(), "server index out of range");
  return servers_[s];
}

std::vector<std::uint64_t> Scenario::available_slot_words() const {
  std::vector<std::uint64_t> words(num_servers(), 0);
  for (std::size_t s = 0; s < num_servers(); ++s) {
    for (std::size_t j = 0; j < num_subchannels(); ++j) {
      if (slot_available(s, j)) words[s] |= std::uint64_t{1} << j;
    }
  }
  return words;
}

Scenario Scenario::with_availability(Availability availability) const {
  return Scenario(users_, servers_, spectrum_, noise_w_, gains_,
                  std::move(availability), cloud_);
}

Scenario Scenario::with_cloud(CloudTier cloud) const {
  return Scenario(users_, servers_, spectrum_, noise_w_, gains_,
                  availability_, cloud);
}

}  // namespace tsajs::mec
