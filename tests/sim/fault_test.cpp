#include "sim/fault.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/error.h"

namespace tsajs::sim {
namespace {

TEST(FaultConfigTest, DisabledByDefault) {
  const FaultConfig config;
  EXPECT_FALSE(config.enabled());
  config.validate();
}

TEST(FaultConfigTest, EnabledWhenAnyClassIsOn) {
  FaultConfig config;
  config.server_mtbf_epochs = 10.0;
  EXPECT_TRUE(config.enabled());
  config = {};
  config.subchannel_blackout_prob = 0.1;
  EXPECT_TRUE(config.enabled());
}

TEST(FaultConfigTest, RejectsBadParameters) {
  FaultConfig config;
  config.server_mtbf_epochs = -1.0;
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config = {};
  config.server_mtbf_epochs = 0.5;  // enabled but shorter than one epoch
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config = {};
  config.server_mttr_epochs = 0.2;
  EXPECT_THROW(config.validate(), InvalidArgumentError);
  config = {};
  config.subchannel_blackout_prob = 1.5;
  EXPECT_THROW(config.validate(), InvalidArgumentError);
}

TEST(FaultInjectorTest, SameSeedReproducesTheSchedule) {
  FaultConfig config;
  config.server_mtbf_epochs = 5.0;
  config.server_mttr_epochs = 2.0;
  config.subchannel_blackout_prob = 0.1;

  FaultInjector a(4, 3, config, 99);
  FaultInjector b(4, 3, config, 99);
  for (int epoch = 0; epoch < 100; ++epoch) {
    a.advance_epoch();
    b.advance_epoch();
    EXPECT_EQ(a.servers_down(), b.servers_down());
    EXPECT_EQ(a.slots_blacked_out(), b.slots_blacked_out());
    EXPECT_EQ(a.availability(), b.availability());
  }
}

TEST(FaultInjectorTest, HealthyEpochYieldsUnconstrainedMask) {
  FaultConfig config;
  config.server_mtbf_epochs = 1e9;  // effectively never fails
  FaultInjector injector(3, 2, config, 1);
  injector.advance_epoch();
  EXPECT_FALSE(injector.any_fault());
  EXPECT_TRUE(injector.availability().unconstrained());
}

TEST(FaultInjectorTest, OutagesOccurAndRepair) {
  FaultConfig config;
  config.server_mtbf_epochs = 4.0;
  config.server_mttr_epochs = 2.0;
  FaultInjector injector(5, 2, config, 7);
  std::size_t faulted_epochs = 0;
  std::size_t healthy_epochs = 0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    injector.advance_epoch();
    if (injector.servers_down() > 0) {
      ++faulted_epochs;
      const mec::Availability mask = injector.availability();
      EXPECT_EQ(mask.num_servers_down(), injector.servers_down());
      // Every slot of a down server is masked.
      EXPECT_GE(mask.num_unavailable_slots(), 2 * injector.servers_down());
    } else {
      ++healthy_epochs;
    }
  }
  // With MTBF 4 and MTTR 2 over 5 servers, both states must occur often.
  EXPECT_GT(faulted_epochs, 50u);
  EXPECT_GT(healthy_epochs, 20u);
}

TEST(FaultInjectorTest, BlackoutsAreRedrawnPerEpoch) {
  FaultConfig config;
  config.subchannel_blackout_prob = 0.5;
  FaultInjector injector(2, 4, config, 3);
  std::size_t total = 0;
  for (int epoch = 0; epoch < 200; ++epoch) {
    injector.advance_epoch();
    total += injector.slots_blacked_out();
    EXPECT_EQ(injector.availability().num_unavailable_slots(),
              injector.slots_blacked_out());
  }
  // 8 slots * 200 epochs * p=0.5 ~ 800 expected; far from 0 or 1600.
  EXPECT_GT(total, 500u);
  EXPECT_LT(total, 1100u);
}

TEST(FaultInjectorTest, RejectsEmptyGrid) {
  EXPECT_THROW(FaultInjector(0, 2, FaultConfig{}, 1), InvalidArgumentError);
  EXPECT_THROW(FaultInjector(2, 0, FaultConfig{}, 1), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::sim
