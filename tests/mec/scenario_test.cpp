#include "mec/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "mec/scenario_builder.h"
#include "mec/scenario_workspace.h"

namespace tsajs::mec {
namespace {

UserEquipment default_user() {
  UserEquipment ue;
  ue.task = Task(3.36e6, 1e9);
  return ue;
}

// The gain check as a predicate per gain, which the Scenario's bitwise pass
// must agree with: every gain positive, finite and equal to its link's
// first (a link is a run of N gains).
bool every_gain_passes(const Matrix3<double>& gains) {
  const std::vector<double>& tensor = gains.data();
  const std::size_t n = gains.dim2();
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    const double gain = tensor[i];
    if (!(gain > 0.0 && std::isfinite(gain) && gain == tensor[i - i % n])) {
      return false;
    }
  }
  return true;
}

// Builds a scenario over `gains` by the constructor and by a workspace
// commit, which goes through it: both accept exactly when every gain
// passes, and refuse with InvalidArgumentError otherwise.
void expect_gain_check(const Scenario& good, const Matrix3<double>& gains) {
  const auto construct = [&] {
    return Scenario(good.users(), good.servers(), good.spectrum(),
                    good.noise_w(), gains);
  };
  ScenarioWorkspace ws(good.servers(), good.spectrum(), good.noise_w());
  ws.begin_epoch();
  ws.users() = good.users();
  ws.gains() = gains;
  if (every_gain_passes(gains)) {
    EXPECT_NO_THROW((void)construct());
    EXPECT_NO_THROW((void)ws.commit());
  } else {
    EXPECT_THROW((void)construct(), InvalidArgumentError);
    EXPECT_THROW((void)ws.commit(), InvalidArgumentError);
  }
}

// The edges of "positive and finite": both zeros, the smallest subnormal,
// DBL_MIN, DBL_MAX, both infinities, a quiet NaN and a small negative.
constexpr double kEdgeGains[] = {
    +0.0,
    -0.0,
    std::numeric_limits<double>::denorm_min(),
    std::numeric_limits<double>::min(),
    std::numeric_limits<double>::max(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    -1e-12,
};

TEST(TaskTest, RejectsNonPositive) {
  EXPECT_THROW(Task(0.0, 1e9), InvalidArgumentError);
  EXPECT_THROW(Task(1e6, 0.0), InvalidArgumentError);
  EXPECT_THROW(Task(-1.0, 1e9), InvalidArgumentError);
}

TEST(UserEquipmentTest, LocalTimeMatchesPaperFormula) {
  // w = 1e9 cycles at f = 1 GHz => exactly 1 second.
  const UserEquipment ue = default_user();
  EXPECT_DOUBLE_EQ(ue.local_time_s(), 1.0);
}

TEST(UserEquipmentTest, LocalEnergyMatchesPaperFormula) {
  // E = kappa f^2 w = 5e-27 * (1e9)^2 * 1e9 = 5 J.
  const UserEquipment ue = default_user();
  EXPECT_DOUBLE_EQ(ue.local_energy_j(), 5.0);
}

TEST(UserEquipmentTest, ValidateAcceptsDefaults) {
  EXPECT_NO_THROW(default_user().validate());
}

TEST(UserEquipmentTest, ValidateRejectsBetaSumViolation) {
  UserEquipment ue = default_user();
  ue.beta_time = 0.5;
  ue.beta_energy = 0.6;
  EXPECT_THROW(ue.validate(), InvalidArgumentError);
}

TEST(UserEquipmentTest, ValidateRejectsBadLambda) {
  UserEquipment ue = default_user();
  ue.lambda = 0.0;
  EXPECT_THROW(ue.validate(), InvalidArgumentError);
  ue.lambda = 1.5;
  EXPECT_THROW(ue.validate(), InvalidArgumentError);
}

TEST(ScenarioTest, BuilderProducesPaperDefaults) {
  Rng rng(1);
  const Scenario scenario = ScenarioBuilder().build(rng);
  EXPECT_EQ(scenario.num_users(), 30u);
  EXPECT_EQ(scenario.num_servers(), 9u);
  EXPECT_EQ(scenario.num_subchannels(), 3u);
  EXPECT_NEAR(scenario.noise_w(), 1e-13, 1e-25);           // -100 dBm
  EXPECT_NEAR(scenario.subchannel_bandwidth_hz(), 20e6 / 3, 1e-6);
  EXPECT_EQ(scenario.num_slots(), 27u);

  const UserEquipment& ue = scenario.user(0);
  EXPECT_NEAR(ue.tx_power_w, 0.01, 1e-12);                 // 10 dBm
  EXPECT_DOUBLE_EQ(ue.local_cpu_hz, 1e9);
  EXPECT_DOUBLE_EQ(ue.task.input_bits, 3.36e6);            // 420 KB
  EXPECT_DOUBLE_EQ(ue.task.cycles, 1e9);                   // 1000 Mcycles
  EXPECT_DOUBLE_EQ(scenario.server(0).cpu_hz, 20e9);
}

TEST(ScenarioTest, BuilderIsDeterministicPerSeed) {
  Rng rng_a(77);
  Rng rng_b(77);
  const Scenario a = ScenarioBuilder().num_users(5).build(rng_a);
  const Scenario b = ScenarioBuilder().num_users(5).build(rng_b);
  for (std::size_t u = 0; u < 5; ++u) {
    EXPECT_EQ(a.user(u).position, b.user(u).position);
    for (std::size_t s = 0; s < a.num_servers(); ++s) {
      EXPECT_DOUBLE_EQ(a.gain(u, s, 0), b.gain(u, s, 0));
    }
  }
}

TEST(ScenarioTest, DifferentSeedsProduceDifferentDrops) {
  Rng rng_a(1);
  Rng rng_b(2);
  const Scenario a = ScenarioBuilder().num_users(3).build(rng_a);
  const Scenario b = ScenarioBuilder().num_users(3).build(rng_b);
  EXPECT_NE(a.user(0).position, b.user(0).position);
}

TEST(ScenarioTest, CustomizeUsersHookApplies) {
  Rng rng(3);
  const Scenario scenario =
      ScenarioBuilder()
          .num_users(4)
          .customize_users([](std::size_t u, UserEquipment& ue) {
            ue.lambda = (u == 2) ? 0.25 : 1.0;
          })
          .build(rng);
  EXPECT_DOUBLE_EQ(scenario.user(2).lambda, 0.25);
  EXPECT_DOUBLE_EQ(scenario.user(1).lambda, 1.0);
}

TEST(ScenarioTest, BuilderParameterSweepsApply) {
  Rng rng(4);
  const Scenario scenario = ScenarioBuilder()
                                .num_users(6)
                                .num_servers(4)
                                .num_subchannels(2)
                                .task_megacycles(4000.0)
                                .task_input_kb(100.0)
                                .beta_time(0.9)
                                .build(rng);
  EXPECT_EQ(scenario.num_servers(), 4u);
  EXPECT_EQ(scenario.num_subchannels(), 2u);
  EXPECT_DOUBLE_EQ(scenario.user(0).task.cycles, 4e9);
  EXPECT_DOUBLE_EQ(scenario.user(0).task.input_bits, 8e5);
  EXPECT_DOUBLE_EQ(scenario.user(0).beta_time, 0.9);
  EXPECT_NEAR(scenario.user(0).beta_energy, 0.1, 1e-12);
}

TEST(ScenarioTest, SubchannelCountIsCappedAtOneBitWord) {
  Rng rng(6);
  EXPECT_EQ(ScenarioBuilder().num_subchannels(64).build(rng).num_subchannels(),
            64u);
  try {
    (void)ScenarioBuilder().num_subchannels(65).build(rng);
    FAIL() << "65 sub-channels must be rejected";
  } catch (const InvalidArgumentError& error) {
    EXPECT_NE(std::string(error.what()).find("at most 64 sub-channels"),
              std::string::npos)
        << error.what();
  }
}

TEST(ScenarioTest, UsersFallInsideNetworkArea) {
  Rng rng(5);
  const Scenario scenario = ScenarioBuilder().num_users(50).build(rng);
  // Every user must be within one cell circumradius + slack of some BS.
  const double max_dist = 1000.0 / std::sqrt(3.0) + 1e-6;
  for (std::size_t u = 0; u < scenario.num_users(); ++u) {
    double best = 1e18;
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      best = std::min(best, geo::distance(scenario.user(u).position,
                                          scenario.server(s).position));
    }
    EXPECT_LE(best, max_dist);
  }
}

TEST(ScenarioTest, RejectsMismatchedGainShape) {
  Rng rng(6);
  const Scenario good = ScenarioBuilder().num_users(2).build(rng);
  Matrix3<double> wrong(1, good.num_servers(), good.num_subchannels(), 1e-10);
  EXPECT_THROW(Scenario(good.users(), good.servers(), good.spectrum(),
                        good.noise_w(), wrong),
               InvalidArgumentError);
}

TEST(ScenarioTest, RejectsNonPositiveGains) {
  // All-zero gains, then each edge value on every sub-channel of one link:
  // the positive finite ones (subnormal, DBL_MIN, DBL_MAX) pass.
  Rng rng(7);
  const Scenario good = ScenarioBuilder().num_users(2).build(rng);
  Matrix3<double> zeros(good.num_users(), good.num_servers(),
                        good.num_subchannels(), 0.0);
  EXPECT_FALSE(every_gain_passes(zeros));
  expect_gain_check(good, zeros);
  for (const double edge : kEdgeGains) {
    SCOPED_TRACE(::testing::Message() << "whole link " << edge);
    Matrix3<double> gains = good.gains();
    for (std::size_t j = 0; j < good.num_subchannels(); ++j) {
      gains(1, 4, j) = edge;
    }
    expect_gain_check(good, gains);
  }
}

TEST(ScenarioTest, RejectsGainsThatVaryAcrossSubchannels) {
  // The paper's channel is flat in the sub-channel, and the compiled
  // problem reads each link from sub-channel 0, so one link whose gain
  // differs in its last sub-channel, by one ulp, is refused: by the
  // constructor and by a workspace commit, which goes through it. So is
  // each edge value placed on one sub-channel of one link: the first, the
  // middle or the last.
  Rng rng(8);
  const Scenario good =
      ScenarioBuilder().num_users(3).num_subchannels(3).build(rng);
  const std::size_t last = good.num_subchannels() - 1;
  Matrix3<double> varying = good.gains();
  varying(1, 2, last) = std::nextafter(varying(1, 2, last), 1.0);
  EXPECT_FALSE(every_gain_passes(varying));
  expect_gain_check(good, varying);
  expect_gain_check(good, good.gains());
  for (const double edge : kEdgeGains) {
    for (std::size_t j = 0; j <= last; ++j) {
      SCOPED_TRACE(::testing::Message() << edge << " at sub-channel " << j);
      Matrix3<double> gains = good.gains();
      gains(1, 2, j) = edge;
      expect_gain_check(good, gains);
    }
  }
}

TEST(ScenarioTest, IndexBoundsChecked) {
  Rng rng(8);
  const Scenario scenario = ScenarioBuilder().num_users(2).build(rng);
  EXPECT_THROW((void)scenario.user(2), InvalidArgumentError);
  EXPECT_THROW((void)scenario.server(99), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::mec
