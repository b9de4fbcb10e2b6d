// Graceful degradation off faulted resources: warm-start repair must evict
// users stranded on masked slots, schedulers must survive combined churn
// (departure + server failure + arrival in one epoch), and the release-mode
// audit must catch schedulers that violate the contract.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "algo/scheduler.h"
#include "algo/tsajs.h"
#include "common/error.h"
#include "common/rng.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"
#include "mec/availability.h"
#include "mec/scenario_builder.h"
#include "support/solve.h"

namespace tsajs::algo {
namespace {

mec::Scenario make_base(Rng& rng, std::size_t users = 6) {
  return mec::ScenarioBuilder()
      .num_users(users)
      .num_servers(3)
      .num_subchannels(2)
      .build(rng);
}

/// make_base's drop for the same generator state, behind a cloud tier.
mec::Scenario make_cloudy(Rng& rng, std::size_t max_forwarded = 0) {
  return mec::ScenarioBuilder()
      .num_users(6)
      .num_servers(3)
      .num_subchannels(2)
      .cloud(/*cpu_hz=*/40e9, /*backhaul_bps=*/100e6,
             /*backhaul_latency_s=*/0.02, max_forwarded)
      .build(rng);
}

TEST(RepairHintTest, EvictsUsersFromMaskedSlots) {
  Rng rng(1);
  const mec::Scenario base = make_base(rng);
  jtora::Assignment hint(base);
  hint.offload(0, 0, 0);  // server 0 will fail
  hint.offload(1, 1, 0);  // server 1 stays up
  hint.offload(2, 2, 1);  // slot (2,1) will black out

  mec::Availability mask(3, 2);
  mask.fail_server(0);
  mask.block_slot(2, 1);
  const mec::Scenario faulted = base.with_availability(mask);

  const jtora::Assignment repaired = repair_hint(faulted, hint);
  EXPECT_FALSE(repaired.is_offloaded(0));  // evicted: server down
  EXPECT_TRUE(repaired.is_offloaded(1));   // untouched survivor
  EXPECT_EQ(repaired.slot_of(1), (jtora::Slot{1, 0}));
  EXPECT_FALSE(repaired.is_offloaded(2));  // evicted: slot blacked out
}

TEST(RepairHintTest, AllResourcesMaskedDegradesEveryoneToLocal) {
  Rng rng(2);
  const mec::Scenario base = make_base(rng);
  jtora::Assignment hint(base);
  hint.offload(0, 0, 0);
  hint.offload(1, 1, 1);

  mec::Availability mask(3, 2);
  for (std::size_t s = 0; s < 3; ++s) mask.fail_server(s);
  const jtora::Assignment repaired =
      repair_hint(base.with_availability(mask), hint);
  EXPECT_EQ(repaired.num_offloaded(), 0u);
}

// The satellite scenario: between two epochs, user 0 leaves, the server
// user 1 sat on fails, and a new user arrives — all at once. The warm
// repair + solve must come out feasible with nobody on a dead resource.
TEST(DegradationTest, WarmStartSurvivesCombinedChurn) {
  Rng env(21);
  const mec::Scenario epoch1 = make_base(env, 6);
  const TsajsScheduler scheduler;

  Rng rng1(4);
  const ScheduleResult first = test::validated(scheduler, epoch1, rng1);
  // Per-population carried slots, as the dynamic simulator keeps them.
  std::vector<std::optional<jtora::Slot>> carried(7);
  for (std::size_t u = 0; u < 6; ++u) {
    carried[u] = first.assignment.slot_of(u);
  }
  // Pick a server that actually hosts someone so the failure bites; fall
  // back to server 0 if this epoch offloaded nobody.
  std::size_t failed_server = 0;
  for (std::size_t u = 1; u < 6; ++u) {
    if (carried[u].has_value()) {
      failed_server = carried[u]->server;
      break;
    }
  }

  // Epoch 2: population member 0 leaves (its slot simply isn't carried
  // over), a new member arrives at the end, and `failed_server` goes down.
  // Active set: old members 1..5 plus the newcomer -> 6 users again, with
  // user indices shifted down by one exactly like the simulator's
  // active-set remapping.
  Rng env2(22);
  const mec::Scenario fresh = make_base(env2, 6);
  mec::Availability mask(3, 2);
  mask.fail_server(failed_server);
  const mec::Scenario epoch2 = fresh.with_availability(mask);

  jtora::Assignment hint(epoch2);
  for (std::size_t i = 0; i < 5; ++i) {  // survivors: population 1..5
    const auto& slot = carried[i + 1];
    if (!slot.has_value()) continue;
    if (!hint.slot_available(slot->server, slot->subchannel)) continue;
    if (hint.occupant(slot->server, slot->subchannel).has_value()) continue;
    hint.offload(i, slot->server, slot->subchannel);
  }
  // The newcomer (index 5) starts local: no carried slot.

  Rng rng2(5);
  const ScheduleResult second =
      test::validated(scheduler, epoch2, rng2, &hint);
  for (std::size_t u = 0; u < 6; ++u) {
    const auto slot = second.assignment.slot_of(u);
    if (!slot.has_value()) continue;
    EXPECT_NE(slot->server, failed_server);
    EXPECT_TRUE(epoch2.slot_available(slot->server, slot->subchannel));
  }
}

// Schedulers that break the contract must be caught by the audit, not
// silently recorded. A scheduler that lies about its utility...
class LyingScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "liar"; }
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& request) const override {
    ScheduleResult result{jtora::Assignment(request.problem->scenario())};
    result.system_utility = 123.0;  // all-local is exactly 0
    return result;
  }
};

// ...and a scheduler that builds its decision against a healthier twin of
// the scenario it was given: one without the fault mask, the dead backhaul,
// the admission cap or the missing cloud tier. It reports the utility its
// decision has on the twin. None of those constraints enters the objective,
// so the broken constraint is the audit's only complaint.
class TwinScheduler final : public Scheduler {
 public:
  TwinScheduler(const mec::Scenario& twin,
                std::function<void(jtora::Assignment&)> decide)
      : twin_(twin), decide_(std::move(decide)) {}
  [[nodiscard]] std::string name() const override { return "twin-blind"; }
  [[nodiscard]] ScheduleResult solve(
      const SolveRequest& /*request*/) const override {
    jtora::Assignment x(twin_);
    decide_(x);
    const jtora::CompiledProblem problem(twin_);
    const double utility = jtora::UtilityEvaluator(problem).system_utility(x);
    return ScheduleResult{std::move(x), utility};
  }

 private:
  const mec::Scenario& twin_;
  std::function<void(jtora::Assignment&)> decide_;
};

/// Runs `scheduler` on `scenario` through the audit and expects exactly one
/// violation, naming `check`.
void expect_sole_violation(const Scheduler& scheduler,
                           const mec::Scenario& scenario,
                           const std::string& check) {
  Rng solve_rng(1);
  try {
    (void)test::validated(scheduler, scenario, solve_rng);
    ADD_FAILURE() << "expected ValidationError naming \"" << check << '"';
  } catch (const ValidationError& error) {
    ASSERT_EQ(error.violations().size(), 1u) << error.what();
    EXPECT_NE(error.violations()[0].find(check), std::string::npos)
        << error.violations()[0];
  }
}

TEST(ValidationTest, AuditCatchesMisreportedUtility) {
  Rng rng(3);
  const mec::Scenario scenario = make_base(rng);
  Rng solve_rng(1);
  try {
    (void)test::validated(LyingScheduler(), scenario, solve_rng);
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& error) {
    ASSERT_EQ(error.violations().size(), 1u);
    EXPECT_NE(error.violations()[0].find("disagrees"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("liar"), std::string::npos);
  }
}

TEST(ValidationTest, AuditCatchesAssignmentToMaskedSlot) {
  Rng rng(3);
  const mec::Scenario base = make_base(rng);
  mec::Availability mask(3, 2);
  mask.fail_server(0);
  const mec::Scenario masked = base.with_availability(mask);

  // (0,0) is masked in the problem the scheduler is given.
  const TwinScheduler scheduler(
      base, [](jtora::Assignment& x) { x.offload(0, 0, 0); });
  Rng solve_rng(1);
  try {
    (void)test::validated(scheduler, masked, solve_rng);
    FAIL() << "expected ValidationError";
  } catch (const ValidationError& error) {
    ASSERT_FALSE(error.violations().empty());
    EXPECT_NE(error.violations()[0].find("fault-masked"), std::string::npos);
  }
}

TEST(ValidationTest, AuditCatchesForwardingOverDownBackhaul) {
  Rng rng(3);
  const mec::Scenario cloudy = make_cloudy(rng);
  mec::Availability mask(3, 2);
  mask.fail_backhaul(0);
  const mec::Scenario faulted = cloudy.with_availability(mask);
  const TwinScheduler scheduler(cloudy, [](jtora::Assignment& x) {
    x.offload(0, 0, 0);
    x.set_forwarded(0, true);  // server 0's backhaul is down in `faulted`
  });
  expect_sole_violation(scheduler, faulted, "down backhaul");
}

TEST(ValidationTest, AuditCatchesForwardingPastTheAdmissionCap) {
  Rng rng_a(3);
  Rng rng_b(3);
  const mec::Scenario uncapped = make_cloudy(rng_a);
  const mec::Scenario capped = make_cloudy(rng_b, /*max_forwarded=*/1);
  const TwinScheduler scheduler(uncapped, [](jtora::Assignment& x) {
    x.offload(0, 0, 0);
    x.offload(1, 1, 0);
    x.set_forwarded(0, true);
    x.set_forwarded(1, true);  // the second forward is over the cap of 1
  });
  expect_sole_violation(scheduler, capped, "admission cap");
}

TEST(ValidationTest, AuditCatchesForwardingStateWithoutCloudTier) {
  Rng rng_a(3);
  Rng rng_b(3);
  const mec::Scenario cloudy = make_cloudy(rng_a);
  const mec::Scenario plain = make_base(rng_b);
  // Nobody is forwarded, but the decision carries the forwarding state of a
  // tier the problem does not have.
  const TwinScheduler scheduler(
      cloudy, [](jtora::Assignment& x) { x.offload(0, 0, 0); });
  expect_sole_violation(scheduler, plain, "no cloud tier");
}

// A forwarded user on a problem without a cloud tier has no compiled
// forwarding delay: the audit must report the tier before it evaluates.
TEST(ValidationTest, AuditStopsAtForwardedUsersWithoutCloudTier) {
  Rng rng_a(3);
  Rng rng_b(3);
  const mec::Scenario cloudy = make_cloudy(rng_a);
  const mec::Scenario plain = make_base(rng_b);
  const TwinScheduler scheduler(cloudy, [](jtora::Assignment& x) {
    x.offload(0, 0, 0);
    x.set_forwarded(0, true);
  });
  expect_sole_violation(scheduler, plain, "no cloud tier");
}

TEST(ValidationTest, AuditRejectsMismatchedShape) {
  Rng rng_a(3);
  Rng rng_b(4);
  const mec::Scenario big = make_base(rng_a, 8);
  const mec::Scenario small = make_base(rng_b, 6);
  // A scheduler that answers for the wrong instance.
  class WrongShape final : public Scheduler {
   public:
    explicit WrongShape(const mec::Scenario& other) : other_(other) {}
    [[nodiscard]] std::string name() const override { return "wrong-shape"; }
    [[nodiscard]] ScheduleResult solve(
        const SolveRequest& /*request*/) const override {
      return ScheduleResult{jtora::Assignment(other_)};
    }

   private:
    const mec::Scenario& other_;
  };
  Rng solve_rng(1);
  EXPECT_THROW((void)test::validated(WrongShape(big), small, solve_rng),
               ValidationError);
}

}  // namespace
}  // namespace tsajs::algo
