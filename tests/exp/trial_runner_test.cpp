#include "exp/trial_runner.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "exp/report.h"
#include "geo/partition.h"
#include "geo/point.h"
#include "mec/scenario.h"

namespace tsajs::exp {
namespace {

TrialSpec quick_spec() {
  TrialSpec spec;
  spec.builder.num_users(5).num_servers(3).num_subchannels(2);
  spec.schemes = {"greedy", "hjtora"};
  spec.trials = 6;
  spec.base_seed = 99;
  return spec;
}

TEST(TrialRunnerTest, RunsAllTrialsForAllSchemes) {
  const auto stats = TrialRunner(2).run(quick_spec());
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].scheme, "greedy");
  EXPECT_EQ(stats[1].scheme, "hjtora");
  for (const auto& s : stats) {
    EXPECT_EQ(s.utility.count(), 6u);
    EXPECT_EQ(s.solve_seconds.count(), 6u);
    EXPECT_GE(s.solve_seconds.min(), 0.0);
    EXPECT_GE(s.offloaded.min(), 0.0);
    EXPECT_GT(s.mean_delay_s.mean(), 0.0);
    EXPECT_GT(s.mean_energy_j.mean(), 0.0);
  }
}

void expect_bitwise_equal(const Accumulator& a, const Accumulator& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(TrialRunnerTest, DeterministicAcrossThreadCounts) {
  // Per-trial seeds derive from (base_seed, trial) only and the outcomes
  // fold in trial order, so every statistic must be bitwise identical no
  // matter how trials are scheduled onto threads. The pool workers share
  // one instance of each scheduler; "sharded:tsajs" is among them, at a
  // reach that splits the 3-site grid into shards with boundary cells, so
  // its solve runs the partition, the shard solves and the fixup
  // concurrently on that one instance. The sites are 1,000 m apart: a
  // shorter reach leaves no boundary cell, a longer one a single shard.
  TrialSpec spec = quick_spec();
  spec.schemes = {"tsajs", "greedy", "sharded:tsajs"};
  spec.options.shard_reach_m = 1000.0;
  spec.trials = 24;
  {
    Rng rng(spec.base_seed);
    const mec::Scenario drop = spec.builder.build(rng);
    std::vector<geo::Point> sites;
    for (const mec::EdgeServer& server : drop.servers()) {
      sites.push_back(server.position);
    }
    const geo::InterferencePartition partition(sites,
                                               spec.options.shard_reach_m);
    ASSERT_GT(partition.num_shards(), 1u);
    ASSERT_FALSE(partition.boundary_cells().empty());
  }
  const auto serial = TrialRunner(1).run(spec);
  const auto parallel = TrialRunner(4).run(spec);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].scheme);
    expect_bitwise_equal(serial[i].utility, parallel[i].utility);
    expect_bitwise_equal(serial[i].offloaded, parallel[i].offloaded);
    expect_bitwise_equal(serial[i].mean_delay_s, parallel[i].mean_delay_s);
    expect_bitwise_equal(serial[i].mean_energy_j, parallel[i].mean_energy_j);
  }
}

TEST(TrialRunnerTest, DifferentBaseSeedsDiffer) {
  TrialSpec a = quick_spec();
  TrialSpec b = quick_spec();
  b.base_seed = 12345;
  const auto stats_a = TrialRunner(1).run(a);
  const auto stats_b = TrialRunner(1).run(b);
  EXPECT_NE(stats_a[0].utility.mean(), stats_b[0].utility.mean());
}

TEST(TrialRunnerTest, RejectsEmptyInput) {
  TrialSpec spec = quick_spec();
  spec.trials = 0;
  EXPECT_THROW((void)TrialRunner(1).run(spec), InvalidArgumentError);
  spec = quick_spec();
  spec.schemes.clear();
  EXPECT_THROW((void)TrialRunner(1).run(spec), InvalidArgumentError);
}

TEST(TrialRunnerTest, UtilityCiShrinksWithMoreTrials) {
  TrialSpec small = quick_spec();
  small.trials = 5;
  TrialSpec large = quick_spec();
  large.trials = 40;
  const auto s = TrialRunner(2).run(small);
  const auto l = TrialRunner(2).run(large);
  EXPECT_LT(l[1].utility_ci().half_width, s[1].utility_ci().half_width);
}

TEST(ReportTest, MakeSweepTableShape) {
  const auto stats = TrialRunner(1).run(quick_spec());
  const Table table = make_sweep_table("w [Mcyc]", {"1000"}, {stats},
                                       metric_utility(true));
  EXPECT_EQ(table.num_cols(), 3u);  // x + 2 schemes
  EXPECT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.headers()[1], "greedy");
  EXPECT_NE(table.row(0)[1].find("±"), std::string::npos);
}

TEST(ReportTest, MakeSweepTableRejectsMismatchedSchemes) {
  const auto stats = TrialRunner(1).run(quick_spec());
  auto reordered = stats;
  std::swap(reordered[0], reordered[1]);
  EXPECT_THROW((void)make_sweep_table("x", {"a", "b"}, {stats, reordered},
                                      metric_utility()),
               InvalidArgumentError);
}

TEST(ReportTest, MetricSelectorsProduceParseableNumbers) {
  const auto stats = TrialRunner(1).run(quick_spec());
  EXPECT_FALSE(metric_utility()(stats[0]).empty());
  EXPECT_FALSE(metric_runtime()(stats[0]).empty());
  EXPECT_FALSE(metric_delay()(stats[0]).empty());
  EXPECT_FALSE(metric_energy()(stats[0]).empty());
  EXPECT_FALSE(metric_offloaded()(stats[0]).empty());
  // metric_delay/energy are plain fixed-point numbers.
  EXPECT_NO_THROW((void)std::stod(metric_delay()(stats[0])));
  EXPECT_NO_THROW((void)std::stod(metric_energy()(stats[0])));
}

}  // namespace
}  // namespace tsajs::exp
