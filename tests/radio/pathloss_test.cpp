#include "radio/pathloss.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace tsajs::radio {
namespace {

TEST(LogDistancePathLossTest, PaperModelAtOneKm) {
  // L[dB] = 140.7 + 36.7 log10(d[km]) => exactly 140.7 dB at 1 km.
  EXPECT_NEAR(paper_pathloss_db(1000.0), 140.7, 1e-9);
}

TEST(LogDistancePathLossTest, PaperModelSlope) {
  // One decade of distance adds 36.7 dB.
  EXPECT_NEAR(paper_pathloss_db(10000.0) - paper_pathloss_db(1000.0), 36.7,
              1e-9);
  EXPECT_NEAR(paper_pathloss_db(1000.0) - paper_pathloss_db(100.0), 36.7,
              1e-9);
}

TEST(LogDistancePathLossTest, MonotoneInDistance) {
  double prev = paper_pathloss_db(20.0);
  for (double d = 50.0; d < 5000.0; d += 50.0) {
    const double cur = paper_pathloss_db(d);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(LogDistancePathLossTest, ClampsTinyDistances) {
  EXPECT_DOUBLE_EQ(paper_pathloss_db(0.0), paper_pathloss_db(10.0));
  EXPECT_DOUBLE_EQ(paper_pathloss_db(5.0), paper_pathloss_db(10.0));
}

TEST(LogDistancePathLossTest, RejectsBadParameters) {
  EXPECT_THROW((void)paper_pathloss_db(-1.0), InvalidArgumentError);
}

}  // namespace
}  // namespace tsajs::radio
