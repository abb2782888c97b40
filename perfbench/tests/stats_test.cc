#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "perfbench/stats.h"

namespace perfbench {
namespace {

TEST(NearestRankTest, PicksTheSmallestSampleCoveringP) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 50), 50);
  EXPECT_EQ(NearestRank(v, 99), 99);
  EXPECT_EQ(NearestRank(v, 100), 100);
  EXPECT_EQ(NearestRank(v, 0.5), 1);
  std::vector<double> five = {15, 20, 35, 40, 50};
  EXPECT_EQ(NearestRank(five, 30), 20);  // rank ceil(1.5) = 2
  EXPECT_EQ(NearestRank(five, 40), 20);  // rank 2
  EXPECT_EQ(NearestRank(five, 50), 35);  // rank ceil(2.5) = 3
  std::vector<double> empty;
  EXPECT_EQ(NearestRank(empty, 50), 0);
}

TEST(NearestRankTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = {9, 1, 8, 2, 7, 3, 6, 4, 5, 10};
  EXPECT_EQ(Median(v), 5);
  EXPECT_EQ(NearestRank(v, 90), 9);
}

TEST(SamplesBeyondTest, TenSamplesBeyondRule) {
  // p99 needs 1000 samples: rank 990, ten above it.
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(10000, 99.9));
  EXPECT_FALSE(PercentileSupported(9999, 99.9));
  // p90 needs 100: rank 90, ten above it; p50 needs 20.
  EXPECT_TRUE(PercentileSupported(100, 90));
  EXPECT_FALSE(PercentileSupported(99, 90));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(19, 50));
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(OpenLoopTest, StallIsChargedToTheSyscallsDueAfterIt) {
  dio::ManualClock clock(0);
  // Ten operations due every 100ns, each taking 10ns, except the third,
  // which stalls for 450ns.
  std::vector<dio::Nanos> due;
  for (int i = 0; i < 10; ++i) due.push_back(100 * i);
  const std::vector<OpenLoopSample> samples =
      RunOpenLoop(due, &clock, [&](std::size_t i) {
        clock.AdvanceNanos(i == 2 ? 450 : 10);
      });
  ASSERT_EQ(samples.size(), 10u);
  EXPECT_EQ(samples[0].latency, 10);
  EXPECT_EQ(samples[1].latency, 10);
  EXPECT_EQ(samples[2].latency, 450);
  EXPECT_EQ(samples[2].late, 0);
  // The stall ends at 650: ops due at 300..600 start then, one after another.
  EXPECT_EQ(samples[3].late, 350);
  EXPECT_EQ(samples[3].latency, 360);
  EXPECT_EQ(samples[4].latency, 270);
  EXPECT_EQ(samples[5].latency, 180);
  EXPECT_EQ(samples[6].latency, 90);
  // By 700 the generator has caught up.
  EXPECT_EQ(samples[7].late, 0);
  EXPECT_EQ(samples[7].latency, 10);
  // A closed-loop timer (end - start) would have charged only the stalled op.
  for (std::size_t i = 3; i <= 6; ++i) {
    EXPECT_GT(samples[i].latency, 10) << i;
  }
}

}  // namespace
}  // namespace perfbench
