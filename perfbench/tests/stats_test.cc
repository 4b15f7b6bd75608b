// The benchmark's order statistics and result digests.

#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 3.7);  // rank 2.7
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 90), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, 150), 2.0);  // clamped
  EXPECT_DOUBLE_EQ(Percentile({1.0, 2.0}, -5), 1.0);
}

TEST(PercentileTest, P90OfTheClosedLoopListsLeavesElevenBeyond) {
  // The closed loops report p90 over 108 (paper-churn) and 104
  // (million-grid) queries; the report needs at least ten samples beyond
  // it.
  for (int n : {108, 104}) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(i);
    EXPECT_EQ(CountAbove(v, Percentile(v, 90)), 11u) << n;
  }
}

TEST(StatsTest, SumMeanAndFastestAcrossPasses) {
  EXPECT_DOUBLE_EQ(Sum({1.0, 2.0, 3.5}), 6.5);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  Rows rows = {{1.0, 10.0, 7.0}, {3.0, 30.0}, {2.0, 20.0, 9.0}};
  std::vector<double> m = FastestAcross(rows);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[1], 10.0);
  EXPECT_DOUBLE_EQ(m[2], 7.0);  // only two passes reached the third item
}

TEST(DigestTest, OrderAndValueSensitive) {
  Digest a, b, c;
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(1);
  c.Add(1);
  c.Add(2);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
  EXPECT_NE(Fold({1, 2}), Fold({2, 1}));
  EXPECT_EQ(Fold({1, 2}), a.value());
  Digest zero, negative_zero;
  zero.AddDouble(0.0);
  negative_zero.AddDouble(-0.0);
  EXPECT_NE(zero.value(), negative_zero.value());  // bit patterns, not ==
}

TEST(DigestTest, QueryDigestCoversEveryReportedField) {
  validity::core::QueryResult base;
  base.value = 12.5;
  base.declared = true;
  base.cost.messages = 100;
  base.cost.bytes = 800;
  base.cost.declared_at = 20.0;
  const uint64_t d = QueryDigest(base, 10.0, 15.0);
  EXPECT_EQ(d, QueryDigest(base, 10.0, 15.0));

  auto changed = base;
  changed.value = 12.25;
  EXPECT_NE(d, QueryDigest(changed, 10.0, 15.0));
  changed = base;
  changed.declared = false;
  EXPECT_NE(d, QueryDigest(changed, 10.0, 15.0));
  changed = base;
  changed.cost.messages = 101;
  EXPECT_NE(d, QueryDigest(changed, 10.0, 15.0));
  changed = base;
  changed.cost.bytes = 808;
  EXPECT_NE(d, QueryDigest(changed, 10.0, 15.0));
  changed = base;
  changed.cost.declared_at = 21.0;
  EXPECT_NE(d, QueryDigest(changed, 10.0, 15.0));
  EXPECT_NE(d, QueryDigest(base, 10.5, 15.0));
  EXPECT_NE(d, QueryDigest(base, 10.0, 15.5));
  // Fields outside the digest do not move it.
  changed = base;
  changed.cost.max_processed = 7;
  EXPECT_EQ(d, QueryDigest(changed, 10.0, 15.0));
}

TEST(HexTest, FixedWidth) {
  EXPECT_EQ(Hex(0), "0x0000000000000000");
  EXPECT_EQ(Hex(0xabcULL), "0x0000000000000abc");
}

TEST(ReportTest, FailKeepsTheFirstReasons) {
  Report r;
  for (int i = 0; i < 20; ++i) r.Fail("reason " + std::to_string(i));
  EXPECT_EQ(r.failed, 20u);
  ASSERT_EQ(r.failures.size(), 8u);
  EXPECT_EQ(r.failures.front(), "reason 0");
}

}  // namespace
}  // namespace perfbench
