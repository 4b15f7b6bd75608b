// Unit tests for the common substrate: Status, Rng, Zipf, stats, histogram,
// table printing, and flags.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include "common/aggregate.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/zipf.h"
#include "core/engine.h"

namespace validity {
namespace {

// --------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyTypesWork) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 5);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(5);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBelow(n), n);
  }
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(17);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBelow(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(11);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, GeometricBitIndexIsExponential) {
  // P(index = k) = 2^-(k+1): the Flajolet-Martin requirement (paper §5.2).
  Rng rng(23);
  constexpr int kDraws = 200000;
  int counts[8] = {0};
  for (int i = 0; i < kDraws; ++i) {
    int k = rng.GeometricBitIndex();
    if (k < 8) ++counts[k];
  }
  for (int k = 0; k < 5; ++k) {
    double expected = kDraws * std::pow(2.0, -(k + 1));
    EXPECT_NEAR(counts[k], expected, expected * 0.08 + 30)
        << "bit index " << k;
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(31);
  for (uint32_t n : {10u, 100u, 5000u}) {
    for (uint32_t k : {0u, 1u, n / 2, n}) {
      auto sample = rng.SampleWithoutReplacement(n, k);
      EXPECT_EQ(sample.size(), k);
      std::set<uint32_t> uniq(sample.begin(), sample.end());
      EXPECT_EQ(uniq.size(), k);
      for (uint32_t v : sample) EXPECT_LT(v, n);
    }
  }
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng parent(77);
  Rng a = parent.Fork(1);
  Rng b = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ----------------------------------------------------------------- Zipf

TEST(ZipfTest, RejectsBadParameters) {
  EXPECT_FALSE(ZipfGenerator::Make(10, 5, 1.0).ok());
  EXPECT_FALSE(ZipfGenerator::Make(0, 10, -1.0).ok());
}

TEST(ZipfTest, SamplesStayInRange) {
  auto zipf = ZipfGenerator::Make(10, 500, 1.0);
  ASSERT_TRUE(zipf.ok());
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = zipf->Sample(&rng);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 500);
  }
}

TEST(ZipfTest, RankProbabilitiesFollowPowerLaw) {
  // With theta = 1, P(rank 1) / P(rank 2) = 2.
  auto zipf = ZipfGenerator::Make(0, 99, 1.0);
  ASSERT_TRUE(zipf.ok());
  Rng rng(2);
  int first = 0;
  int second = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    int64_t v = zipf->Sample(&rng);
    if (v == 0) ++first;
    if (v == 1) ++second;
  }
  EXPECT_NEAR(static_cast<double>(first) / second, 2.0, 0.15);
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  auto zipf = ZipfGenerator::Make(1, 4, 0.0);
  ASSERT_TRUE(zipf.ok());
  Rng rng(3);
  int counts[5] = {0};
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[zipf->Sample(&rng)];
  for (int v = 1; v <= 4; ++v) {
    EXPECT_NEAR(counts[v], kDraws / 4, kDraws / 4 * 0.1);
  }
}

TEST(ZipfTest, EmpiricalMeanMatchesAnalyticMean) {
  auto zipf = ZipfGenerator::Make(10, 500, 1.0);
  ASSERT_TRUE(zipf.ok());
  Rng rng(4);
  auto values = zipf->SampleMany(&rng, 50000);
  double mean = 0;
  for (int64_t v : values) mean += static_cast<double>(v);
  mean /= static_cast<double>(values.size());
  EXPECT_NEAR(mean, zipf->Mean(), zipf->Mean() * 0.05);
}

// The binary-search sampler the guide table replaced: the first CDF entry
// above u, clamped to the last. It is the reference for ValueAt.
int64_t UpperBoundValueAt(const ZipfGenerator& zipf, double u) {
  const std::vector<double>& cdf = zipf.cdf();
  auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  if (it == cdf.end()) --it;
  return zipf.low() + static_cast<int64_t>(it - cdf.begin());
}

TEST(ZipfTest, GuideTableEqualsBinarySearchForEveryU) {
  struct Shape {
    int64_t low;
    int64_t high;
    double theta;
  };
  const Shape shapes[] = {{10, 500, 1.0}, {10, 500, 0.0}, {10, 500, 2.0},
                          {7, 7, 1.0},    {3, 4, 1.0},    {0, 9999, 1.0}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(::testing::Message() << "[" << shape.low << ", "
                                      << shape.high << "] theta "
                                      << shape.theta);
    auto zipf = ZipfGenerator::Make(shape.low, shape.high, shape.theta);
    ASSERT_TRUE(zipf.ok());
    ASSERT_EQ(zipf->cdf().size(),
              static_cast<size_t>(shape.high - shape.low + 1));
    ASSERT_EQ(zipf->cdf().back(), 1.0);
    // Every CDF step and the doubles on both sides of it, where a guide
    // entry and the binary search are likeliest to disagree.
    size_t mismatches = 0;
    for (double c : zipf->cdf()) {
      for (double u : {std::nextafter(c, 0.0), c, std::nextafter(c, 2.0)}) {
        if (zipf->ValueAt(u) != UpperBoundValueAt(*zipf, u)) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "at the CDF steps";
    // And 10^6 draws of the generator's own stream, including u = 0.
    EXPECT_EQ(zipf->ValueAt(0.0), UpperBoundValueAt(*zipf, 0.0));
    Rng rng(0x21bf);
    for (int i = 0; i < 1'000'000; ++i) {
      const double u = rng.NextDouble();
      if (zipf->ValueAt(u) != UpperBoundValueAt(*zipf, u)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u) << "on random u";
  }
}

TEST(ZipfTest, SampleDrawsOneDoubleAndInvertsIt) {
  auto zipf = ZipfGenerator::Make(10, 500, 1.0);
  ASSERT_TRUE(zipf.ok());
  Rng sampled(9);
  Rng direct(9);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(zipf->Sample(&sampled),
              UpperBoundValueAt(*zipf, direct.NextDouble()));
  }
}

TEST(ZipfTest, RejectsARangeTooWideToTabulate) {
  EXPECT_FALSE(ZipfGenerator::Make(0, int64_t{1} << 30, 1.0).ok());
  EXPECT_FALSE(ZipfGenerator::Make(INT64_MIN, INT64_MAX, 1.0).ok());
}

// FNV-1a over the values' bit patterns.
uint64_t Fnv1a(const std::vector<double>& values) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (double v : values) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(ZipfTest, PaperWorkloadValuesMatchTheirRecordedDigests) {
  // Recorded with the binary-search sampler: the guide table must give
  // every host the same value, at the paper-churn and million-grid sizes.
  EXPECT_EQ(Fnv1a(core::MakeZipfValues(2000, 43)), 0xed812115125859a7ull);
  EXPECT_EQ(Fnv1a(core::MakeZipfValues(1'000'000, 43)),
            0x8111f34e3d6b2db7ull);
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, RunningStatBasics) {
  RunningStat rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(rs.min(), 2.0);
  EXPECT_EQ(rs.max(), 9.0);
  EXPECT_EQ(rs.sum(), 40.0);
}

TEST(StatsTest, CiShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) small.Add(rng.NextDouble());
  for (int i = 0; i < 1000; ++i) large.Add(rng.NextDouble());
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(StatsTest, SummarizeMatchesRunningStat) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  MeanCi s = Summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.n, 5u);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
}

// ------------------------------------------------------------ Histogram

TEST(HistogramTest, CountsAndMean) {
  Histogram h;
  h.Add(1, 2);
  h.Add(3);
  EXPECT_EQ(h.total(), 3);
  EXPECT_EQ(h.CountAt(1), 2);
  EXPECT_EQ(h.CountAt(3), 1);
  EXPECT_EQ(h.CountAt(2), 0);
  EXPECT_EQ(h.MaxValue(), 3);
  EXPECT_NEAR(h.Mean(), 5.0 / 3.0, 1e-12);
}

TEST(HistogramTest, Log2Buckets) {
  Histogram h;
  h.Add(0);
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(4);
  h.Add(7);
  auto buckets = h.Log2Buckets();
  // buckets: [0]=1, [1]=1, [2,3]=2, [4,7]=2
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], std::make_pair(int64_t{0}, int64_t{1}));
  EXPECT_EQ(buckets[1], std::make_pair(int64_t{1}, int64_t{1}));
  EXPECT_EQ(buckets[2], std::make_pair(int64_t{2}, int64_t{2}));
  EXPECT_EQ(buckets[3], std::make_pair(int64_t{4}, int64_t{2}));
}

// ---------------------------------------------------------------- Table

TEST(TableTest, AlignedAndCsvOutput) {
  TablePrinter table({"name", "n"});
  table.NewRow().Cell("alpha").Cell(int64_t{5});
  table.NewRow().Cell("b").Cell(12.5, 1);
  std::ostringstream aligned;
  table.Print(aligned);
  EXPECT_NE(aligned.str().find("alpha"), std::string::npos);
  EXPECT_NE(aligned.str().find("12.5"), std::string::npos);
  std::ostringstream csv;
  table.PrintCsv(csv);
  EXPECT_EQ(csv.str(), "name,n\nalpha,5\nb,12.5\n");
}

TEST(TableTest, FormatDoubleIntegersRenderWithoutDecimals) {
  EXPECT_EQ(FormatDouble(39046.0), "39046");
  EXPECT_EQ(FormatDouble(0.125, 3), "0.125");
  EXPECT_EQ(FormatDouble(std::nan(""), 3), "nan");
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllTypes) {
  FlagSet flags;
  flags.DefineInt("n", 10, "count");
  flags.DefineDouble("rate", 0.5, "rate");
  flags.DefineBool("fast", false, "speed");
  flags.DefineString("topo", "grid", "topology");
  const char* argv[] = {"prog", "--n=20", "--rate", "0.25", "--fast",
                        "--topo=random"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetInt("n"), 20);
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate"), 0.25);
  EXPECT_TRUE(flags.GetBool("fast"));
  EXPECT_EQ(flags.GetString("topo"), "random");
}

TEST(FlagsTest, RejectsUnknownAndMalformed) {
  FlagSet flags;
  flags.DefineInt("n", 1, "count");
  {
    const char* argv[] = {"prog", "--mystery=1"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
  {
    const char* argv[] = {"prog", "--n=zebra"};
    EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
  }
}

// ------------------------------------------------------------ Aggregate

TEST(AggregateTest, ExactAggregateAllKinds) {
  std::vector<double> values{5, 1, 9, 3};
  std::vector<HostId> members{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(ExactAggregate(AggregateKind::kCount, values, members), 4);
  EXPECT_DOUBLE_EQ(ExactAggregate(AggregateKind::kMin, values, members), 1);
  EXPECT_DOUBLE_EQ(ExactAggregate(AggregateKind::kMax, values, members), 9);
  EXPECT_DOUBLE_EQ(ExactAggregate(AggregateKind::kSum, values, members), 18);
  EXPECT_DOUBLE_EQ(ExactAggregate(AggregateKind::kAverage, values, members),
                   4.5);
  EXPECT_DOUBLE_EQ(ExactAggregate(AggregateKind::kSum, values, {}), 0);
}

TEST(AggregateTest, DuplicateSensitivity) {
  EXPECT_TRUE(IsDuplicateSensitive(AggregateKind::kCount));
  EXPECT_TRUE(IsDuplicateSensitive(AggregateKind::kSum));
  EXPECT_TRUE(IsDuplicateSensitive(AggregateKind::kAverage));
  EXPECT_FALSE(IsDuplicateSensitive(AggregateKind::kMin));
  EXPECT_FALSE(IsDuplicateSensitive(AggregateKind::kMax));
}

}  // namespace
}  // namespace validity
