// ORACLE tests: HC/HU computation on scripted failure scenarios and the
// validity-interval arithmetic per aggregate (including the greedy extreme
// averages).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>

#include "common/rng.h"
#include "protocols/oracle.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "topology/topology.h"

namespace validity::protocols {
namespace {

TEST(OracleTest, NoFailuresEveryoneStableEverywhere) {
  topology::Graph g = *topology::MakeRandom(100, 5.0, 61);
  sim::Simulator sim(g, sim::SimOptions{});
  sim.Run();
  std::vector<double> values(100, 2.0);
  OracleReport r =
      ComputeOracle(sim, 0, 0, 10, AggregateKind::kCount, values);
  EXPECT_EQ(r.hc.size(), 100u);
  EXPECT_EQ(r.hu.size(), 100u);
  EXPECT_DOUBLE_EQ(r.q_low, 100);
  EXPECT_DOUBLE_EQ(r.q_high, 100);
}

TEST(OracleTest, ChainCutSplitsHcButNotHu) {
  // 0-1-2-3-4: host 2 dies mid-query. HC = {0,1}; HU = everyone.
  topology::Graph g = *topology::MakeChain(5);
  sim::Simulator sim(g, sim::SimOptions{});
  sim.ScheduleFailure(3.0, 2);
  sim.Run();
  std::vector<double> values{1, 2, 3, 4, 5};
  OracleReport r = ComputeOracle(sim, 0, 0, 10, AggregateKind::kCount, values);
  EXPECT_EQ(r.hc, (std::vector<HostId>{0, 1}));
  EXPECT_EQ(r.hu.size(), 5u);
  EXPECT_DOUBLE_EQ(r.q_low, 2);
  EXPECT_DOUBLE_EQ(r.q_high, 5);
}

TEST(OracleTest, FailureAfterIntervalDoesNotCut) {
  topology::Graph g = *topology::MakeChain(3);
  sim::Simulator sim(g, sim::SimOptions{});
  sim.ScheduleFailure(20.0, 1);
  sim.Run();
  std::vector<double> values{1, 1, 1};
  OracleReport r = ComputeOracle(sim, 0, 0, 10, AggregateKind::kCount, values);
  EXPECT_EQ(r.hc.size(), 3u) << "failure at t=20 is outside [0,10]";
}

TEST(OracleTest, WindowedIntervalsSeeDifferentWorlds) {
  topology::Graph g = *topology::MakeChain(3);
  sim::Simulator sim(g, sim::SimOptions{});
  sim.ScheduleFailure(15.0, 2);
  sim.Run();
  std::vector<double> values{1, 1, 1};
  // Window [0,10]: host 2 alive throughout => in HC.
  OracleReport early =
      ComputeOracle(sim, 0, 0, 10, AggregateKind::kCount, values);
  EXPECT_EQ(early.hc.size(), 3u);
  // Window [12,22]: host 2 dies inside => only in HU.
  OracleReport late =
      ComputeOracle(sim, 0, 12, 22, AggregateKind::kCount, values);
  EXPECT_EQ(late.hc.size(), 2u);
  EXPECT_EQ(late.hu.size(), 3u);
  // Window [16,26]: host 2 never alive => gone from HU too.
  OracleReport gone =
      ComputeOracle(sim, 0, 16, 26, AggregateKind::kCount, values);
  EXPECT_EQ(gone.hu.size(), 2u);
}

TEST(OracleTest, MinMaxBoundsAreDirectional) {
  // Chain 0-1-2; values 5, 1, 9; host 1 fails => HC={0}, HU=all.
  topology::Graph g = *topology::MakeChain(3);
  sim::Simulator sim(g, sim::SimOptions{});
  sim.ScheduleFailure(1.0, 1);
  sim.Run();
  std::vector<double> values{5, 1, 9};

  OracleReport mn = ComputeOracle(sim, 0, 0, 10, AggregateKind::kMin, values);
  // min over HU = 1 (low), min over HC = 5 (high).
  EXPECT_DOUBLE_EQ(mn.q_low, 1);
  EXPECT_DOUBLE_EQ(mn.q_high, 5);
  EXPECT_TRUE(mn.Contains(5));
  EXPECT_TRUE(mn.Contains(1));
  EXPECT_FALSE(mn.Contains(0.5));

  OracleReport mx = ComputeOracle(sim, 0, 0, 10, AggregateKind::kMax, values);
  EXPECT_DOUBLE_EQ(mx.q_low, 5);
  EXPECT_DOUBLE_EQ(mx.q_high, 9);
}

TEST(OracleTest, SumBoundsHandleNegativeValues) {
  topology::Graph g = *topology::MakeChain(4);
  sim::Simulator sim(g, sim::SimOptions{});
  sim.ScheduleFailure(1.0, 1);  // cuts hosts 2,3 from HC
  sim.Run();
  std::vector<double> values{10, 4, -3, 7};
  OracleReport r = ComputeOracle(sim, 0, 0, 10, AggregateKind::kSum, values);
  // HC = {0}: base 10. Optional: 4 (host1, in HU), -3, 7.
  EXPECT_DOUBLE_EQ(r.q_low, 10 - 3);
  EXPECT_DOUBLE_EQ(r.q_high, 10 + 4 + 7);
}

TEST(OracleTest, ContainsWithinGrantsMultiplicativeSlack) {
  OracleReport r;
  r.q_low = 100;
  r.q_high = 200;
  EXPECT_FALSE(r.Contains(90));
  EXPECT_TRUE(r.ContainsWithin(90, 2.0));
  EXPECT_TRUE(r.ContainsWithin(390, 2.0));
  EXPECT_FALSE(r.ContainsWithin(450, 2.0));
}

// ------------------------------------------------------- ExtremeAverages

TEST(ExtremeAveragesTest, NoOptionalsIsJustTheMean) {
  AvgBounds b = ExtremeAverages({2, 4}, {});
  EXPECT_DOUBLE_EQ(b.low, 3);
  EXPECT_DOUBLE_EQ(b.high, 3);
}

TEST(ExtremeAveragesTest, GreedyPicksHelpfulValuesOnly) {
  // Mandatory {10}; optional {1, 20}.
  // Max: add 20 -> mean 15 (adding 1 would lower it).
  // Min: add 1 -> mean 5.5 (adding 20 would raise it).
  AvgBounds b = ExtremeAverages({10}, {1, 20});
  EXPECT_DOUBLE_EQ(b.high, 15);
  EXPECT_DOUBLE_EQ(b.low, 5.5);
}

TEST(ExtremeAveragesTest, TakesMultipleWhileImproving) {
  // Max from {0}: 30 -> 15; 20 > 15 -> (0+30+20)/3 = 16.66..; 10 < 16.66
  // stops.
  AvgBounds b = ExtremeAverages({0}, {10, 20, 30});
  EXPECT_NEAR(b.high, 50.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(b.low, 0);
}

TEST(ExtremeAveragesTest, EmptyMandatorySeedsFromExtremes) {
  AvgBounds b = ExtremeAverages({}, {1, 5, 9});
  EXPECT_DOUBLE_EQ(b.high, 9 /* then 5,1 would lower it */);
  EXPECT_DOUBLE_EQ(b.low, 1);
}

TEST(ExtremeAveragesTest, AllEqualValuesCollapse) {
  AvgBounds b = ExtremeAverages({7, 7}, {7, 7, 7});
  EXPECT_DOUBLE_EQ(b.low, 7);
  EXPECT_DOUBLE_EQ(b.high, 7);
}

TEST(OracleTest, AverageBoundsContainTruthUnderChurn) {
  topology::Graph g = *topology::MakeRandom(200, 5.0, 67);
  sim::Simulator sim(g, sim::SimOptions{});
  for (HostId h = 10; h < 50; ++h) {
    sim.ScheduleFailure(2.0 + h * 0.1, h);
  }
  sim.Run();
  std::vector<double> values(200);
  Rng rng(67);
  for (auto& v : values) v = static_cast<double>(10 + rng.NextBelow(490));
  OracleReport r =
      ComputeOracle(sim, 0, 0, 30, AggregateKind::kAverage, values);
  // The average over HC and over HU both lie inside the bounds.
  double hc_avg = ExactAggregate(AggregateKind::kAverage, values, r.hc);
  double hu_avg = ExactAggregate(AggregateKind::kAverage, values, r.hu);
  EXPECT_LE(r.q_low, hc_avg);
  EXPECT_GE(r.q_high, hc_avg);
  EXPECT_LE(r.q_low, hu_avg);
  EXPECT_GE(r.q_high, hu_avg);
  EXPECT_LT(r.q_low, r.q_high);
}

// ------------------------------------------- equivalence with the deque+sort
// ORACLE

// ComputeOracle as it was before the BFS reused report.hc as its queue and
// the id-order rebuild replaced std::sort: a deque frontier, a sorted hc and
// separate in_hc marks. ComputeOracle must reproduce it exactly.
OracleReport ReferenceOracle(const sim::Simulator& sim, HostId hq,
                             SimTime t_begin, SimTime t_end,
                             AggregateKind kind,
                             const std::vector<double>& values) {
  OracleReport report;
  for (HostId h = 0; h < sim.num_hosts(); ++h) {
    if (sim.AliveSometimeIn(h, t_begin, t_end)) report.hu.push_back(h);
  }
  std::vector<uint8_t> visited(sim.num_hosts(), 0);
  std::deque<HostId> frontier;
  visited[hq] = 1;
  frontier.push_back(hq);
  while (!frontier.empty()) {
    HostId u = frontier.front();
    frontier.pop_front();
    report.hc.push_back(u);
    for (HostId v : sim.NeighborsOf(u)) {
      if (!visited[v] && sim.AliveThroughout(v, t_begin, t_end)) {
        visited[v] = 1;
        frontier.push_back(v);
      }
    }
  }
  std::sort(report.hc.begin(), report.hc.end());
  switch (kind) {
    case AggregateKind::kCount:
      report.q_low = static_cast<double>(report.hc.size());
      report.q_high = static_cast<double>(report.hu.size());
      break;
    case AggregateKind::kSum: {
      double lo = 0.0;
      double hi = 0.0;
      for (HostId h : report.hc) {
        lo += values[h];
        hi += values[h];
      }
      std::vector<uint8_t> in_hc(sim.num_hosts(), 0);
      for (HostId h : report.hc) in_hc[h] = 1;
      for (HostId h : report.hu) {
        if (in_hc[h]) continue;
        if (values[h] < 0.0) {
          lo += values[h];
        } else {
          hi += values[h];
        }
      }
      report.q_low = lo;
      report.q_high = hi;
      break;
    }
    case AggregateKind::kMin: {
      double over_hu = std::numeric_limits<double>::infinity();
      for (HostId h : report.hu) over_hu = std::min(over_hu, values[h]);
      double over_hc = std::numeric_limits<double>::infinity();
      for (HostId h : report.hc) over_hc = std::min(over_hc, values[h]);
      report.q_low = over_hu;
      report.q_high = over_hc;
      break;
    }
    case AggregateKind::kMax: {
      double over_hu = -std::numeric_limits<double>::infinity();
      for (HostId h : report.hu) over_hu = std::max(over_hu, values[h]);
      double over_hc = -std::numeric_limits<double>::infinity();
      for (HostId h : report.hc) over_hc = std::max(over_hc, values[h]);
      report.q_low = over_hc;
      report.q_high = over_hu;
      break;
    }
    case AggregateKind::kAverage: {
      std::vector<uint8_t> in_hc(sim.num_hosts(), 0);
      std::vector<double> mandatory;
      mandatory.reserve(report.hc.size());
      for (HostId h : report.hc) {
        in_hc[h] = 1;
        mandatory.push_back(values[h]);
      }
      std::vector<double> optional_values;
      for (HostId h : report.hu) {
        if (!in_hc[h]) optional_values.push_back(values[h]);
      }
      AvgBounds bounds = ExtremeAverages(mandatory, std::move(optional_values));
      report.q_low = bounds.low;
      report.q_high = bounds.high;
      break;
    }
  }
  return report;
}

// The whole report, for every aggregate: host sets element for element and
// the interval bit for bit.
void ExpectMatchesReference(const sim::Simulator& sim, HostId hq,
                            SimTime t_begin, SimTime t_end,
                            const std::vector<double>& values) {
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAverage}) {
    SCOPED_TRACE(::testing::Message()
                 << "aggregate " << static_cast<int>(kind));
    const OracleReport want =
        ReferenceOracle(sim, hq, t_begin, t_end, kind, values);
    const OracleReport got =
        ComputeOracle(sim, hq, t_begin, t_end, kind, values);
    EXPECT_EQ(got.hu, want.hu);
    EXPECT_EQ(got.hc, want.hc);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.q_low),
              std::bit_cast<uint64_t>(want.q_low));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.q_high),
              std::bit_cast<uint64_t>(want.q_high));
  }
}

// Values with a fractional part, so a changed summation order would show in
// the last bits; `negative_share` of them below zero.
std::vector<double> MixedValues(size_t n, uint64_t seed,
                                double negative_share) {
  Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = 10.0 + 490.0 * rng.NextDouble();
    if (rng.NextDouble() < negative_share) v = -v;
  }
  return values;
}

// Fails `count` distinct hosts other than hq at instants spread over
// [t_min, t_max], so some fall before the interval, some in it, some after.
void ScheduleRemovals(sim::Simulator* sim, HostId hq, uint32_t count,
                      SimTime t_min, SimTime t_max, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> victims =
      rng.SampleWithoutReplacement(sim->num_hosts(), count + 1);
  uint32_t scheduled = 0;
  for (uint32_t h : victims) {
    if (h == hq || scheduled == count) continue;
    sim->ScheduleFailure(t_min + (t_max - t_min) * rng.NextDouble(), h);
    ++scheduled;
  }
}

TEST(OracleEquivalenceTest, GnutellaUnderChurn) {
  topology::Graph g = *topology::MakeGnutellaLike(800, 71);
  sim::Simulator sim(g, sim::SimOptions{});
  const HostId hq = 17;
  ScheduleRemovals(&sim, hq, 40, 0.0, 40.0, 71);
  sim.Run();
  const std::vector<double> values = MixedValues(800, 71, 0.0);
  ExpectMatchesReference(sim, hq, 10.0, 30.0, values);
  ExpectMatchesReference(sim, hq, 0.0, 40.0, values);
}

TEST(OracleEquivalenceTest, RuntimeJoins) {
  // Joiners get the highest ids but attach to low ones, so the BFS meets
  // them out of id order; those joined before the interval can be in HC,
  // those joined during it only in HU.
  topology::Graph g = *topology::MakeGnutellaLike(300, 72);
  sim::Simulator sim(g, sim::SimOptions{});
  const HostId hq = 5;
  for (SimTime at : {2.0, 3.0, 12.0, 15.0}) {
    sim.ScheduleAt(at, [&sim, at] {
      for (HostId anchor : {0u, 1u, 7u, 40u}) {
        auto id = sim.AddHost({anchor, static_cast<HostId>(anchor + 100)});
        ASSERT_TRUE(id.ok());
        if (at > 10.0) {
          ASSERT_TRUE(sim.AddHost({*id}).ok());
        }
      }
    });
  }
  // After the last join, so every anchor is still alive to be joined.
  ScheduleRemovals(&sim, hq, 20, 16.0, 25.0, 72);
  sim.Run();
  ASSERT_EQ(sim.num_hosts(), 300u + 8u + 16u);
  const std::vector<double> values = MixedValues(sim.num_hosts(), 72, 0.0);
  ExpectMatchesReference(sim, hq, 5.0, 20.0, values);
}

TEST(OracleEquivalenceTest, QueryingHostCutOff) {
  // Every neighbour of hq fails inside the interval: HC = {hq}.
  topology::Graph g = *topology::MakeRandom(200, 4.0, 73);
  sim::Simulator sim(g, sim::SimOptions{});
  const HostId hq = 3;
  for (HostId v : sim.NeighborsOf(hq)) sim.ScheduleFailure(6.0, v);
  sim.Run();
  const std::vector<double> values = MixedValues(200, 73, 0.0);
  ASSERT_EQ(ComputeOracle(sim, hq, 5.0, 20.0, AggregateKind::kCount, values)
                .hc,
            std::vector<HostId>{hq});
  ExpectMatchesReference(sim, hq, 5.0, 20.0, values);
}

TEST(OracleEquivalenceTest, ImplicitGrid) {
  auto grid = topology::Topology::Grid(60);
  ASSERT_TRUE(grid.ok());
  sim::Simulator sim(*grid, sim::SimOptions{});
  const HostId hq = 60 * 30 + 30;
  ScheduleRemovals(&sim, hq, 300, 0.0, 30.0, 74);
  sim.Run();
  ExpectMatchesReference(sim, hq, 5.0, 25.0, MixedValues(3600, 74, 0.0));
}

TEST(OracleEquivalenceTest, NegativeValues) {
  topology::Graph g = *topology::MakeGnutellaLike(500, 75);
  sim::Simulator sim(g, sim::SimOptions{});
  const HostId hq = 0;
  ScheduleRemovals(&sim, hq, 60, 0.0, 30.0, 75);
  sim.Run();
  ExpectMatchesReference(sim, hq, 5.0, 25.0, MixedValues(500, 75, 0.4));
}

}  // namespace
}  // namespace validity::protocols
