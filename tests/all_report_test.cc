// Tests of the flood-and-report core (protocols/flood_report.h) under both
// of its policies: ALLREPORT's Theorem 4.3 construction (direct delivery
// always satisfies SSV) and reverse-path relaying, RANDOMIZEDREPORT's §4.3
// sampling estimator, and the pin that sampling at p = 1 is direct
// ALLREPORT.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "protocols/flood_report.h"
#include "protocols/oracle.h"
#include "sim/churn.h"
#include "topology/generators.h"

namespace validity::protocols {
namespace {

QueryContext MakeContext(AggregateKind agg, const std::vector<double>* values,
                         double d_hat) {
  QueryContext ctx;
  ctx.aggregate = agg;
  ctx.values = values;
  ctx.d_hat = d_hat;
  return ctx;
}

TEST(AllReportTest, FailureFreeExactBothRoutings) {
  topology::Graph g = *topology::MakeRandom(300, 5.0, 51);
  std::vector<double> values = core::MakeZipfValues(300, 51);
  std::vector<HostId> all(300);
  for (HostId h = 0; h < 300; ++h) all[h] = h;
  for (ReportRouting routing :
       {ReportRouting::kDirect, ReportRouting::kReversePath}) {
    for (AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum,
                              AggregateKind::kMin, AggregateKind::kAverage}) {
      sim::Simulator sim(g, sim::SimOptions{});
      AllReportOptions opts;
      opts.routing = routing;
      AllReportProtocol proto(&sim, MakeContext(agg, &values, 10), opts);
      sim.AttachProgram(&proto);
      proto.Start(0);
      sim.Run();
      ASSERT_TRUE(proto.result().declared);
      EXPECT_DOUBLE_EQ(proto.result().value, ExactAggregate(agg, values, all))
          << AggregateKindName(agg) << " routing "
          << static_cast<int>(routing);
      EXPECT_EQ(proto.reports_collected(), 300u);
    }
  }
}

TEST(AllReportTest, DirectDeliverySatisfiesSsvUnderChurn) {
  // The Theorem 4.3 argument: every host in HC receives the flood along its
  // stable path and its direct report cannot be lost.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    topology::Graph g = *topology::MakeGnutellaLike(500, seed);
    std::vector<double> values = core::MakeZipfValues(500, seed);
    double d_hat = 14;
    sim::Simulator sim(g, sim::SimOptions{});
    Rng churn_rng(seed);
    sim::ScheduleChurn(
        &sim, sim::MakeUniformChurn(500, 0, 150, 0.0, 2 * d_hat, &churn_rng));
    AllReportProtocol proto(
        &sim, MakeContext(AggregateKind::kCount, &values, d_hat),
        AllReportOptions{ReportRouting::kDirect});
    sim.AttachProgram(&proto);
    proto.Start(0);
    sim.Run();
    OracleReport oracle =
        ComputeOracle(sim, 0, 0, 2 * d_hat, AggregateKind::kCount, values);
    ASSERT_TRUE(proto.result().declared);
    EXPECT_TRUE(oracle.Contains(proto.result().value))
        << "seed " << seed << " value " << proto.result().value << " in ["
        << oracle.q_low << "," << oracle.q_high << "]";
  }
}

TEST(AllReportTest, ReversePathCostsScaleWithDepth) {
  // On a chain, host at depth d pays d messages to relay its report:
  // total = sum d = n(n-1)/2, plus the n-1 broadcast forwards ... the
  // quadratic term is what makes Direct Delivery expensive (paper §4.4).
  constexpr uint32_t n = 20;
  topology::Graph g = *topology::MakeChain(n);
  std::vector<double> values(n, 1.0);
  sim::Simulator sim(g, sim::SimOptions{});
  AllReportProtocol proto(
      &sim, MakeContext(AggregateKind::kCount, &values, n + 1),
      AllReportOptions{ReportRouting::kReversePath});
  sim.AttachProgram(&proto);
  proto.Start(0);
  sim.Run();
  EXPECT_DOUBLE_EQ(proto.result().value, n);
  // Chain flood: end hosts send 1 forward, interior hosts 2 (every host
  // forwards to all neighbors) = 2n - 2 messages.
  uint64_t broadcast_msgs = 2 * n - 2;
  uint64_t report_msgs = n * (n - 1) / 2;  // host at depth d relays d hops
  EXPECT_EQ(sim.metrics().messages_sent(), broadcast_msgs + report_msgs);
}

TEST(AllReportTest, DirectCostsLinearInHosts) {
  constexpr uint32_t n = 20;
  topology::Graph g = *topology::MakeChain(n);
  std::vector<double> values(n, 1.0);
  sim::Simulator sim(g, sim::SimOptions{});
  AllReportProtocol proto(&sim,
                          MakeContext(AggregateKind::kCount, &values, n + 1),
                          AllReportOptions{ReportRouting::kDirect});
  sim.AttachProgram(&proto);
  proto.Start(0);
  sim.Run();
  uint64_t broadcast_msgs = 2 * n - 2;
  EXPECT_EQ(sim.metrics().messages_sent(), broadcast_msgs + (n - 1));
}

TEST(RandomizedReportTest, DerivesChernoffProbability) {
  topology::Graph g = *topology::MakeRandom(1000, 5.0, 53);
  std::vector<double> values(1000, 1.0);
  sim::Simulator sim(g, sim::SimOptions{});
  RandomizedReportOptions opts;
  opts.epsilon = 0.2;
  opts.zeta = 0.1;
  opts.n_estimate = 1000;
  RandomizedReportProtocol proto(
      &sim, MakeContext(AggregateKind::kCount, &values, 10), opts);
  double expected_p = 4.0 / (0.2 * 0.2 * 1000) * std::log(2.0 / 0.1);
  EXPECT_NEAR(proto.report_probability(), expected_p, 1e-12);
}

TEST(RandomizedReportTest, EstimatesCountWithinEpsilonBand) {
  // eps = 0.3, zeta = 0.05: p ~ 0.164 at n = 1000; the estimate must land
  // within the (loose) 2*eps band around n with overwhelming probability.
  topology::Graph g = *topology::MakeRandom(1000, 5.0, 54);
  std::vector<double> values(1000, 1.0);
  sim::Simulator sim(g, sim::SimOptions{});
  RandomizedReportOptions opts;
  opts.epsilon = 0.3;
  opts.zeta = 0.05;
  opts.n_estimate = 1000;
  opts.coin_seed = 4242;
  RandomizedReportProtocol proto(
      &sim, MakeContext(AggregateKind::kCount, &values, 10), opts);
  sim.AttachProgram(&proto);
  proto.Start(0);
  sim.Run();
  ASSERT_TRUE(proto.result().declared);
  EXPECT_NEAR(proto.result().value, 1000, 2 * 0.3 * 1000);
  // Sampling saves messages: ~p*n reports instead of n.
  EXPECT_LT(proto.reports_collected(), 400u);
}

TEST(RandomizedReportTest, SumEstimateScalesSampleSum) {
  topology::Graph g = *topology::MakeRandom(2000, 5.0, 55);
  std::vector<double> values = core::MakeZipfValues(2000, 55);
  double truth = 0;
  for (double v : values) truth += v;
  sim::Simulator sim(g, sim::SimOptions{});
  RandomizedReportOptions opts;
  opts.p_override = 0.25;
  RandomizedReportProtocol proto(
      &sim, MakeContext(AggregateKind::kSum, &values, 10), opts);
  sim.AttachProgram(&proto);
  proto.Start(0);
  sim.Run();
  ASSERT_TRUE(proto.result().declared);
  EXPECT_NEAR(proto.result().value / truth, 1.0, 0.35);
}

TEST(RandomizedReportTest, RejectsNonCountAggregates) {
  topology::Graph g = *topology::MakeChain(3);
  std::vector<double> values(3, 1.0);
  sim::Simulator sim(g, sim::SimOptions{});
  EXPECT_DEATH(
      {
        RandomizedReportProtocol proto(
            &sim, MakeContext(AggregateKind::kMin, &values, 4),
            RandomizedReportOptions{});
      },
      "count");
}

TEST(FloodReportTest, SampledAtPOneIsDirectAllReport) {
  // At p = 1 every host's coin lands heads, so RANDOMIZEDREPORT floods and
  // reports exactly like direct ALL-REPORT: the same value, the same
  // declaration time and the same message count. Only the wire sizes
  // differ: the sampled broadcast carries p (12 bytes instead of 4) and
  // its report drops the origin (8 bytes instead of 12).
  topology::Graph g = *topology::MakeGnutellaLike(400, 31);
  std::vector<double> values = core::MakeZipfValues(400, 31);
  constexpr double kDHat = 14;
  Rng churn_rng(31);
  const std::vector<sim::ChurnEvent> churn =
      sim::MakeUniformChurn(400, 0, 60, 0.0, 2 * kDHat, &churn_rng);
  for (AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum}) {
    SCOPED_TRACE(AggregateKindName(agg));
    sim::Simulator all_sim(g, sim::SimOptions{});
    sim::ScheduleChurn(&all_sim, churn);
    AllReportProtocol all(&all_sim, MakeContext(agg, &values, kDHat),
                          AllReportOptions{ReportRouting::kDirect});
    all_sim.AttachProgram(&all);
    all.Start(0);
    all_sim.Run();

    sim::Simulator sampled_sim(g, sim::SimOptions{});
    sim::ScheduleChurn(&sampled_sim, churn);
    RandomizedReportOptions opts;
    opts.p_override = 1.0;
    RandomizedReportProtocol sampled(
        &sampled_sim, MakeContext(agg, &values, kDHat), opts);
    sampled_sim.AttachProgram(&sampled);
    sampled.Start(0);
    sampled_sim.Run();

    ASSERT_TRUE(all.result().declared);
    ASSERT_TRUE(sampled.result().declared);
    EXPECT_EQ(sampled.result().value, all.result().value);
    EXPECT_EQ(sampled.result().declared_at, all.result().declared_at);
    EXPECT_EQ(sampled_sim.metrics().messages_sent(),
              all_sim.metrics().messages_sent());
    EXPECT_EQ(sampled.reports_collected(), all.reports_collected());
    // Every message costs a 16-byte header plus its payload. ALL-REPORT's
    // traffic is B 4-byte broadcasts plus R 12-byte reports; solve for B
    // and R, then price the same traffic at 12 and 8 payload bytes.
    const uint64_t messages = all_sim.metrics().messages_sent();
    const uint64_t all_bytes = all_sim.metrics().bytes_sent();
    ASSERT_EQ((all_bytes - 20 * messages) % 8, 0u);
    const uint64_t reports = (all_bytes - 20 * messages) / 8;
    const uint64_t broadcasts = messages - reports;
    ASSERT_GT(reports, 100u);
    EXPECT_EQ(sampled_sim.metrics().bytes_sent(),
              all_bytes + 8 * broadcasts - 4 * reports);
  }
}

}  // namespace
}  // namespace validity::protocols
