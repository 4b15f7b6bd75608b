// SPANNINGTREE baseline tests: failure-free exactness, tree structure,
// early completion (Fig. 13a), subtree loss under failures, and the
// Theorem 4.4 arbitrarily-bad construction.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "protocols/oracle.h"
#include "protocols/level_convergecast.h"
#include "sim/churn.h"
#include "topology/algorithms.h"
#include "topology/generators.h"

namespace validity::protocols {
namespace {

QueryContext MakeContext(AggregateKind agg, const std::vector<double>* values,
                         double d_hat) {
  QueryContext ctx;
  ctx.aggregate = agg;
  ctx.combiner = CombinerFor(agg, /*exact=*/true);  // unused by the tree
  ctx.values = values;
  ctx.d_hat = d_hat;
  return ctx;
}

struct RunOutput {
  ProtocolRunResult result;
  uint64_t messages = 0;
};

RunOutput RunTree(const topology::Graph& g, AggregateKind agg,
                  const std::vector<double>& values, double d_hat, HostId hq,
                  const std::vector<sim::ChurnEvent>& churn = {},
                  sim::MediumKind medium = sim::MediumKind::kPointToPoint,
                  TreePacing pacing = TreePacing::kSlotted) {
  sim::SimOptions opts;
  opts.failure_detection = true;
  opts.medium = medium;
  sim::Simulator sim(g, opts);
  sim::ScheduleChurn(&sim, churn);
  SpanningTreeProtocol tree(&sim, MakeContext(agg, &values, d_hat),
                            SpanningTreeOptions{pacing});
  sim.AttachProgram(&tree);
  tree.Start(hq);
  sim.Run();
  return {tree.result(), sim.metrics().messages_sent()};
}

TEST(SpanningTreeTest, FailureFreeExactAllAggregates) {
  topology::Graph g = *topology::MakeRandom(400, 5.0, 31);
  std::vector<double> values = core::MakeZipfValues(400, 31);
  std::vector<HostId> all(400);
  for (HostId h = 0; h < 400; ++h) all[h] = h;
  for (AggregateKind agg :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAverage}) {
    RunOutput out = RunTree(g, agg, values, 12, 0);
    ASSERT_TRUE(out.result.declared);
    EXPECT_DOUBLE_EQ(out.result.value, ExactAggregate(agg, values, all))
        << AggregateKindName(agg);
  }
}

TEST(SpanningTreeTest, FailureFreeExactOnDeepGrid) {
  topology::Graph g = *topology::MakeGrid(20);  // depth up to 19
  std::vector<double> values(g.num_hosts(), 1.0);
  RunOutput out = RunTree(g, AggregateKind::kCount, values, 21, 0);
  ASSERT_TRUE(out.result.declared);
  EXPECT_DOUBLE_EQ(out.result.value, g.num_hosts());
}

TEST(SpanningTreeTest, TreeStructureIsValid) {
  topology::Graph g = *topology::MakeRandom(300, 5.0, 33);
  std::vector<double> values(300, 1.0);
  sim::SimOptions opts;
  opts.failure_detection = true;
  sim::Simulator sim(g, opts);
  SpanningTreeProtocol tree(&sim,
                            MakeContext(AggregateKind::kCount, &values, 12));
  sim.AttachProgram(&tree);
  tree.Start(5);
  sim.Run();
  auto dist = topology::BfsDistances(g, 5);
  EXPECT_EQ(tree.ParentOf(5), kInvalidHost);
  EXPECT_EQ(tree.DepthOf(5), 0);
  for (HostId h = 0; h < 300; ++h) {
    if (h == 5) continue;
    ASSERT_NE(tree.ParentOf(h), kInvalidHost) << h;
    // Tree depth equals BFS distance (broadcast explores in waves) and the
    // parent sits one level up.
    EXPECT_EQ(tree.DepthOf(h), dist[h]);
    EXPECT_EQ(tree.DepthOf(tree.ParentOf(h)), dist[h] - 1);
    EXPECT_TRUE(g.HasEdge(h, tree.ParentOf(h)));
  }
}

TEST(SpanningTreeTest, EagerPacingDeclaresBeforeWildfireHorizon) {
  // Fig. 13(a): SPANNINGTREE has the least latency. With eager completion
  // the root declares at about 2 * depth * delta, well before the
  // 2 * D-hat * delta horizon for D-hat >> D.
  topology::Graph g = *topology::MakeRandom(1000, 5.0, 34);
  std::vector<double> values(1000, 1.0);
  double d_hat = 30;  // deliberate overestimate (true diameter ~6)
  RunOutput out =
      RunTree(g, AggregateKind::kCount, values, d_hat, 0, {},
              sim::MediumKind::kPointToPoint, TreePacing::kEager);
  ASSERT_TRUE(out.result.declared);
  EXPECT_DOUBLE_EQ(out.result.value, 1000);
  EXPECT_LT(out.result.declared_at, 2 * d_hat);  // beat the horizon
  EXPECT_LT(out.result.declared_at, 25);
}

TEST(SpanningTreeTest, SlottedPacingInformationFlowEndsEarly) {
  // Slotted convergecast declares at the horizon, but the last causal
  // message chain (the §6.3 time-cost metric) ends when the final root
  // child's slot report arrives, 0.5 delta before the horizon.
  topology::Graph g = *topology::MakeRandom(1000, 5.0, 34);
  std::vector<double> values(1000, 1.0);
  double d_hat = 30;
  RunOutput out = RunTree(g, AggregateKind::kCount, values, d_hat, 0);
  ASSERT_TRUE(out.result.declared);
  EXPECT_DOUBLE_EQ(out.result.value, 1000);
  EXPECT_DOUBLE_EQ(out.result.declared_at, 2 * d_hat);
  EXPECT_DOUBLE_EQ(out.result.last_update_at, 2 * d_hat - 0.5);
}

TEST(SpanningTreeTest, SingleFailureDropsWholeSubtree) {
  // A chain rooted at 0: killing host 1 after broadcast loses hosts 2..n-1.
  topology::Graph g = *topology::MakeChain(10);
  std::vector<double> values(10, 1.0);
  std::vector<sim::ChurnEvent> churn{{9.25, 1}};  // after broadcast reaches 9
  RunOutput out = RunTree(g, AggregateKind::kCount, values, 11, 0, churn);
  ASSERT_TRUE(out.result.declared);
  EXPECT_DOUBLE_EQ(out.result.value, 1)
      << "only the root survives the cut: everything beyond host 1 is lost";
}

TEST(SpanningTreeTest, Theorem44ArbitrarilyBadOnCycleInstance) {
  // Cycle of 2n+2 with a tail; killing the root's longer-chain neighbor h1
  // after Broadcast loses at least half of HC.
  constexpr uint32_t n = 8;
  topology::Graph g = *topology::MakeTheorem44Instance(n);
  uint32_t hosts = g.num_hosts();  // 2n+3
  std::vector<double> values(hosts, 1.0);
  double d_hat = static_cast<double>(hosts);

  // Fail h1 right after the broadcast has swept the cycle.
  std::vector<sim::ChurnEvent> churn{{static_cast<double>(n + 2) + 0.25, 1}};
  sim::SimOptions opts;
  opts.failure_detection = true;
  sim::Simulator sim(g, opts);
  sim::ScheduleChurn(&sim, churn);
  SpanningTreeProtocol tree(&sim,
                            MakeContext(AggregateKind::kCount, &values, d_hat));
  sim.AttachProgram(&tree);
  tree.Start(0);
  sim.Run();

  OracleReport oracle = ComputeOracle(sim, 0, 0, 2 * d_hat,
                                      AggregateKind::kCount, values);
  ASSERT_TRUE(tree.result().declared);
  // h1 is the only failure, so HC = everyone else.
  EXPECT_EQ(oracle.hc.size(), hosts - 1);
  // Theorem 4.4: the returned count is at most |HC| / 2 + O(1) — the whole
  // longer chain hangs off h1.
  EXPECT_LE(tree.result().value, oracle.q_low / 2 + 2);
  EXPECT_FALSE(oracle.Contains(tree.result().value))
      << "the best-effort tree violates Single-Site Validity here";
}

TEST(SpanningTreeTest, WirelessGridUsesOneTransmissionPerHost) {
  topology::Graph g = *topology::MakeGrid(10);
  std::vector<double> values(g.num_hosts(), 1.0);
  RunOutput out = RunTree(g, AggregateKind::kCount, values, 11, 0, {},
                          sim::MediumKind::kWireless);
  ASSERT_TRUE(out.result.declared);
  EXPECT_DOUBLE_EQ(out.result.value, g.num_hosts());
  // Broadcast: one transmission per host; report: one per non-root host.
  EXPECT_LE(out.messages, 2ULL * g.num_hosts());
  EXPECT_GE(out.messages, 2ULL * g.num_hosts() - 2);
}

TEST(SpanningTreeTest, EagerChildFailureDetectedViaHeartbeatStillCompletes) {
  // A star under eager pacing: kill one leaf before it reports; the root
  // learns via heartbeat, stops waiting, and completes without it.
  topology::Graph g = *topology::MakeStar(6);
  std::vector<double> values(6, 1.0);
  std::vector<sim::ChurnEvent> churn{{1.25, 3}};  // dies before reporting
  RunOutput out = RunTree(g, AggregateKind::kCount, values, 4, 0, churn,
                          sim::MediumKind::kPointToPoint, TreePacing::kEager);
  ASSERT_TRUE(out.result.declared);
  EXPECT_DOUBLE_EQ(out.result.value, 5);  // everyone but the dead leaf
  EXPECT_LT(out.result.declared_at, 8);   // completed, not horizon-timed
}

TEST(SpanningTreeTest, SlottedIsMoreChurnFragileThanEager) {
  // The ablation behind the pacing default: holding data until the slot
  // (TAG-style, what the paper evaluates) exposes whole collected subtrees
  // to churn; eager completion drains data early and loses far less.
  // Root at the grid center; totals over several churn schedules.
  topology::Graph g = *topology::MakeGrid(18);
  HostId center = 9 * 18 + 9;
  std::vector<double> values(g.num_hosts(), 1.0);
  double slotted_total = 0;
  double eager_total = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng churn_rng(seed);
    auto churn = sim::MakeUniformChurn(g.num_hosts(), center, 30, 0.0,
                                       2.0 * 12, &churn_rng);
    RunOutput slotted =
        RunTree(g, AggregateKind::kCount, values, 12, center, churn);
    RunOutput eager =
        RunTree(g, AggregateKind::kCount, values, 12, center, churn,
                sim::MediumKind::kPointToPoint, TreePacing::kEager);
    ASSERT_TRUE(slotted.result.declared);
    ASSERT_TRUE(eager.result.declared);
    slotted_total += slotted.result.value;
    eager_total += eager.result.value;
  }
  EXPECT_LT(slotted_total, eager_total);
}

}  // namespace
}  // namespace validity::protocols
