// DIRECTEDACYCLICGRAPH baseline tests: structure (<= k parents, level
// discipline), failure-free exactness, and the redundancy benefit over the
// single-parent tree.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "protocols/level_convergecast.h"
#include "protocols/oracle.h"
#include "sim/churn.h"
#include "topology/algorithms.h"
#include "topology/generators.h"

namespace validity::protocols {
namespace {

QueryContext MakeContext(AggregateKind agg, const std::vector<double>* values,
                         double d_hat) {
  QueryContext ctx;
  ctx.aggregate = agg;
  ctx.combiner = CombinerFor(agg, /*exact=*/true);
  ctx.values = values;
  ctx.d_hat = d_hat;
  return ctx;
}

/// Diamond with a redundant middle: 0 - {1,2} - 3 (3 adjacent to both 1
/// and 2), plus a deeper host 4 under 3.
topology::Graph DiamondGraph() {
  topology::Graph g(5);
  EXPECT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 2).ok());
  EXPECT_TRUE(g.AddEdge(1, 3).ok());
  EXPECT_TRUE(g.AddEdge(2, 3).ok());
  EXPECT_TRUE(g.AddEdge(3, 4).ok());
  return g;
}

TEST(DagTest, FailureFreeExactCount) {
  topology::Graph g = *topology::MakeRandom(400, 5.0, 41);
  std::vector<double> values(400, 1.0);
  sim::SimOptions opts;
  opts.failure_detection = true;
  sim::Simulator sim(g, opts);
  DagOptions dopts;
  dopts.max_parents = 2;
  DagProtocol dag(&sim, MakeContext(AggregateKind::kCount, &values, 12),
                  dopts);
  sim.AttachProgram(&dag);
  dag.Start(0);
  sim.Run();
  ASSERT_TRUE(dag.result().declared);
  EXPECT_DOUBLE_EQ(dag.result().value, 400);
}

TEST(DagTest, ParentsRespectLevelAndCap) {
  topology::Graph g = *topology::MakeGrid(12);
  std::vector<double> values(g.num_hosts(), 1.0);
  for (uint32_t k : {1u, 2u, 3u}) {
    sim::SimOptions opts;
    opts.failure_detection = true;
    sim::Simulator sim(g, opts);
    DagOptions dopts;
    dopts.max_parents = k;
    DagProtocol dag(&sim, MakeContext(AggregateKind::kCount, &values, 13),
                    dopts);
    sim.AttachProgram(&dag);
    dag.Start(0);
    sim.Run();
    EXPECT_DOUBLE_EQ(dag.result().value, g.num_hosts());
    auto dist = topology::BfsDistances(g, 0);
    for (HostId h = 1; h < g.num_hosts(); ++h) {
      const auto& parents = dag.ParentsOf(h);
      ASSERT_GE(parents.size(), 1u);
      EXPECT_LE(parents.size(), k);
      EXPECT_EQ(dag.DepthOf(h), dist[h]);
      for (HostId p : parents) {
        EXPECT_EQ(dag.DepthOf(p), dist[h] - 1) << "level discipline";
        EXPECT_TRUE(g.HasEdge(h, p));
      }
    }
  }
}

TEST(DagTest, SurvivesSingleRelayFailureWhereTreeLoses) {
  // Kill host 1 after broadcast: host 3 reports to both 1 and 2 under DAG,
  // so its value (and host 4's) still reaches the root; the tree loses
  // whatever hung under host 1.
  topology::Graph g = DiamondGraph();
  std::vector<double> values(5, 1.0);
  std::vector<sim::ChurnEvent> churn{{4.4, 1}};

  auto run = [&](bool use_dag) {
    sim::SimOptions opts;
    opts.failure_detection = true;
    sim::Simulator sim(g, opts);
    sim::ScheduleChurn(&sim, churn);
    std::unique_ptr<ProtocolBase> proto;
    if (use_dag) {
      DagOptions dopts;
      dopts.max_parents = 2;
      proto = std::make_unique<DagProtocol>(
          &sim, MakeContext(AggregateKind::kCount, &values, 6), dopts);
    } else {
      proto = std::make_unique<SpanningTreeProtocol>(
          &sim, MakeContext(AggregateKind::kCount, &values, 6));
    }
    sim.AttachProgram(proto.get());
    proto->Start(0);
    sim.Run();
    EXPECT_TRUE(proto->result().declared);
    return proto->result().value;
  };

  double dag_value = run(true);
  double tree_value = run(false);
  EXPECT_DOUBLE_EQ(dag_value, 4) << "all survivors counted";
  EXPECT_LE(tree_value, dag_value);
}

TEST(DagTest, DuplicatePathsDoNotInflateTheCount) {
  // The whole point of using duplicate-insensitive combiners: host 3's
  // subtree reaches the root twice (via 1 and 2) yet counts once.
  topology::Graph g = DiamondGraph();
  std::vector<double> values(5, 1.0);
  sim::SimOptions opts;
  opts.failure_detection = true;
  sim::Simulator sim(g, opts);
  DagOptions dopts;
  dopts.max_parents = 2;
  DagProtocol dag(&sim, MakeContext(AggregateKind::kCount, &values, 6), dopts);
  sim.AttachProgram(&dag);
  dag.Start(0);
  sim.Run();
  EXPECT_DOUBLE_EQ(dag.result().value, 5);
}

TEST(DagTest, HigherKSendsMoreReports) {
  topology::Graph g = *topology::MakeGrid(10);
  std::vector<double> values(g.num_hosts(), 1.0);
  uint64_t msgs_k1 = 0;
  uint64_t msgs_k3 = 0;
  for (uint32_t k : {1u, 3u}) {
    sim::SimOptions opts;
    opts.failure_detection = true;
    sim::Simulator sim(g, opts);
    DagOptions dopts;
    dopts.max_parents = k;
    DagProtocol dag(&sim, MakeContext(AggregateKind::kCount, &values, 11),
                    dopts);
    sim.AttachProgram(&dag);
    dag.Start(0);
    sim.Run();
    (k == 1 ? msgs_k1 : msgs_k3) = sim.metrics().messages_sent();
  }
  EXPECT_GT(msgs_k3, msgs_k1);
}

TEST(DagTest, WirelessReportCostIndependentOfK) {
  // Paper §6.6 (Fig. 11): on the broadcast medium, reporting to k parents
  // costs one transmission regardless of k.
  topology::Graph g = *topology::MakeGrid(10);
  std::vector<double> values(g.num_hosts(), 1.0);
  uint64_t msgs_k1 = 0;
  uint64_t msgs_k3 = 0;
  for (uint32_t k : {1u, 3u}) {
    sim::SimOptions opts;
    opts.failure_detection = true;
    opts.medium = sim::MediumKind::kWireless;
    sim::Simulator sim(g, opts);
    DagOptions dopts;
    dopts.max_parents = k;
    DagProtocol dag(&sim, MakeContext(AggregateKind::kCount, &values, 11),
                    dopts);
    sim.AttachProgram(&dag);
    dag.Start(0);
    sim.Run();
    EXPECT_DOUBLE_EQ(dag.result().value, g.num_hosts());
    (k == 1 ? msgs_k1 : msgs_k3) = sim.metrics().messages_sent();
  }
  EXPECT_EQ(msgs_k1, msgs_k3);
}

TEST(DagTest, OneParentDagIsTheSpanningTree) {
  // With k = 1 the DAG adopts exactly the tree's parent (the sender of the
  // first query copy) and reports along the same edges at the same slots:
  // only the partial differs (a duplicate-insensitive combiner instead of
  // a duplicate-sensitive scalar). Both pacings, both media, and a few
  // mid-query failures so that eager heartbeat pruning runs too.
  topology::Graph g = *topology::MakeRandom(300, 5.0, 23);
  std::vector<double> values(g.num_hosts(), 1.0);
  std::vector<sim::ChurnEvent> churn{{3.5, 17}, {6.5, 41}, {9.5, 88}};
  for (auto medium : {sim::MediumKind::kPointToPoint,
                      sim::MediumKind::kWireless}) {
    for (auto pacing : {TreePacing::kSlotted, TreePacing::kEager}) {
      SCOPED_TRACE(testing::Message()
                   << "wireless=" << (medium == sim::MediumKind::kWireless)
                   << " eager=" << (pacing == TreePacing::kEager));
      sim::SimOptions opts;
      opts.failure_detection = true;
      opts.medium = medium;
      sim::Simulator tree_sim(g, opts);
      sim::ScheduleChurn(&tree_sim, churn);
      SpanningTreeProtocol tree(
          &tree_sim, MakeContext(AggregateKind::kCount, &values, 12),
          SpanningTreeOptions{pacing});
      tree_sim.AttachProgram(&tree);
      tree.Start(0);
      tree_sim.Run();

      sim::Simulator dag_sim(g, opts);
      sim::ScheduleChurn(&dag_sim, churn);
      DagOptions dopts;
      dopts.max_parents = 1;
      dopts.pacing = pacing;
      DagProtocol dag(&dag_sim,
                      MakeContext(AggregateKind::kCount, &values, 12), dopts);
      dag_sim.AttachProgram(&dag);
      dag.Start(0);
      dag_sim.Run();

      for (HostId h = 0; h < g.num_hosts(); ++h) {
        ASSERT_EQ(dag.DepthOf(h), tree.DepthOf(h)) << "host " << h;
        const auto& parents = dag.ParentsOf(h);
        if (tree.ParentOf(h) == kInvalidHost) {
          EXPECT_TRUE(parents.empty()) << "host " << h;
        } else {
          ASSERT_EQ(parents.size(), 1u) << "host " << h;
          EXPECT_EQ(parents[0], tree.ParentOf(h)) << "host " << h;
        }
      }
      EXPECT_EQ(dag_sim.metrics().messages_sent(),
                tree_sim.metrics().messages_sent());
      ASSERT_TRUE(tree.result().declared);
      ASSERT_TRUE(dag.result().declared);
      EXPECT_EQ(dag.result().declared_at, tree.result().declared_at);
      EXPECT_EQ(dag.result().value, tree.result().value);
    }
  }
}

}  // namespace
}  // namespace validity::protocols
