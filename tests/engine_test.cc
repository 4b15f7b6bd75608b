// QueryEngine public-API tests: end-to-end runs for every protocol, cost
// and validity reporting, error paths, determinism, and workload helpers.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "core/engine.h"
#include "core/experiment.h"
#include "core/query_service.h"
#include "sim/session.h"
#include "topology/generators.h"

namespace validity::core {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : graph_(*topology::MakeGnutellaLike(800, 91)),
        engine_(&graph_, MakeZipfValues(800, 91)) {}

  topology::Graph graph_;
  QueryEngine engine_;
};

TEST_F(EngineTest, AllProtocolsAnswerFailureFreeCount) {
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.exact_combiners = true;  // isolate protocol behaviour
  for (auto kind : {protocols::ProtocolKind::kAllReport,
                    protocols::ProtocolKind::kSpanningTree,
                    protocols::ProtocolKind::kDag,
                    protocols::ProtocolKind::kWildfire}) {
    RunConfig config;
    config.protocol = kind;
    auto result = engine_.Run(spec, config, 0);
    ASSERT_TRUE(result.ok()) << protocols::ProtocolKindName(kind);
    EXPECT_TRUE(result->declared);
    EXPECT_DOUBLE_EQ(result->value, 800) << protocols::ProtocolKindName(kind);
    EXPECT_TRUE(result->validity.within);
    EXPECT_GT(result->cost.messages, 0u);
    EXPECT_GT(result->cost.declared_at, 0.0);
    EXPECT_EQ(result->validity.hc_size, 800u);
    EXPECT_EQ(result->validity.hu_size, 800u);
  }
}

TEST_F(EngineTest, FmWildfireCountIsApproximatelyRight) {
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.fm_vectors = 32;
  RunConfig config;
  auto result = engine_.Run(spec, config, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->value / 800.0, 1.0, 0.6);
  EXPECT_TRUE(result->validity.within_slack);
}

TEST_F(EngineTest, DeterministicGivenSeeds) {
  QuerySpec spec;
  spec.aggregate = AggregateKind::kSum;
  RunConfig config;
  config.churn_removals = 100;
  config.churn_seed = 7;
  config.sketch_seed = 9;
  auto a = engine_.Run(spec, config, 0);
  auto b = engine_.Run(spec, config, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->value, b->value);
  EXPECT_EQ(a->cost.messages, b->cost.messages);
  EXPECT_EQ(a->validity.hc_size, b->validity.hc_size);
  config.churn_seed = 8;
  auto c = engine_.Run(spec, config, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->validity.hc_size, c->validity.hc_size);
}

TEST_F(EngineTest, DHatDefaultsToDiameterPlusMargin) {
  QuerySpec spec;
  auto result = engine_.Run(spec, RunConfig{}, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->d_hat_used,
                   engine_.EstimatedDiameter() + kDefaultDiameterMargin);
  spec.d_hat = 30;
  auto manual = engine_.Run(spec, RunConfig{}, 0);
  ASSERT_TRUE(manual.ok());
  EXPECT_DOUBLE_EQ(manual->d_hat_used, 30);
  EXPECT_DOUBLE_EQ(manual->cost.declared_at, 60);
}

TEST_F(EngineTest, ErrorPaths) {
  QuerySpec spec;
  EXPECT_EQ(engine_.Run(spec, RunConfig{}, 5000).status().code(),
            StatusCode::kOutOfRange);
  spec.fm_vectors = 0;
  EXPECT_EQ(engine_.Run(spec, RunConfig{}, 0).status().code(),
            StatusCode::kInvalidArgument);
  spec.fm_vectors = 8;
  RunConfig config;
  config.churn_removals = 800;
  EXPECT_EQ(engine_.Run(spec, config, 0).status().code(),
            StatusCode::kInvalidArgument);
  config.churn_removals = 0;
  config.protocol = protocols::ProtocolKind::kRandomizedReport;
  spec.aggregate = AggregateKind::kMin;
  EXPECT_EQ(engine_.Run(spec, config, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EngineTest, EveryEntryPointRejectsBadRandomizedOptionsByName) {
  // Bad sampling options used to pass admission and then abort inside the
  // protocol; every entry point must return InvalidArgument naming the
  // field instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Bad {
    const char* field;
    double epsilon, zeta, n_estimate;
  };
  const Bad cases[] = {{"epsilon", 0.0, 0.05, 1000},
                       {"epsilon", nan, 0.05, 1000},
                       {"zeta", 0.1, nan, 1000},
                       {"n_estimate", 0.1, 0.05, nan}};
  for (const Bad& bad : cases) {
    RunConfig config;
    config.protocol = protocols::ProtocolKind::kRandomizedReport;
    config.protocol_options.randomized.epsilon = bad.epsilon;
    config.protocol_options.randomized.zeta = bad.zeta;
    config.protocol_options.randomized.n_estimate = bad.n_estimate;
    const std::string field = bad.field;
    auto expect_rejected = [field](const Status& status, const char* path) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << path;
      EXPECT_NE(status.message().find(field), std::string::npos)
          << path << ": " << status.message();
    };
    expect_rejected(engine_.Run(QuerySpec{}, config, 0).status(), "fresh");
    sim::SimulatorSession session(&graph_, sim::SimOptions{});
    expect_rejected(engine_.Run(&session, QuerySpec{}, config, 0).status(),
                    "session");
    QueryService service(&engine_, ServiceOptionsFor(QuerySpec{}, config, 0));
    expect_rejected(service.Submit(0.0, QuerySpec{}, config, 0).status(),
                    "service");
  }
}

TEST_F(EngineTest, ChurnShrinksOracleLowerBound) {
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.exact_combiners = true;
  RunConfig config;
  config.churn_removals = 200;
  auto result = engine_.Run(spec, config, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->validity.hc_size, 800u);
  EXPECT_EQ(result->validity.hu_size, 800u);
  EXPECT_TRUE(result->validity.within)
      << "wildfire with exact combiners must remain valid";
  EXPECT_LE(result->validity.q_low, result->value);
}

TEST_F(EngineTest, ExactFullMatchesWorkload) {
  QuerySpec spec;
  spec.aggregate = AggregateKind::kSum;
  auto result = engine_.Run(spec, RunConfig{}, 0);
  ASSERT_TRUE(result.ok());
  double sum = 0;
  for (double v : engine_.values()) sum += v;
  EXPECT_DOUBLE_EQ(result->exact_full, sum);
}

TEST(MakeZipfValuesTest, RangeAndDeterminism) {
  auto a = MakeZipfValues(1000, 5);
  auto b = MakeZipfValues(1000, 5);
  EXPECT_EQ(a, b);
  for (double v : a) {
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 500);
    EXPECT_EQ(v, std::floor(v));
  }
}

TEST(ExperimentTest, StandardLineupShape) {
  auto lineup = StandardLineup();
  ASSERT_EQ(lineup.size(), 4u);
  EXPECT_EQ(lineup[0].label, "spanning-tree");
  EXPECT_EQ(lineup[1].options.dag.max_parents, 2u);
  EXPECT_EQ(lineup[2].options.dag.max_parents, 3u);
  EXPECT_EQ(lineup[3].label, "wildfire");
}

TEST(ExperimentTest, ChurnSweepProducesConsistentCells) {
  topology::Graph g = *topology::MakeGnutellaLike(600, 92);
  QueryEngine engine(&g, MakeZipfValues(600, 92));
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  spec.exact_combiners = true;
  ChurnSweepOptions opts;
  opts.trials = 3;
  auto cells = RunChurnSweep(engine, spec, 0, StandardLineup(), {0, 150},
                             opts);
  ASSERT_EQ(cells.size(), 8u);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.value.n, 3u);
    if (cell.removals == 0) {
      EXPECT_DOUBLE_EQ(cell.value.mean, 600);
      EXPECT_DOUBLE_EQ(cell.within_fraction, 1.0);
    } else {
      EXPECT_LE(cell.value.mean, 600);
      EXPECT_GT(cell.oracle_high.mean, cell.oracle_low.mean);
    }
    if (cell.protocol == "wildfire") {
      EXPECT_DOUBLE_EQ(cell.within_fraction, 1.0)
          << "wildfire (exact combiners) is valid at R=" << cell.removals;
    }
  }
  // Wildfire pays more messages than the tree (the price of validity).
  double tree_msgs = 0;
  double wf_msgs = 0;
  for (const auto& cell : cells) {
    if (cell.removals != 0) continue;
    if (cell.protocol == "spanning-tree") tree_msgs = cell.messages.mean;
    if (cell.protocol == "wildfire") wf_msgs = cell.messages.mean;
  }
  EXPECT_GT(wf_msgs, tree_msgs);
}

}  // namespace
}  // namespace validity::core
