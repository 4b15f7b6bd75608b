// SimulatorSession correctness: the session/determinism contract
// (docs/SESSIONS.md).
//
//  (a) The reference column (the protocol run directly on a simulator),
//      fresh-construction QueryEngine::Run, session-reusing Run, and a
//      QueryService submission produce field-for-field identical
//      QueryResults across a 34-case (spec, config, hq) fingerprint matrix
//      covering every protocol, both combiner families, churn, option
//      ablations, and both media — with every session case running on a
//      simulator warmed (and dirtied) by all previous cases, and no traffic
//      outliving its lane.
//  (b) Concurrent queries sharing one session each match their solo runs
//      bit-for-bit, including their per-lane cost metrics.
//  (c) ResidentStateBytes returns to a touched-proportional baseline after
//      a session reset (epoch reuse does not accumulate resident state).
//  Plus simulator-level reset coverage: failures, runtime joins, and
//  pending events are all rewound in O(touched).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/query_service.h"
#include "fingerprint_matrix.h"
#include "sim/session.h"
#include "topology/generators.h"

namespace validity::core {
namespace {

using protocols::ProtocolKind;

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : graph_(*topology::MakeGnutellaLike(500, 91)),
        engine_(&graph_, MakeZipfValues(500, 91)) {}

  topology::Graph graph_;
  QueryEngine engine_;
};

TEST_F(SessionTest, FreshAndReusedRunsAreBitIdenticalAcrossTheMatrix) {
  std::vector<Case> cases = FingerprintMatrix();
  ASSERT_EQ(cases.size(), 34u);
  // One session per structural sim-option set (here: per medium), so every
  // case after the first runs on a simulator the previous cases dirtied.
  // The service column borrows a second session the same way: each case's
  // QueryService runs on a timeline warmed (and dirtied) by all previous
  // service cases.
  std::map<int, std::unique_ptr<sim::SimulatorSession>> sessions;
  std::map<int, std::unique_ptr<sim::SimulatorSession>> service_sessions;
  for (const Case& c : cases) {
    const QueryResult reference = ReferenceRun(engine_, c.spec, c.config, c.hq);
    auto fresh = engine_.Run(c.spec, c.config, c.hq);
    ASSERT_TRUE(fresh.ok()) << c.label;
    ExpectIdentical(reference, *fresh, c.label);
    const int medium = static_cast<int>(c.config.sim_options.medium);
    auto& session = sessions[medium];
    if (session == nullptr) {
      session = std::make_unique<sim::SimulatorSession>(&graph_,
                                                        c.config.sim_options);
    }
    auto reused = engine_.Run(session.get(), c.spec, c.config, c.hq);
    ASSERT_TRUE(reused.ok()) << c.label;
    ExpectIdentical(reference, *reused, c.label);
    EXPECT_EQ(session->simulator().unrouted_events(), 0u) << c.label;

    // The service column: the open query-arrival service. Submitted at t=0
    // on a service timeline configured from the query's own config.
    auto& service_session = service_sessions[medium];
    if (service_session == nullptr) {
      service_session = std::make_unique<sim::SimulatorSession>(
          &graph_, c.config.sim_options);
    }
    QueryService service(&engine_, service_session.get(),
                         ServiceOptionsFor(c.spec, c.config, c.hq));
    auto id = service.Submit(0.0, c.spec, c.config, c.hq);
    ASSERT_TRUE(id.ok()) << c.label << ": " << id.status().message();
    service.Drain();
    QueryService::Completion done;
    ASSERT_TRUE(service.Poll(&done)) << c.label;
    ExpectIdentical(reference, done.result, c.label);
    EXPECT_EQ(service.session().simulator().unrouted_events(), 0u) << c.label;
  }
  // The point-to-point sessions served the bulk of the matrix on one
  // simulator build each.
  EXPECT_GT(sessions[0]->epoch(), 25u);
  EXPECT_GT(service_sessions[0]->epoch(), 25u);
}

TEST_F(SessionTest, ConcurrentQueriesMatchTheirSoloRuns) {
  // Two protocols, two aggregates, two querying hosts — one shared,
  // failure-free timeline.
  std::vector<QueryEngine::ConcurrentQuery> queries(3);
  queries[0].spec.aggregate = AggregateKind::kCount;
  queries[0].config.protocol = ProtocolKind::kWildfire;
  queries[0].hq = 0;
  queries[1].spec.aggregate = AggregateKind::kSum;
  queries[1].spec.exact_combiners = true;
  queries[1].config.protocol = ProtocolKind::kSpanningTree;
  queries[1].hq = 13;
  queries[2].spec.aggregate = AggregateKind::kMax;
  queries[2].config.protocol = ProtocolKind::kWildfire;
  queries[2].config.sketch_seed = 5;
  queries[2].hq = 42;

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  auto concurrent = engine_.RunConcurrent(&session, queries);
  ASSERT_TRUE(concurrent.ok());
  ASSERT_EQ(concurrent->size(), 3u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = engine_.Run(queries[i].spec, queries[i].config, queries[i].hq);
    ASSERT_TRUE(solo.ok());
    ExpectIdentical(*solo, (*concurrent)[i], "concurrent-vs-solo");
  }
}

TEST_F(SessionTest, ChurnedConcurrentQueriesMatchTheirSoloRuns) {
  // Same hq and D-hat (required: the churn window and the protected host
  // derive from them), different protocols and sketch seeds.
  std::vector<QueryEngine::ConcurrentQuery> queries(2);
  for (auto& q : queries) {
    q.spec.aggregate = AggregateKind::kCount;
    q.config.churn_removals = 120;
    q.config.churn_seed = 9;
    q.hq = 0;
  }
  queries[0].config.protocol = ProtocolKind::kWildfire;
  queries[0].config.sketch_seed = 21;
  queries[1].config.protocol = ProtocolKind::kDag;
  queries[1].config.sketch_seed = 22;

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  auto concurrent = engine_.RunConcurrent(&session, queries);
  ASSERT_TRUE(concurrent.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = engine_.Run(queries[i].spec, queries[i].config, queries[i].hq);
    ASSERT_TRUE(solo.ok());
    ExpectIdentical(*solo, (*concurrent)[i], "churned-concurrent-vs-solo");
  }
}

TEST_F(SessionTest, StaggeredConcurrentQueriesMatchTheirSoloRuns) {
  // Queries issued at distinct mid-timeline times on one session — the
  // continuous-query shape. Each staggered query must be bit-identical to
  // running it alone at the same start time on the same session, and a
  // start_at of 0 must remain bit-identical to the plain (t=0) solo path.
  std::vector<QueryEngine::ConcurrentQuery> queries(3);
  queries[0].spec.aggregate = AggregateKind::kCount;
  queries[0].config.protocol = ProtocolKind::kWildfire;
  queries[0].hq = 0;
  queries[0].start_at = 0.0;
  queries[1].spec.aggregate = AggregateKind::kSum;
  queries[1].spec.exact_combiners = true;
  queries[1].config.protocol = ProtocolKind::kSpanningTree;
  queries[1].hq = 13;
  queries[1].start_at = 5.0;
  queries[2].spec.aggregate = AggregateKind::kMax;
  queries[2].config.protocol = ProtocolKind::kWildfire;
  queries[2].config.sketch_seed = 5;
  queries[2].hq = 42;
  queries[2].start_at = 11.5;  // fractional: staggered off the tick comb

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  auto staggered = engine_.RunConcurrent(&session, queries);
  ASSERT_TRUE(staggered.ok());
  ASSERT_EQ(staggered->size(), 3u);

  // Solo reference: each query alone, at its own start time, on a session
  // of its own.
  for (size_t i = 0; i < queries.size(); ++i) {
    sim::SimulatorSession solo_session(&graph_, sim::SimOptions{});
    auto solo = engine_.RunConcurrent(
        &solo_session, {queries[i]});
    ASSERT_TRUE(solo.ok());
    ASSERT_EQ(solo->size(), 1u);
    ExpectIdentical((*solo)[0], (*staggered)[i], "staggered-vs-solo");
  }

  // The t=0 lane also matches the classic single-query entry point.
  auto plain = engine_.Run(queries[0].spec, queries[0].config, queries[0].hq);
  ASSERT_TRUE(plain.ok());
  ExpectIdentical(*plain, (*staggered)[0], "staggered-t0-vs-plain");

  // A staggered query's timing anchors at its start: the mid-timeline sum
  // query declared after (not at) its issue instant.
  EXPECT_GT((*staggered)[1].cost.declared_at, queries[1].start_at);

  // Invalid start times are rejected.
  queries[2].start_at = -1.0;
  EXPECT_EQ(engine_.RunConcurrent(&session, queries).status().code(),
            StatusCode::kInvalidArgument);
  queries[2].start_at = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine_.RunConcurrent(&session, queries).status().code(),
            StatusCode::kInvalidArgument);
  queries[2].start_at = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine_.RunConcurrent(&session, queries).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, StaggeredChurnedQueryObservesItsOwnValidityWindow) {
  // Churn removes hosts inside the first query's window; a second query
  // staggered past the churn tail must still match its solo run — its
  // oracle interval anchors at its own start, when the failures have
  // already happened.
  std::vector<QueryEngine::ConcurrentQuery> queries(2);
  for (auto& q : queries) {
    q.spec.aggregate = AggregateKind::kCount;
    q.config.churn_removals = 80;
    q.config.churn_seed = 9;
    q.hq = 0;
  }
  queries[0].config.protocol = ProtocolKind::kWildfire;
  queries[0].config.sketch_seed = 21;
  queries[1].config.protocol = ProtocolKind::kWildfire;
  queries[1].config.sketch_seed = 22;
  queries[1].start_at = 4.0;

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  auto staggered = engine_.RunConcurrent(&session, queries);
  ASSERT_TRUE(staggered.ok());
  sim::SimulatorSession solo_session(&graph_, sim::SimOptions{});
  auto solo = engine_.RunConcurrent(&solo_session, {queries[1]});
  ASSERT_TRUE(solo.ok());
  ExpectIdentical((*solo)[0], (*staggered)[1], "staggered-churned-vs-solo");
  // Hosts churned out before the late query started are outside its HU.
  EXPECT_LT((*staggered)[1].validity.hu_size,
            (*staggered)[0].validity.hu_size);
}

TEST_F(SessionTest, ConcurrentRequiresASharedTimeline) {
  std::vector<QueryEngine::ConcurrentQuery> queries(2);
  queries[0].config.churn_removals = 50;
  queries[1].config.churn_removals = 60;  // different schedule: rejected
  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  EXPECT_EQ(engine_.RunConcurrent(&session, queries).status().code(),
            StatusCode::kInvalidArgument);
  // Different hq under churn: the protected host would differ.
  queries[1].config.churn_removals = 50;
  queries[1].hq = 3;
  EXPECT_EQ(engine_.RunConcurrent(&session, queries).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SessionTest, SessionRejectsMismatchedGraphAndOptions) {
  topology::Graph other = *topology::MakeGnutellaLike(200, 17);
  sim::SimulatorSession wrong_graph(&other, sim::SimOptions{});
  EXPECT_EQ(engine_.Run(&wrong_graph, QuerySpec{}, RunConfig{}, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  RunConfig wireless;
  wireless.sim_options.medium = sim::MediumKind::kWireless;
  EXPECT_EQ(engine_.Run(&session, QuerySpec{}, wireless, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Invalid queries are rejected without corrupting the session.
  EXPECT_EQ(engine_.Run(&session, QuerySpec{}, RunConfig{}, 5000)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  auto ok = engine_.Run(&session, QuerySpec{}, RunConfig{}, 0);
  EXPECT_TRUE(ok.ok());
}

TEST(SessionResidencyTest, ResidentStateReturnsToBaselineAfterReset) {
  // A grid, where a small disc occupies few 256-id pages (row-major ids):
  // page-granular residency needs id locality the Gnutella graph's random
  // ids cannot give.
  topology::Graph grid = *topology::MakeGrid(100);  // 10^4 hosts
  QueryEngine engine(&grid, std::vector<double>(grid.num_hosts(), 1.0));
  const HostId hq = 50 * 100 + 50;

  QuerySpec wide;  // default D-hat: the flood covers the whole grid
  QuerySpec narrow;
  narrow.d_hat = 2.0;  // the flood only reaches hq's neighborhood
  sim::SimulatorSession session(&grid, sim::SimOptions{});

  auto first = engine.Run(&session, wide, RunConfig{}, hq);
  ASSERT_TRUE(first.ok());
  auto warm_narrow = engine.Run(&session, narrow, RunConfig{}, hq);
  ASSERT_TRUE(warm_narrow.ok());
  auto fresh_narrow = engine.Run(narrow, RunConfig{}, hq);
  ASSERT_TRUE(fresh_narrow.ok());

  // The narrow query's resident state must reflect what *it* touched, not
  // what the wide query before it touched — and must equal the fresh run's.
  EXPECT_EQ(warm_narrow->resident_state_bytes,
            fresh_narrow->resident_state_bytes);
  EXPECT_LT(warm_narrow->resident_state_bytes,
            first->resident_state_bytes / 4);
}

TEST(SimulatorResetTest, RewindsFailuresJoinsAndPendingEvents) {
  topology::Graph g = *topology::MakeRandom(300, 4.0, 5);
  sim::Simulator sim(g, sim::SimOptions{});

  // A well-connected host to exercise fan-out and the reverse-slot index.
  HostId hub = 0;
  for (HostId h = 0; h < 300; ++h) {
    if (g.Neighbors(h).size() > g.Neighbors(hub).size()) hub = h;
  }
  ASSERT_GE(g.Neighbors(hub).size(), 2u);
  HostId hub_nb = g.Neighbors(hub)[1];

  // Dirty everything resettable: failures, a runtime join, pending events.
  sim.FailHost(3);
  sim.FailHost(250);
  auto joined = sim.AddHost({hub});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(sim.num_hosts(), 301u);
  uint32_t slot_before = sim.NeighborSlotOf(hub, hub_nb);
  sim.ScheduleFailure(5.0, 7);
  sim::Message msg;
  msg.kind = 1;
  sim.SendToNeighbors(hub, msg);
  sim.RunUntil(0.5);
  EXPECT_GT(sim.metrics().messages_sent(), 0u);

  sim.Reset();

  EXPECT_EQ(sim.num_hosts(), 300u);
  EXPECT_EQ(sim.alive_count(), 300u);
  EXPECT_TRUE(sim.IsAlive(3));
  EXPECT_TRUE(sim.IsAlive(250));
  EXPECT_TRUE(sim.IsAlive(7));
  EXPECT_EQ(sim.Now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.metrics().messages_sent(), 0u);
  EXPECT_EQ(sim.metrics().MaxProcessed(), 0u);
  // Adjacency is back to the base graph: the joined host's reverse edges
  // are gone and the reverse-slot lookup still answers correctly.
  EXPECT_EQ(sim.NeighborsOf(hub).size(), g.Neighbors(hub).size());
  EXPECT_EQ(sim.NeighborSlotOf(hub, hub_nb), slot_before);
  // The pending failure at t=5 was discarded with the queue.
  sim.RunUntil(10.0);
  EXPECT_TRUE(sim.IsAlive(7));

  // The reset simulator behaves exactly like a fresh one.
  sim::Simulator fresh(g, sim::SimOptions{});
  sim::Message again;
  again.kind = 1;
  fresh.SendToNeighbors(hub, again);
  fresh.Run();
  sim::Message replay;
  replay.kind = 1;
  sim.SendToNeighbors(hub, replay);
  sim.Run();
  EXPECT_EQ(sim.metrics().messages_sent(), fresh.metrics().messages_sent());
  EXPECT_EQ(sim.metrics().messages_delivered(),
            fresh.metrics().messages_delivered());
}

}  // namespace
}  // namespace validity::core
