// QueryService correctness: the open-arrival determinism contract
// (docs/SERVICE.md).
//
//  (a) A 24-arrival trace of staggered queries (every protocol including
//      gossip, both combiner families, deferred admissions) completes with
//      every result bit-identical to (1) a solo run of the same query
//      issued at the same effective start time and (2) the trace replayed
//      into a fresh service.
//  (b) Admission: lanes never exceed max_in_flight, deferred queries start
//      strictly in arrival order, and a deferred query still matches its
//      solo run at the (later) time it actually started.
//  (c) Cancel and Reset mid-flight: surviving lanes stay byte-identical to
//      their solo runs while others are torn down around them, and a Reset
//      timeline serves fresh queries bit-identically (the EventQueue::Clear
//      / Simulator::Reset drain path under a live service workload).
//  (d) Submit validation: the shared-timeline rules every entry point
//      applies, plus the service's own event budget.
//  (f) A query's tick series anchors at its start: issued at t=10^6 it
//      reports the same sends_per_tick as at t=0.
//  (e) SessionPool lanes serve concurrent per-thread services whose results
//      all match the solo reference.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/query_service.h"
#include "fingerprint_matrix.h"
#include "sim/session.h"
#include "topology/generators.h"

namespace validity::core {
namespace {

using protocols::ProtocolKind;

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest()
      : graph_(*topology::MakeGnutellaLike(300, 7)),
        engine_(&graph_, MakeZipfValues(300, 7)) {}

  /// The solo column: the query alone on a fresh session, issued at
  /// `start_at` on an otherwise identical timeline.
  QueryResult Solo(const Arrival& a, SimTime start_at) {
    sim::SimulatorSession session(&graph_, a.config.sim_options);
    QueryEngine::ConcurrentQuery q;
    q.spec = a.spec;
    q.config = a.config;
    q.hq = a.hq;
    q.start_at = start_at;
    auto solo = engine_.RunConcurrent(&session, {q});
    EXPECT_TRUE(solo.ok()) << solo.status().message();
    return (*solo)[0];
  }

  topology::Graph graph_;
  QueryEngine engine_;
};

/// 24 arrivals covering every protocol (gossip at 10 rounds), both combiner
/// families, all aggregates, distinct sketch seeds and querying hosts, and
/// submit times that collide, interleave, and stagger off the tick comb.
std::vector<Arrival> MixedArrivals() {
  const ProtocolKind kinds[] = {
      ProtocolKind::kWildfire,   ProtocolKind::kAllReport,
      ProtocolKind::kSpanningTree, ProtocolKind::kDag,
      ProtocolKind::kRandomizedReport, ProtocolKind::kGossip};
  const AggregateKind aggs[] = {AggregateKind::kCount, AggregateKind::kSum,
                                AggregateKind::kMax, AggregateKind::kCount};
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 24; ++i) {
    Arrival a;
    a.config.protocol = kinds[i % 6];
    a.spec.aggregate = aggs[(i / 6) % 4];
    // RANDOMIZED-REPORT only serves count/sum; min/max ride the others.
    if (a.config.protocol == ProtocolKind::kRandomizedReport &&
        a.spec.aggregate == AggregateKind::kMax) {
      a.spec.aggregate = AggregateKind::kSum;
    }
    a.spec.exact_combiners = (i % 3 == 0);
    a.config.protocol_options.gossip.rounds = 10;
    a.config.sketch_seed = 100 + i;
    a.hq = static_cast<HostId>((i * 37) % 300);
    // Ties at 0 and 6.0, fractional staggering elsewhere.
    a.submit_time = (i < 4) ? 0.0 : (i % 5 == 0 ? 6.0 : i * 1.75);
    arrivals.push_back(a);
  }
  return arrivals;
}

TEST_F(QueryServiceTest, LiveReplayAndSoloAreBitIdenticalAcrossTheTrace) {
  std::vector<Arrival> arrivals = MixedArrivals();
  ASSERT_GE(arrivals.size(), 20u);

  ServiceOptions options;  // failure-free shared timeline
  options.max_in_flight = 3;  // forces deferrals among the t=0 burst
  QueryService service(&engine_, options);
  std::vector<QueryService::QueryId> ids;
  for (const Arrival& a : arrivals) {
    auto id = service.Submit(a.submit_time, a.spec, a.config, a.hq);
    ASSERT_TRUE(id.ok()) << id.status().message();
    ids.push_back(id.value());
  }
  service.Drain();
  EXPECT_EQ(service.completed(), arrivals.size());
  EXPECT_LE(service.peak_in_flight(), options.max_in_flight);

  std::map<QueryService::QueryId, QueryService::Completion> live;
  QueryService::Completion done;
  while (service.Poll(&done)) live[done.id] = done;
  ASSERT_EQ(live.size(), arrivals.size());

  // Column 1: solo at the effective start time (== submit_time unless the
  // query waited in the deferred queue).
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const QueryService::Completion& c = live[ids[i]];
    EXPECT_EQ(c.submitted_at, arrivals[i].submit_time);
    EXPECT_GE(c.started_at, c.submitted_at);
    ExpectIdentical(Solo(arrivals[i], c.started_at), c.result,
                    "service-vs-solo");
  }

  // Column 2: the recorded trace replayed into a fresh service.
  ASSERT_EQ(service.trace().arrivals.size(), arrivals.size());
  auto replayed = QueryService::Replay(engine_, options, service.trace());
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ASSERT_EQ(replayed->size(), arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const QueryService::Completion& r = (*replayed)[i];
    const QueryService::Completion& c = live[ids[i]];
    EXPECT_EQ(r.started_at, c.started_at) << "replay changed admission";
    EXPECT_EQ(r.retired_at, c.retired_at);
    ExpectIdentical(c.result, r.result, "service-vs-replay");
  }
}

TEST_F(QueryServiceTest, ChurnedTimelineMatchesSoloAndReplay) {
  // One churning timeline shared by queries arriving before, during, and
  // after the churn window. Everything must agree on hq and D-hat (Submit
  // enforces it), exactly like a churned concurrent batch.
  Arrival base;
  base.spec.aggregate = AggregateKind::kCount;
  base.config.churn_removals = 60;
  base.config.churn_seed = 9;
  base.hq = 0;

  ServiceOptions options = ServiceOptionsFor(base.spec, base.config, base.hq);
  QueryService service(&engine_, options);
  const double horizon = 2.0 * service.churn_d_hat();

  std::vector<Arrival> arrivals;
  const ProtocolKind kinds[] = {ProtocolKind::kWildfire, ProtocolKind::kDag,
                                ProtocolKind::kSpanningTree,
                                ProtocolKind::kWildfire,
                                ProtocolKind::kAllReport};
  const double times[] = {0.0, 0.0, horizon * 0.4, horizon + 3.0,
                          horizon * 2.5};
  for (int i = 0; i < 5; ++i) {
    Arrival a = base;
    a.config.protocol = kinds[i];
    a.config.sketch_seed = 40 + i;
    a.submit_time = times[i];
    arrivals.push_back(a);
  }

  std::vector<QueryService::QueryId> ids;
  for (const Arrival& a : arrivals) {
    auto id = service.Submit(a.submit_time, a.spec, a.config, a.hq);
    ASSERT_TRUE(id.ok()) << id.status().message();
    ids.push_back(id.value());
  }
  service.Drain();

  std::map<QueryService::QueryId, QueryService::Completion> live;
  QueryService::Completion done;
  while (service.Poll(&done)) live[done.id] = done;
  ASSERT_EQ(live.size(), arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    ExpectIdentical(Solo(arrivals[i], live[ids[i]].started_at),
                    live[ids[i]].result, "churned-service-vs-solo");
  }

  auto replayed = QueryService::Replay(engine_, options, service.trace());
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    ExpectIdentical(live[ids[i]].result, (*replayed)[i].result,
                    "churned-service-vs-replay");
  }
  // A query started after the churn tail sees fewer unreachable hosts than
  // the t=0 ones (its validity window anchors at its own start).
  EXPECT_LT(live[ids[3]].result.validity.hu_size,
            live[ids[0]].result.validity.hu_size);
}

TEST_F(QueryServiceTest, AdmissionCapsLanesAndDefersInArrivalOrder) {
  ServiceOptions options;
  options.max_in_flight = 2;
  QueryService service(&engine_, options);

  std::vector<QueryService::QueryId> ids;
  for (int i = 0; i < 6; ++i) {
    QuerySpec spec;
    spec.aggregate = AggregateKind::kCount;
    RunConfig config;
    config.sketch_seed = 10 + i;
    auto id = service.Submit(0.0, spec, config, 0);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // The t=0 burst admits two lanes synchronously; the rest defer.
  EXPECT_EQ(service.in_flight(), 2u);
  EXPECT_EQ(service.deferred(), 4u);

  service.Drain();
  EXPECT_EQ(service.peak_in_flight(), 2u);
  EXPECT_EQ(service.deferred(), 0u);
  EXPECT_EQ(service.completed(), 6u);

  std::map<QueryService::QueryId, QueryService::Completion> live;
  QueryService::Completion done;
  while (service.Poll(&done)) live[done.id] = done;
  // Deferred queries started strictly in arrival order, each when a lane
  // retired, and each still matches its solo run at that later start.
  for (size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GE(live[ids[i]].started_at, live[ids[i - 1]].started_at);
  }
  EXPECT_GT(live[ids[5]].started_at, 0.0);
  for (size_t i = 0; i < ids.size(); ++i) {
    Arrival a;
    a.spec.aggregate = AggregateKind::kCount;
    a.config.sketch_seed = 10 + static_cast<uint64_t>(i);
    a.hq = 0;
    ExpectIdentical(Solo(a, live[ids[i]].started_at), live[ids[i]].result,
                    "deferred-vs-solo");
  }
}

TEST_F(QueryServiceTest, CancelTearsDownLanesWithoutDisturbingSurvivors) {
  ServiceOptions options;
  options.max_in_flight = 4;
  QueryService service(&engine_, options);

  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  RunConfig config;
  std::vector<QueryService::QueryId> ids;
  for (int i = 0; i < 3; ++i) {
    config.sketch_seed = 60 + i;
    auto id = service.Submit(0.0, spec, config, 0);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // A fourth query scheduled for later, cancelled before it arrives.
  config.sketch_seed = 99;
  auto scheduled = service.Submit(50.0, spec, config, 0);
  ASSERT_TRUE(scheduled.ok());

  // Cancel one running lane mid-flight (its traffic is dropped from here
  // on) and the scheduled query; the other lanes keep running around the
  // teardown.
  service.RunUntil(2.0);
  ASSERT_TRUE(service.Cancel(ids[1]).ok());
  ASSERT_TRUE(service.Cancel(scheduled.value()).ok());
  EXPECT_EQ(service.Cancel(ids[1]).code(), StatusCode::kFailedPrecondition);
  service.Drain();

  EXPECT_EQ(service.completed(), 2u);
  EXPECT_EQ(service.cancelled(), 2u);
  std::map<QueryService::QueryId, QueryService::Completion> live;
  QueryService::Completion done;
  while (service.Poll(&done)) live[done.id] = done;
  ASSERT_EQ(live.count(ids[0]), 1u);
  ASSERT_EQ(live.count(ids[2]), 1u);
  EXPECT_EQ(live.count(ids[1]), 0u);
  // Survivors are byte-identical to their solo runs.
  Arrival a0;
  a0.spec = spec;
  a0.config.sketch_seed = 60;
  ExpectIdentical(Solo(a0, 0.0), live[ids[0]].result, "survivor-0");
  Arrival a2;
  a2.spec = spec;
  a2.config.sketch_seed = 62;
  ExpectIdentical(Solo(a2, 0.0), live[ids[2]].result, "survivor-2");

  EXPECT_EQ(service.Cancel(12345).code(), StatusCode::kNotFound);
}

TEST_F(QueryServiceTest, ResetMidFlightRewindsTheTimelineForFreshQueries) {
  // The EventQueue::Clear / Simulator::Reset drain path under a live
  // service workload: pending arrivals, running lanes with in-flight slab
  // messages, and scheduled retirements are all abandoned mid-flight.
  ServiceOptions options;
  options.max_in_flight = 4;
  QueryService service(&engine_, options);

  QuerySpec spec;
  spec.aggregate = AggregateKind::kSum;
  RunConfig config;
  for (int i = 0; i < 4; ++i) {
    config.sketch_seed = 70 + i;
    ASSERT_TRUE(service.Submit(i * 1.5, spec, config, 0).ok());
  }
  service.RunUntil(3.25);  // lanes mid-flight, arrivals still pending
  EXPECT_GT(service.in_flight(), 0u);
  const uint64_t epoch_before = service.session().epoch();

  service.Reset();
  EXPECT_EQ(service.Now(), 0.0);
  EXPECT_EQ(service.in_flight(), 0u);
  EXPECT_EQ(service.deferred(), 0u);
  EXPECT_TRUE(service.trace().arrivals.empty());
  EXPECT_GT(service.session().epoch(), epoch_before);

  // The rewound timeline serves a fresh query bit-identically to a fresh
  // engine run (warm parked protocols and metrics lanes notwithstanding).
  config.sketch_seed = 5;
  auto id = service.Submit(0.0, spec, config, 0);
  ASSERT_TRUE(id.ok());
  service.Drain();
  QueryService::Completion done;
  ASSERT_TRUE(service.Poll(&done));
  auto fresh = engine_.Run(spec, config, 0);
  ASSERT_TRUE(fresh.ok());
  ExpectIdentical(*fresh, done.result, "post-reset-vs-fresh");
}

TEST_F(QueryServiceTest, SubmitValidatesTheSharedTimeline) {
  ServiceOptions options;
  options.churn_removals = 50;
  options.max_events = 100000;
  QueryService service(&engine_, options);

  QuerySpec spec;
  RunConfig good;
  good.churn_removals = 50;
  ASSERT_TRUE(service.Submit(0.0, spec, good, 0).ok());

  RunConfig wrong_churn = good;
  wrong_churn.churn_removals = 60;
  EXPECT_EQ(service.Submit(1.0, spec, wrong_churn, 0).status().code(),
            StatusCode::kInvalidArgument);
  RunConfig wrong_seed = good;
  wrong_seed.churn_seed = 2;
  EXPECT_EQ(service.Submit(1.0, spec, wrong_seed, 0).status().code(),
            StatusCode::kInvalidArgument);
  RunConfig wrong_fault = good;
  wrong_fault.fault.drop_rate = 0.1;
  EXPECT_EQ(service.Submit(1.0, spec, wrong_fault, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Churned queries must share the timeline's protected host...
  EXPECT_EQ(service.Submit(1.0, spec, good, 7).status().code(),
            StatusCode::kInvalidArgument);
  // ...and its D-hat.
  QuerySpec wrong_dhat = spec;
  wrong_dhat.d_hat = 3.0;
  EXPECT_EQ(service.Submit(1.0, wrong_dhat, good, 0).status().code(),
            StatusCode::kInvalidArgument);
  // The timeline owns the event budget: equal or unset passes, else reject.
  RunConfig budget = good;
  budget.sim_options.max_events = 100000;
  EXPECT_TRUE(service.Submit(1.0, spec, budget, 0).ok());
  budget.sim_options.max_events = 7;
  EXPECT_EQ(service.Submit(1.0, spec, budget, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Structural mismatch against the session (wireless vs point-to-point).
  RunConfig wireless = good;
  wireless.sim_options.medium = sim::MediumKind::kWireless;
  EXPECT_EQ(service.Submit(1.0, spec, wireless, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Submissions cannot arrive in the past.
  service.RunUntil(10.0);
  EXPECT_EQ(service.Submit(9.0, spec, good, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, TickSeriesAnchorsAtTheQueryStart) {
  // No churn and no faults, so the network a late query sees is the one a
  // t=0 query sees: tick for tick, it sends the same — with no leading
  // zeros for the million ticks before it started.
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;
  RunConfig config;
  auto at_zero = engine_.Run(spec, config, 0);
  ASSERT_TRUE(at_zero.ok());
  ASSERT_FALSE(at_zero->cost.sends_per_tick.empty());

  QueryService service(&engine_, ServiceOptions{});
  ASSERT_TRUE(service.Submit(1e6, spec, config, 0).ok());
  service.Drain();
  QueryService::Completion done;
  ASSERT_TRUE(service.Poll(&done));
  EXPECT_EQ(done.started_at, 1e6);
  EXPECT_EQ(done.result.cost.messages, at_zero->cost.messages);
  EXPECT_EQ(done.result.cost.sends_per_tick, at_zero->cost.sends_per_tick);

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  auto batch = engine_.RunConcurrent(
      &session, {QueryEngine::ConcurrentQuery{spec, config, 0, 1e6}});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0].cost.sends_per_tick, at_zero->cost.sends_per_tick);
}

TEST_F(QueryServiceTest, CompletionCallbackFiresBeforePollAndMayChain) {
  ServiceOptions options;
  QueryService service(&engine_, options);
  QuerySpec spec;
  RunConfig config;

  std::vector<QueryService::QueryId> callback_order;
  bool chained = false;
  service.set_on_completion([&](const QueryService::Completion& c) {
    callback_order.push_back(c.id);
    if (!chained) {
      chained = true;
      RunConfig follow = config;
      follow.sketch_seed = 123;
      auto id = service.Submit(service.Now(), spec, follow, 0);
      EXPECT_TRUE(id.ok()) << id.status().message();
    }
  });
  ASSERT_TRUE(service.Submit(0.0, spec, config, 0).ok());
  service.Drain();

  // The chained follow-up ran to completion on the same timeline.
  ASSERT_EQ(callback_order.size(), 2u);
  EXPECT_EQ(service.completed(), 2u);
  QueryService::Completion first, second;
  ASSERT_TRUE(service.Poll(&first));
  ASSERT_TRUE(service.Poll(&second));
  EXPECT_EQ(first.id, callback_order[0]);
  EXPECT_EQ(second.id, callback_order[1]);
  // The follow-up matches its solo run at the time it started.
  Arrival follow;
  follow.spec = spec;
  follow.config = config;
  follow.config.sketch_seed = 123;
  follow.hq = 0;
  ExpectIdentical(Solo(follow, second.started_at), second.result,
                  "chained-vs-solo");
}

TEST_F(QueryServiceTest, SessionPoolLanesServeConcurrentServices) {
  // One pool, four worker threads, each borrowing a lane for its own
  // service. All results must match the solo reference — no cross-lane
  // interference, no shared mutable state beyond the pool's handout mutex.
  sim::SessionPool pool(&graph_, sim::SimOptions{});
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;

  auto fresh = engine_.Run(spec, RunConfig{}, 0);
  ASSERT_TRUE(fresh.ok());

  constexpr int kWorkers = 4;
  constexpr int kRounds = 3;
  std::vector<QueryResult> results(kWorkers * kRounds);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        sim::SessionLease lease(&pool);
        ServiceOptions options;
        QueryService service(&engine_, lease.get(), options);
        auto id = service.Submit(0.0, spec, RunConfig{}, 0);
        ASSERT_TRUE(id.ok());
        service.Drain();
        QueryService::Completion done;
        ASSERT_TRUE(service.Poll(&done));
        results[w * kRounds + r] = done.result;
      }
    });
  }
  for (auto& t : workers) t.join();
  // Lanes were shared across rounds, never across concurrent borrowers.
  EXPECT_LE(pool.size(), static_cast<size_t>(kWorkers));
  for (const QueryResult& r : results) {
    ExpectIdentical(*fresh, r, "pool-service-vs-fresh");
  }
}

TEST_F(QueryServiceTest, ServiceOptionsForDerivesTheTimelineProfile) {
  QuerySpec spec;
  spec.d_hat = 9.0;
  RunConfig config;
  config.churn_removals = 30;
  config.churn_seed = 4;
  config.fault.drop_rate = 0.2;
  config.sim_options.max_events = 500;
  ServiceOptions options = ServiceOptionsFor(spec, config, 11);
  EXPECT_EQ(options.churn_removals, 30u);
  EXPECT_EQ(options.churn_seed, 4u);
  EXPECT_EQ(options.churn_d_hat, 9.0);
  EXPECT_EQ(options.churn_hq, 11u);
  EXPECT_EQ(options.max_events, 500u);
  EXPECT_TRUE(options.fault == config.fault);
}

}  // namespace
}  // namespace validity::core
