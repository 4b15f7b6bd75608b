// Tests for the typed calendar-heap event queue: the (time,
// insertion-sequence) ordering contract across typed and generic events,
// RunUntil boundary semantics, executed() accounting, bucket recycling
// under stress, and a WILDFIRE determinism regression (two identical runs
// must produce identical traces).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "protocols/flood_report.h"
#include "protocols/wildfire.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "topology/generators.h"

namespace validity::sim {
namespace {

/// Collects typed events in dispatch order.
struct TypedSink {
  std::vector<Event> events;
  static void Handle(void* ctx, const Event& e) {
    static_cast<TypedSink*>(ctx)->events.push_back(e);
  }
};

// ------------------------------------------------ ordering contract

TEST(EventQueueTest, SameTimestampRunsInScheduleOrderAcrossKinds) {
  // Typed and generic events at one instant must interleave exactly in the
  // order they were scheduled, not grouped by kind.
  EventQueue q;
  TypedSink sink;
  q.SetTypedHandler(&TypedSink::Handle, &sink);
  std::vector<int> order;
  q.ScheduleTyped(5.0, EventTag::kTimer, 0, kInvalidHost, 0, /*payload=*/100);
  q.ScheduleAt(5.0, [&] { order.push_back(static_cast<int>(sink.events.size())); });
  q.ScheduleTyped(5.0, EventTag::kTimer, 0, kInvalidHost, 0, /*payload=*/101);
  q.ScheduleAt(5.0, [&] { order.push_back(static_cast<int>(sink.events.size())); });
  q.RunAll();
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].payload, 100u);
  EXPECT_EQ(sink.events[1].payload, 101u);
  // First closure ran after exactly one typed event, second after both.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, FifoWithinTimestampSurvivesBucketRecycling) {
  // Drain a timestamp, then schedule a new burst at a later instant that
  // reuses the recycled bucket; FIFO order must hold in both.
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 16; ++i) {
    q.ScheduleAt(2.0, [&order, i] { order.push_back(16 + i); });
  }
  q.RunAll();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, ManyDistinctTimesPopInSortedOrder) {
  // Stress the calendar: a pseudo-random schedule over many distinct
  // timestamps (every event its own bucket) plus repeated collisions.
  EventQueue q;
  std::vector<double> popped;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    double t = static_cast<double>(state % 1000) +
               (i % 3 == 0 ? 0.5 : 0.0);  // collisions and fresh times
    q.ScheduleAt(t, [&popped, &q] { popped.push_back(q.Now()); });
  }
  q.RunAll();
  ASSERT_EQ(popped.size(), 2000u);
  for (size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1], popped[i]);
  }
}

TEST(EventQueueTest, EventsScheduledMidRunAtCurrentInstantRunThisInstant) {
  // An action scheduling at Now() lands behind every event already queued
  // for this instant — the coalesced-flood pattern protocols rely on.
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.0, [&] {
    order.push_back(0);
    q.ScheduleAt(1.0, [&] { order.push_back(2); });
  });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// ------------------------------------------------ RunUntil boundary

TEST(EventQueueTest, RunUntilIncludesExactBoundaryAndAdvancesNow) {
  EventQueue q;
  std::vector<int> fired;
  q.ScheduleAt(1.0, [&] { fired.push_back(1); });
  q.ScheduleAt(2.0, [&] { fired.push_back(2); });
  q.ScheduleAt(2.0, [&] { fired.push_back(22); });
  q.ScheduleAt(2.5, [&] { fired.push_back(25); });
  q.RunUntil(2.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 22}));  // boundary inclusive
  EXPECT_EQ(q.Now(), 2.0);
  EXPECT_EQ(q.size(), 1u);
  q.RunUntil(2.25);  // no event in (2.0, 2.25]: Now still advances
  EXPECT_EQ(q.Now(), 2.25);
  EXPECT_EQ(fired.size(), 3u);
  q.RunAll();
  EXPECT_EQ(fired.back(), 25);
}

// ------------------------------------------------ executed() accounting

TEST(EventQueueTest, ExecutedCountsEveryKindOfEvent) {
  EventQueue q;
  TypedSink sink;
  q.SetTypedHandler(&TypedSink::Handle, &sink);
  q.ScheduleAt(1.0, [] {});
  q.ScheduleTyped(1.5, EventTag::kTimer, 0, kInvalidHost, 0, 0);
  q.ScheduleAt(2.0, [] {});
  EXPECT_EQ(q.executed(), 0u);
  q.RunOne();
  EXPECT_EQ(q.executed(), 1u);
  q.RunAll();
  EXPECT_EQ(q.executed(), 3u);
  EXPECT_TRUE(q.empty());
  // executed() is cumulative across bursts (the simulator's event budget
  // counts lifetime work, not queue occupancy).
  q.ScheduleAt(3.0, [] {});
  q.RunAll();
  EXPECT_EQ(q.executed(), 4u);
}

TEST(SimulatorBudgetTest, EventsExecutedMatchesQueueAccounting) {
  topology::Graph g = *topology::MakeStar(5);
  Simulator sim(g, SimOptions{});
  sim.ScheduleAt(0.0, [&] {
    Message m;
    m.kind = 1;
    sim.SendToNeighbors(0, m);  // 4 typed deliveries
  });
  sim.Run();
  // 1 generic action + 4 deliveries.
  EXPECT_EQ(sim.events_executed(), 5u);
}

// ------------------------------------------------ determinism regression

/// One WILDFIRE count query over a churned random graph, traced.
void RunTracedWildfire(TraceRecorder* trace, double* declared_value) {
  topology::Graph g = *topology::MakeRandom(300, 5.0, 17);
  std::vector<double> values(g.num_hosts(), 1.0);
  SimOptions opts;
  Simulator sim(g, opts);
  sim.AttachTrace(trace);
  Rng churn_rng(23);
  ScheduleChurn(&sim,
                MakeUniformChurn(g.num_hosts(), 0, 60, 0.0, 16.0, &churn_rng));
  protocols::QueryContext ctx;
  ctx.aggregate = AggregateKind::kCount;
  ctx.combiner = protocols::CombinerKind::kUnionCount;
  ctx.values = &values;
  ctx.d_hat = 8.0;
  protocols::WildfireProtocol wf(&sim, ctx);
  sim.AttachProgram(&wf);
  wf.Start(0);
  sim.Run();
  ASSERT_TRUE(wf.result().declared);
  *declared_value = wf.result().value;
}

/// Event-for-event equality, message kinds unmasked: the upper bits carry
/// the protocol instance id, which each simulator counts from 1.
void ExpectSameTrace(const TraceRecorder& first, const TraceRecorder& second) {
  ASSERT_EQ(first.events().size(), second.events().size());
  ASSERT_GT(first.events().size(), 0u);
  for (size_t i = 0; i < first.events().size(); ++i) {
    const TraceEvent& a = first.events()[i];
    const TraceEvent& b = second.events()[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.time, b.time) << "event " << i;
    ASSERT_EQ(a.src, b.src) << "event " << i;
    ASSERT_EQ(a.dst, b.dst) << "event " << i;
    ASSERT_EQ(a.message_kind, b.message_kind) << "event " << i;
  }
}

TEST(DeterminismTest, IdenticalWildfireRunsProduceIdenticalTraces) {
  TraceRecorder first(1 << 22);
  TraceRecorder second(1 << 22);
  double v1 = 0, v2 = 0;
  RunTracedWildfire(&first, &v1);
  RunTracedWildfire(&second, &v2);
  EXPECT_DOUBLE_EQ(v1, v2);
  ExpectSameTrace(first, second);
}

TEST(DeterminismTest, InstanceIdsDoNotDependOnOtherSimulators) {
  // Protocols built on an unrelated simulator between the two runs draw
  // their ids from that simulator, so the second run's traffic carries the
  // same instance tag as the first's.
  TraceRecorder first(1 << 22);
  TraceRecorder second(1 << 22);
  double v1 = 0, v2 = 0;
  RunTracedWildfire(&first, &v1);
  {
    topology::Graph g = *topology::MakeChain(4);
    std::vector<double> values(4, 1.0);
    Simulator other(g, SimOptions{});
    protocols::QueryContext ctx;
    ctx.values = &values;
    protocols::WildfireProtocol a(&other, ctx);
    protocols::AllReportProtocol b(&other, ctx);
    b.ResetForQuery(ctx, protocols::AllReportOptions{});
    EXPECT_NE(a.instance_id(), b.instance_id());
  }
  RunTracedWildfire(&second, &v2);
  EXPECT_DOUBLE_EQ(v1, v2);
  ExpectSameTrace(first, second);
}

}  // namespace
}  // namespace validity::sim
