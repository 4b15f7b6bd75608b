// Tests for the discrete-event simulator: deterministic ordering, delivery
// and failure semantics, media accounting, heartbeat detection, churn.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/message.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "topology/topology.h"

namespace validity::sim {
namespace {

// ------------------------------------------------------------ EventQueue

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 3.0);
  EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(1.0, [&] { order.push_back(1); });
  q.ScheduleAt(2.0, [&] { order.push_back(2); });
  q.ScheduleAt(3.0, [&] { order.push_back(3); });
  q.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.Now(), 2.0);
  q.RunAll();
  EXPECT_EQ(order.size(), 3u);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&] {
    ++fired;
    q.ScheduleAt(2.0, [&] { ++fired; });
  });
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

// -------------------------------------------------------------- Programs

/// Records every delivery; optionally echoes messages back once.
class RecordingProgram : public HostProgram {
 public:
  struct Delivery {
    HostId self;
    HostId src;
    uint32_t kind;
    SimTime at;
  };

  void OnMessage(HostId self, const Message& msg) override {
    deliveries.push_back({self, msg.src, msg.kind, now_fn()});
  }
  void OnNeighborFailure(HostId self, HostId failed) override {
    failures.push_back({self, failed, 0, now_fn()});
  }

  std::function<SimTime()> now_fn = [] { return 0.0; };
  std::vector<Delivery> deliveries;
  std::vector<Delivery> failures;
};

Message Msg(uint32_t kind) {
  Message m;
  m.kind = kind;
  return m;
}

// -------------------------------------------------------------- Delivery

TEST(SimulatorTest, UnicastArrivesAfterDelta) {
  topology::Graph g = *topology::MakeChain(3);
  SimOptions opts;
  opts.delta = 2.0;
  Simulator sim(g, opts);
  RecordingProgram prog;
  prog.now_fn = [&] { return sim.Now(); };
  sim.AttachProgram(&prog);
  sim.ScheduleAt(1.0, [&] { sim.SendTo(0, 1, Msg(7)); });
  sim.Run();
  ASSERT_EQ(prog.deliveries.size(), 1u);
  EXPECT_EQ(prog.deliveries[0].self, 1u);
  EXPECT_EQ(prog.deliveries[0].src, 0u);
  EXPECT_EQ(prog.deliveries[0].kind, 7u);
  EXPECT_DOUBLE_EQ(prog.deliveries[0].at, 3.0);
  EXPECT_EQ(sim.metrics().messages_sent(), 1u);
}

TEST(SimulatorTest, FailedHostSendsNothing) {
  topology::Graph g = *topology::MakeChain(2);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(0.5, [&] { sim.FailHost(0); });
  sim.ScheduleAt(1.0, [&] { sim.SendTo(0, 1, Msg(1)); });
  sim.Run();
  EXPECT_TRUE(prog.deliveries.empty());
  EXPECT_EQ(sim.metrics().messages_sent(), 0u);
}

TEST(SimulatorTest, InFlightMessageToFailedHostIsLost) {
  topology::Graph g = *topology::MakeChain(2);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(1.0, [&] { sim.SendTo(0, 1, Msg(1)); });
  sim.ScheduleAt(1.5, [&] { sim.FailHost(1); });  // dies before delivery at 2
  sim.Run();
  EXPECT_TRUE(prog.deliveries.empty());
  EXPECT_EQ(sim.metrics().messages_sent(), 1u);  // charged but undelivered
  EXPECT_EQ(sim.metrics().messages_delivered(), 0u);
}

TEST(SimulatorTest, InFlightMessageFromFailedSenderStillArrives) {
  // Paper §3.2: the message was sent while the sender was alive.
  topology::Graph g = *topology::MakeChain(2);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(1.0, [&] { sim.SendTo(0, 1, Msg(1)); });
  sim.ScheduleAt(1.5, [&] { sim.FailHost(0); });
  sim.Run();
  EXPECT_EQ(prog.deliveries.size(), 1u);
}

TEST(SimulatorTest, PointToPointNeighborsChargesPerNeighbor) {
  topology::Graph g = *topology::MakeStar(5);  // host 0 has 4 neighbors
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(0.0, [&] { sim.SendToNeighbors(0, Msg(1)); });
  sim.Run();
  EXPECT_EQ(sim.metrics().messages_sent(), 4u);
  EXPECT_EQ(prog.deliveries.size(), 4u);
}

TEST(SimulatorTest, WirelessBroadcastChargesOnce) {
  topology::Graph g = *topology::MakeStar(5);
  SimOptions opts;
  opts.medium = MediumKind::kWireless;
  Simulator sim(g, opts);
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(0.0, [&] { sim.SendToNeighbors(0, Msg(1)); });
  sim.Run();
  EXPECT_EQ(sim.metrics().messages_sent(), 1u);   // one transmission
  EXPECT_EQ(prog.deliveries.size(), 4u);          // everyone hears it
  EXPECT_EQ(sim.metrics().messages_delivered(), 4u);
}

TEST(SimulatorTest, SendDirectReachesNonNeighbors) {
  topology::Graph g = *topology::MakeChain(5);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(0.0, [&] { sim.SendDirect(4, 0, Msg(9)); });
  sim.Run();
  ASSERT_EQ(prog.deliveries.size(), 1u);
  EXPECT_EQ(prog.deliveries[0].self, 0u);
  EXPECT_EQ(sim.metrics().messages_sent(), 1u);
}

// ------------------------------------------------------ Batched fan-out

TEST(SimulatorBatchTest, BroadcastToEightGridNeighborsCountsEightEvents) {
  // The centre of a 3x3 Moore grid has 8 neighbors: one transmission, one
  // batched queue event, and still one executed event per delivery.
  SimOptions opts;
  opts.medium = MediumKind::kWireless;
  Simulator sim(*topology::Topology::Grid(3), opts);
  RecordingProgram prog;
  prog.now_fn = [&] { return sim.Now(); };
  sim.AttachProgram(&prog);
  sim.SendToNeighbors(4, Msg(1));
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 8u);
  EXPECT_EQ(sim.metrics().messages_sent(), 1u);
  EXPECT_EQ(sim.metrics().messages_delivered(), 8u);
  const NeighborSpan nbrs = sim.NeighborsOf(4);
  ASSERT_EQ(prog.deliveries.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(prog.deliveries[i].self, nbrs[i]);
    EXPECT_EQ(prog.deliveries[i].src, 4u);
    EXPECT_DOUBLE_EQ(prog.deliveries[i].at, 1.0);
  }
}

TEST(SimulatorBatchTest, FanoutBeyondTheBatchCapDeliversInSendOrder) {
  // 12 targets exceed the 8-receiver batch: every copy is its own event.
  topology::Graph g = *topology::MakeStar(13);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.SendToNeighbors(0, Msg(1));
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 12u);
  ASSERT_EQ(prog.deliveries.size(), 12u);
  for (uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(prog.deliveries[i].self, g.Neighbors(0)[i]);
  }
}

struct CountedBody : MessageBody {
  size_t SizeBytes() const override { return 8; }
  static int live;
  CountedBody() { ++live; }
  ~CountedBody() override { --live; }
};
int CountedBody::live = 0;

TEST(SimulatorBatchTest, ResetReleasesPendingBatchesAndTheirBodies) {
  // Pending batches and fault-delayed individual copies all reference
  // pooled bodies. The pool handle goes
  // first, so its core frees the bodies only once Reset() has dropped
  // every slot reference: no body may survive it. Debug builds also check
  // that every slot's refcount reached zero.
  SimOptions opts;
  opts.medium = MediumKind::kWireless;
  Simulator sim(*topology::Topology::Grid(5), opts);
  FaultSpec faults;
  faults.seed = 3;
  faults.duplicate_rate = 0.5;
  faults.delay_rate = 0.3;
  faults.max_delay_hops = 2;
  sim.InstallFaults(&faults);
  auto pool = std::make_unique<BodyPool<CountedBody>>();
  for (HostId h : {6u, 12u, 18u}) {
    Message msg = Msg(1);
    msg.body = BodyRef(pool->Acquire());
    sim.SendToNeighbors(h, msg);
  }
  pool.reset();
  EXPECT_EQ(CountedBody::live, 3);
  sim.Reset();
  EXPECT_EQ(CountedBody::live, 0);

  // The recycled slots batch again.
  sim.SendToNeighbors(12, Msg(2));
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 8u);
}

// -------------------------------------------------------------- Failures

TEST(SimulatorTest, FailureBookkeeping) {
  topology::Graph g = *topology::MakeChain(3);
  Simulator sim(g, SimOptions{});
  EXPECT_EQ(sim.alive_count(), 3u);
  sim.ScheduleFailure(2.0, 1);
  sim.Run();
  EXPECT_FALSE(sim.IsAlive(1));
  EXPECT_EQ(sim.alive_count(), 2u);
  EXPECT_DOUBLE_EQ(sim.FailureTime(1), 2.0);
  EXPECT_TRUE(sim.AliveThroughout(0, 0.0, 10.0));
  EXPECT_FALSE(sim.AliveThroughout(1, 0.0, 10.0));
  EXPECT_TRUE(sim.AliveThroughout(1, 0.0, 1.5));
  EXPECT_TRUE(sim.AliveSometimeIn(1, 0.0, 10.0));
  EXPECT_FALSE(sim.AliveSometimeIn(1, 3.0, 10.0));
}

TEST(SimulatorTest, HeartbeatDetectionFiresAfterThbPlusDelta) {
  topology::Graph g = *topology::MakeChain(3);
  SimOptions opts;
  opts.failure_detection = true;
  opts.heartbeat_interval = 2.0;
  opts.delta = 1.0;
  Simulator sim(g, opts);
  RecordingProgram prog;
  prog.now_fn = [&] { return sim.Now(); };
  sim.AttachProgram(&prog);
  sim.ScheduleFailure(5.0, 1);
  sim.Run();
  // Both neighbors (0 and 2) learn at 5 + 2 + 1 = 8.
  ASSERT_EQ(prog.failures.size(), 2u);
  for (const auto& f : prog.failures) {
    EXPECT_EQ(f.src, 1u);
    EXPECT_DOUBLE_EQ(f.at, 8.0);
  }
}

TEST(SimulatorTest, AddHostJoinsAndDelivers) {
  topology::Graph g = *topology::MakeChain(2);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(1.0, [&] {
    auto id = sim.AddHost({1});
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 2u);
    sim.SendTo(*id, 1, Msg(4));
  });
  sim.Run();
  EXPECT_EQ(sim.num_hosts(), 3u);
  EXPECT_DOUBLE_EQ(sim.JoinTime(2), 1.0);
  ASSERT_EQ(prog.deliveries.size(), 1u);
  EXPECT_EQ(prog.deliveries[0].src, 2u);
}

TEST(SimulatorTest, AddHostRejectsDeadNeighbor) {
  topology::Graph g = *topology::MakeChain(2);
  Simulator sim(g, SimOptions{});
  sim.ScheduleAt(1.0, [&] {
    sim.FailHost(1);
    EXPECT_EQ(sim.AddHost({1}).status().code(),
              StatusCode::kFailedPrecondition);
  });
  sim.Run();
}

// ----------------------------------------------------------------- Churn

TEST(ChurnTest, UniformChurnProtectsAndSpacesUniformly) {
  Rng rng(5);
  auto events = MakeUniformChurn(100, /*protect=*/7, /*removals=*/10,
                                 /*start=*/0.0, /*end=*/20.0, &rng);
  ASSERT_EQ(events.size(), 10u);
  std::set<HostId> victims;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_NE(events[i].host, 7u);
    victims.insert(events[i].host);
    EXPECT_DOUBLE_EQ(events[i].time, (static_cast<double>(i) + 0.5) * 2.0);
  }
  EXPECT_EQ(victims.size(), 10u);  // distinct victims
}

TEST(ChurnTest, ScheduledChurnActuallyFails) {
  topology::Graph g = *topology::MakeRandom(50, 4.0, 3);
  Simulator sim(g, SimOptions{});
  Rng rng(9);
  auto events = MakeUniformChurn(50, 0, 20, 0.0, 10.0, &rng);
  ScheduleChurn(&sim, events);
  sim.Run();
  EXPECT_EQ(sim.alive_count(), 30u);
  EXPECT_TRUE(sim.IsAlive(0));
}

TEST(ChurnTest, ExponentialLifetimesRespectHorizonAndProtect) {
  Rng rng(4);
  auto events = MakeExponentialLifetimeChurn(500, 3, 10.0, 30.0, &rng);
  EXPECT_GT(events.size(), 300u);  // most die within 3 mean lifetimes
  for (const auto& e : events) {
    EXPECT_NE(e.host, 3u);
    EXPECT_LE(e.time, 30.0);
    EXPECT_GT(e.time, 0.0);
  }
  // Sorted by time.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time, events[i].time);
  }
}

TEST(ChurnTest, DirectScheduleMatchesMaterializedExponentialChurn) {
  // ScheduleExponentialLifetimeChurn consumes the RNG exactly like
  // MakeExponentialLifetimeChurn, so under one seed both paths fail the
  // same hosts at the same instants.
  topology::Graph g = *topology::MakeRandom(300, 4.0, 11);
  Simulator via_vector(g, SimOptions{});
  Simulator direct(g, SimOptions{});
  Rng rng_a(17);
  Rng rng_b(17);
  auto events = MakeExponentialLifetimeChurn(300, 5, 8.0, 25.0, &rng_a);
  ScheduleChurn(&via_vector, events);
  uint32_t scheduled =
      ScheduleExponentialLifetimeChurn(&direct, 5, 8.0, 25.0, &rng_b);
  EXPECT_EQ(scheduled, events.size());
  via_vector.Run();
  direct.Run();
  EXPECT_EQ(via_vector.alive_count(), direct.alive_count());
  for (HostId h = 0; h < 300; ++h) {
    EXPECT_EQ(via_vector.FailureTime(h), direct.FailureTime(h)) << h;
  }
}

// --------------------------------------------------------------- Metrics

TEST(MetricsTest, SendsPerTickBucketsByFloor) {
  topology::Graph g = *topology::MakeChain(3);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(0.0, [&] { sim.SendTo(0, 1, Msg(1)); });
  sim.ScheduleAt(0.5, [&] { sim.SendTo(0, 1, Msg(1)); });
  sim.ScheduleAt(2.0, [&] { sim.SendTo(1, 2, Msg(1)); });
  sim.Run();
  const auto& ticks = sim.metrics().SendsPerTick();
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], 2u);
  EXPECT_EQ(ticks[1], 0u);
  EXPECT_EQ(ticks[2], 1u);
}

TEST(MetricsTest, ComputationDistributionCountsReceptions) {
  topology::Graph g = *topology::MakeStar(4);
  Simulator sim(g, SimOptions{});
  RecordingProgram prog;
  sim.AttachProgram(&prog);
  sim.ScheduleAt(0.0, [&] {
    sim.SendTo(1, 0, Msg(1));
    sim.SendTo(2, 0, Msg(1));
    sim.SendTo(3, 0, Msg(1));
  });
  sim.Run();
  EXPECT_EQ(sim.metrics().ProcessedBy(0), 3u);
  EXPECT_EQ(sim.metrics().MaxProcessed(), 3u);
  Histogram h = sim.metrics().ComputationCostDistribution();
  EXPECT_EQ(h.CountAt(0), 3);  // the three spokes processed nothing
  EXPECT_EQ(h.CountAt(3), 1);
}

TEST(SimulatorCountsTest, ImplicitDefaultsStayExactUnderChurnAndJoins) {
  // num_hosts()/alive_count() are maintained as counters over the
  // implicit-liveness representation (untouched hosts are alive but
  // unpaged). Churn hard, join, churn the joined hosts, reset, churn again
  // — after every step the counters must agree with a dense rebuild from
  // the per-host liveness predicates.
  topology::Topology topo = *topology::Topology::Grid(40);  // 1600 hosts
  Simulator sim(topo, SimOptions{});
  Rng rng(99);

  auto check_against_dense_oracle = [&sim](uint32_t expected_hosts) {
    ASSERT_EQ(sim.num_hosts(), expected_hosts);
    uint32_t alive = 0;
    for (HostId h = 0; h < sim.num_hosts(); ++h) {
      if (sim.IsAlive(h)) ++alive;
      // The predicates themselves must agree with each other.
      EXPECT_EQ(sim.IsAlive(h), sim.FailureTime(h) == kNeverFails);
    }
    EXPECT_EQ(sim.alive_count(), alive);
  };

  check_against_dense_oracle(1600);

  // Random failures, including repeats (FailHost must not double-count).
  for (int i = 0; i < 400; ++i) {
    sim.FailHost(static_cast<HostId>(rng.NextBelow(1600)));
  }
  check_against_dense_oracle(1600);

  // Joins attach to alive hosts; some joined hosts fail again.
  std::vector<HostId> joined;
  for (int i = 0; i < 50; ++i) {
    HostId nb;
    do {
      nb = static_cast<HostId>(rng.NextBelow(1600));
    } while (!sim.IsAlive(nb));
    auto id = sim.AddHost({nb});
    ASSERT_TRUE(id.ok());
    joined.push_back(*id);
  }
  for (int i = 0; i < 20; ++i) {
    sim.FailHost(joined[rng.NextBelow(joined.size())]);
  }
  check_against_dense_oracle(1650);

  // Reset restores the base population exactly.
  sim.Reset();
  check_against_dense_oracle(1600);
  EXPECT_EQ(sim.alive_count(), 1600u);

  // And the next epoch accounts failures from a clean slate.
  sim.FailHost(7);
  sim.FailHost(7);
  sim.FailHost(1599);
  check_against_dense_oracle(1600);
  EXPECT_EQ(sim.alive_count(), 1598u);

  // A fresh simulator over the same topology agrees host for host.
  Simulator fresh(topo, SimOptions{});
  fresh.FailHost(7);
  fresh.FailHost(1599);
  for (HostId h = 0; h < 1600; ++h) {
    EXPECT_EQ(sim.IsAlive(h), fresh.IsAlive(h));
  }
}

TEST(SimulatorCountsTest, ResidentTableBytesTracksTheTouchedDisc) {
  // An implicit million-ish grid: constructing the simulator materializes
  // no per-host tables, and failing a handful of hosts pages in only their
  // neighborhoods.
  topology::Topology topo = *topology::Topology::Grid(1000);
  Simulator sim(topo, SimOptions{});
  size_t fresh_bytes = sim.ResidentTableBytes();
  // The fresh footprint is bounded by fixed skeleton storage (event queue
  // reserve, directories), far below one byte per host.
  EXPECT_LT(fresh_bytes, topo.num_hosts() / 2);
  sim.FailHost(12345);
  sim.FailHost(987654);
  // Two touched liveness pages plus the (O(n / page-size)) directory growth
  // the far host forces — still hundreds of KB under the ~17 MB the dense
  // alive/failure/join tables used to cost.
  EXPECT_LT(sim.ResidentTableBytes(), fresh_bytes + 256 * 1024);
  EXPECT_EQ(sim.alive_count(), topo.num_hosts() - 2);
}

}  // namespace
}  // namespace validity::sim
