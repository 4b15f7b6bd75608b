// Locks the tentpole property of the send path: once a query's pools and
// calendar have warmed up, WILDFIRE and GOSSIP steady-state message traffic
// performs ZERO heap allocations — bodies are recycled through typed pools,
// small payloads travel inline in the message word, deliveries are typed
// slab events.
//
// Mechanism: this test binary overrides global operator new/delete with
// counting versions. Each scenario runs the first part of a query to warm
// every free list (state pages, pool bodies, slab slots, calendar buckets),
// snapshots the allocation counter, runs the remaining traffic, and
// requires the counter to be unchanged while asserting that traffic did
// flow in the measured window.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "protocols/gossip.h"
#include "protocols/wildfire.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "topology/topology.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace validity::protocols {
namespace {

QueryContext MakeContext(AggregateKind agg, CombinerKind combiner,
                         const std::vector<double>* values, double d_hat) {
  QueryContext ctx;
  ctx.aggregate = agg;
  ctx.combiner = combiner;
  ctx.values = values;
  ctx.d_hat = d_hat;
  ctx.fm.num_vectors = 16;
  ctx.sketch_seed = 7;
  return ctx;
}

TEST(AllocFreeTest, WildfireFmSteadyStateSendsAreAllocationFree) {
  topology::Graph g = *topology::MakeRandom(600, 5.0, 11);
  std::vector<double> values(600, 1.0);
  sim::Simulator sim(g, sim::SimOptions{});
  WildfireProtocol wf(&sim, MakeContext(AggregateKind::kCount,
                                        CombinerKind::kFmCount, &values, 12));
  sim.AttachProgram(&wf);
  wf.Start(0);
  // Warm-up: the broadcast wave (diameter ~5 ticks) activates every host
  // (state pages, known-version vectors) and the convergecast's busiest
  // tick (t = 9 for this seed) sizes the body pool, message slab, and
  // calendar skeleton. Several thousand sketch floods remain after.
  sim.RunUntil(9.5);
  uint64_t sent_before = sim.metrics().messages_sent();
  size_t bodies_before = wf.aggregate_bodies_allocated();
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);

  sim.Run();

  uint64_t allocs_after = g_allocations.load(std::memory_order_relaxed);
  uint64_t sent_after = sim.metrics().messages_sent();
  ASSERT_TRUE(wf.result().declared);
  EXPECT_GT(sent_after, sent_before + 100)
      << "steady-state window carried too little traffic to be meaningful";
  EXPECT_EQ(allocs_after, allocs_before)
      << "steady-state sends touched the allocator";
  EXPECT_EQ(wf.aggregate_bodies_allocated(), bodies_before)
      << "the body pool grew past its warm-up high-water mark";
}

TEST(AllocFreeTest, WildfireFmWirelessGridSteadyStateSendsAreAllocationFree) {
  // Every interior broadcast on the implicit Moore grid is one batched
  // event for its 8 receivers: the batch lives in the message slot, so
  // steady-state broadcasts stay off the allocator like point-to-point
  // sends do.
  topology::Topology grid = *topology::Topology::Grid(40);
  std::vector<double> values(grid.num_hosts(), 1.0);
  sim::SimOptions options;
  options.medium = sim::MediumKind::kWireless;
  sim::Simulator sim(grid, options);
  WildfireProtocol wf(&sim, MakeContext(AggregateKind::kCount,
                                        CombinerKind::kFmCount, &values, 40));
  sim.AttachProgram(&wf);
  wf.Start(820);  // the centre: every host is at most 20 hops away
  // Warm-up: the broadcast wave activates the last corner at t = 20, which
  // sizes the body pool, message slab and calendar. About 42,000 of the
  // query's 76,000 transmissions come after it.
  sim.RunUntil(20.5);
  uint64_t sent_before = sim.metrics().messages_sent();
  size_t bodies_before = wf.aggregate_bodies_allocated();
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);

  sim.Run();

  uint64_t allocs_after = g_allocations.load(std::memory_order_relaxed);
  uint64_t sent_after = sim.metrics().messages_sent();
  ASSERT_TRUE(wf.result().declared);
  EXPECT_GT(sent_after, sent_before + 100)
      << "steady-state window carried too little traffic to be meaningful";
  EXPECT_EQ(allocs_after, allocs_before)
      << "steady-state broadcasts touched the allocator";
  EXPECT_EQ(wf.aggregate_bodies_allocated(), bodies_before)
      << "the body pool grew past its warm-up high-water mark";
}

TEST(AllocFreeTest, WildfireScalarSendsCarryAggregatesInline) {
  topology::Graph g = *topology::MakeRandom(400, 5.0, 12);
  std::vector<double> values(400);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 37) % 500);
  }
  sim::Simulator sim(g, sim::SimOptions{});
  WildfireProtocol wf(
      &sim, MakeContext(AggregateKind::kMax, CombinerKind::kMax, &values, 16));
  sim.AttachProgram(&wf);
  wf.Start(0);
  sim.Run();
  ASSERT_TRUE(wf.result().declared);
  // Scalar aggregates ride the inline payload: no convergecast body is ever
  // allocated, warm or cold.
  EXPECT_EQ(wf.aggregate_bodies_allocated(), 0u);
}

TEST(AllocFreeTest, GridActivationKeepsKnownVersionsInline) {
  // Moore-grid degree (8) fits KnownVersionArray's inline capacity, and a
  // scalar (kMax) combiner needs no sketch buffer — so after a first query
  // warmed the pages, slab, and calendar, a *whole* second query on a reset
  // simulator performs zero heap allocations, activations included. Before
  // the known-version fold-in, every activated host allocated one
  // per-neighbor version vector.
  static_assert(KnownVersionArray::kInlineSlots >= 8,
                "Moore-grid degree must fit inline");
  topology::Graph g = *topology::MakeGrid(40);  // 1600 hosts, degree <= 8
  std::vector<double> values(g.num_hosts());
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 41) % 500);
  }
  sim::Simulator sim(g, sim::SimOptions{});
  QueryContext ctx =
      MakeContext(AggregateKind::kMax, CombinerKind::kMax, &values, 60);
  WildfireProtocol wf(&sim, ctx);
  sim.AttachProgram(&wf);
  wf.Start(0);
  sim.Run();
  ASSERT_TRUE(wf.result().declared);
  EXPECT_EQ(wf.aggregate_bodies_allocated(), 0u);

  // Session-style second query: epoch reset + re-arm, then the identical
  // query end to end with the allocator off limits.
  sim.Reset();
  wf.ResetForQuery(ctx, WildfireOptions{});
  sim.AttachProgram(&wf);
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  wf.Start(0);
  sim.Run();
  uint64_t allocs = g_allocations.load(std::memory_order_relaxed) -
                    allocs_before;
  ASSERT_TRUE(wf.result().declared);
  EXPECT_GT(sim.metrics().messages_sent(), 1000u);
  // ~1600 activations, tens of thousands of sends: nothing per host or per
  // message may allocate. A handful of recycled calendar buckets regrowing
  // their capacity is the same O(1) slack the gossip drain-phase bound
  // allows.
  EXPECT_LE(allocs, 16u)
      << "a warmed session query (scalar combiner, inline degree) must not "
         "allocate per activated host";
}

TEST(AllocFreeTest, GossipSteadyStateRoundsAreAllocationFree) {
  topology::Graph g = *topology::MakeRandom(500, 5.0, 13);
  std::vector<double> values(500, 2.0);
  sim::Simulator sim(g, sim::SimOptions{});
  GossipOptions gopts;
  gopts.rounds = 60;
  GossipProtocol gossip(
      &sim,
      MakeContext(AggregateKind::kCount, CombinerKind::kFmCount, &values, 10),
      gopts);
  sim.AttachProgram(&gossip);
  gossip.Start(0);
  // Warm-up: the activation flood plus enough rounds for every calendar
  // bucket in the two-bucket steady-state rotation to reach full capacity.
  sim.RunUntil(15.0);
  uint64_t sent_before = sim.metrics().messages_sent();
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);

  // Steady state proper: rounds 15..59, tens of thousands of pushes. (The
  // very tail of the run — declaration, stragglers' final rounds draining
  // into a shrinking calendar — is measured separately below.)
  sim.RunUntil(59.75);

  uint64_t allocs_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(sim.metrics().messages_sent(), sent_before + 10000)
      << "steady-state window carried too little traffic to be meaningful";
  EXPECT_EQ(allocs_after, allocs_before)
      << "steady-state gossip rounds touched the allocator";

  // The drain phase may recycle a small calendar bucket into a large slot
  // once, but must stay O(1) — nothing per send.
  uint64_t tail_before = g_allocations.load(std::memory_order_relaxed);
  sim.Run();
  uint64_t tail_allocs =
      g_allocations.load(std::memory_order_relaxed) - tail_before;
  ASSERT_TRUE(gossip.result().declared);
  EXPECT_LE(tail_allocs, 16u) << "drain phase allocations must be O(1)";
}

}  // namespace
}  // namespace validity::protocols
