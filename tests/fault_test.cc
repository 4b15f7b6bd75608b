// Deterministic fault plane tests (sim/fault.h): the determinism contract
// under active faults, the degradation semantics of each fault mode, and
// the session/reset story mid-fault-storm.
//
//  (a) DecideLinkFate is a pure function of (spec, link, instant, channel):
//      bit-repeatable, statistically faithful to the configured rates, and
//      insensitive to the sign of a zero send time (the event queue
//      normalizes -0.0 the same way).
//  (b) Fresh-construction runs, session-reused runs, concurrent lanes, and
//      sweeps at any thread count all produce bit-identical QueryResults
//      for the same (seed, FaultSpec) — faults are part of the reproducible
//      timeline, not noise.
//  (c) Each fault mode degrades the answer the way the combiner theory
//      says it must: drops shrink a monotone OR-merge, duplicates leave it
//      untouched while double-counting push-sum mass, byzantine inflation
//      overshoots the oracle interval, deadened replies undercount.
//  (d) A session reset mid-fault-storm (delayed + duplicated deliveries
//      still pending) releases every message slot and leaves the session
//      bit-compatible with a fresh simulator (run under ASan in CI).
//  (e) Hosts joining at runtime under a continuous query on a long-lived
//      session converge to the same answers as a fresh run with the same
//      join script, and the joins rewind with the next session reset.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/experiment.h"
#include "core/query_service.h"
#include "fingerprint_matrix.h"
#include "protocols/continuous.h"
#include "sim/fault.h"
#include "sim/session.h"
#include "topology/generators.h"

namespace validity::core {
namespace {

using protocols::ProtocolKind;
using sim::ByzantineMode;
using sim::DecideLinkFate;
using sim::FaultSpec;
using sim::IsByzantineHost;
using sim::LinkFate;

TEST(LinkFateTest, IsAPureFunctionOfItsArguments) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.2;
  spec.delay_rate = 0.25;
  spec.max_delay_hops = 3;
  for (HostId from = 0; from < 20; ++from) {
    for (uint32_t k = 0; k < 4; ++k) {
      SimTime t = 0.25 * k;
      LinkFate a = DecideLinkFate(spec, from, from + 1, t, /*channel=*/1);
      LinkFate b = DecideLinkFate(spec, from, from + 1, t, /*channel=*/1);
      EXPECT_EQ(a.drop, b.drop);
      EXPECT_EQ(a.duplicate, b.duplicate);
      EXPECT_EQ(a.delay_hops, b.delay_hops);
      EXPECT_EQ(a.duplicate_delay_hops, b.duplicate_delay_hops);
    }
  }
  // Direction, instant, and channel all matter: the fates across a sample
  // of links are not all identical.
  LinkFate fwd = DecideLinkFate(spec, 1, 2, 0.0, 1);
  bool any_differs = false;
  for (HostId from = 0; from < 64 && !any_differs; ++from) {
    LinkFate other = DecideLinkFate(spec, from, from + 1, 0.0, 1);
    any_differs = other.drop != fwd.drop || other.duplicate != fwd.duplicate;
  }
  EXPECT_TRUE(any_differs);
}

TEST(LinkFateTest, RespectsConfiguredRates) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.1;
  spec.delay_rate = 0.2;
  spec.max_delay_hops = 4;
  int drops = 0, duplicates = 0, delays = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    HostId from = static_cast<HostId>(i % 500);
    HostId to = static_cast<HostId>((i * 7 + 1) % 500);
    SimTime t = static_cast<SimTime>(i / 500);
    LinkFate fate = DecideLinkFate(spec, from, to, t, 1);
    if (fate.drop) ++drops;
    if (fate.duplicate) ++duplicates;
    if (fate.delay_hops > 0) ++delays;
    EXPECT_LE(fate.delay_hops, spec.max_delay_hops);
    EXPECT_LE(fate.duplicate_delay_hops, spec.max_delay_hops);
  }
  EXPECT_NEAR(drops / static_cast<double>(kSamples), 0.3, 0.02);
  // Duplication and delay are only observable on messages that survived the
  // drop draw, so their observed rates scale by (1 - drop_rate).
  EXPECT_NEAR(duplicates / static_cast<double>(kSamples), 0.1 * 0.7, 0.02);
  EXPECT_NEAR(delays / static_cast<double>(kSamples), 0.2 * 0.7, 0.02);
}

TEST(LinkFateTest, DisabledSpecNeverFaults) {
  FaultSpec spec;  // all rates zero
  for (int i = 0; i < 1000; ++i) {
    LinkFate fate =
        DecideLinkFate(spec, i, i + 1, static_cast<SimTime>(i), 1);
    EXPECT_FALSE(fate.drop);
    EXPECT_FALSE(fate.duplicate);
    EXPECT_EQ(fate.delay_hops, 0u);
  }
}

TEST(FaultSpecValidateTest, RejectsRatesThatAreNotProbabilities) {
  EXPECT_TRUE(FaultSpec{}.Validate().ok());
  FaultSpec edges;
  edges.drop_rate = 1.0;
  edges.duplicate_rate = 0.0;
  edges.delay_rate = 1.0;
  edges.byzantine_fraction = 1.0;
  EXPECT_TRUE(edges.Validate().ok());

  const double bad[] = {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5,
                        std::numeric_limits<double>::infinity()};
  for (double FaultSpec::*rate :
       {&FaultSpec::drop_rate, &FaultSpec::duplicate_rate,
        &FaultSpec::delay_rate, &FaultSpec::byzantine_fraction}) {
    for (double value : bad) {
      FaultSpec spec;
      spec.*rate = value;
      EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument)
          << value;
    }
  }
}

TEST(LinkFateTest, NegativeZeroSendTimeMatchesPositiveZero) {
  // EventQueue::TimeKey normalizes -0.0 to +0.0; the fate hash must agree
  // or the first tick's faults would depend on how t=0 was computed.
  FaultSpec spec;
  spec.seed = 3;
  spec.drop_rate = 0.5;
  spec.duplicate_rate = 0.5;
  for (HostId from = 0; from < 32; ++from) {
    LinkFate pos = DecideLinkFate(spec, from, from + 1, 0.0, 1);
    LinkFate neg = DecideLinkFate(spec, from, from + 1, -0.0, 1);
    EXPECT_EQ(pos.drop, neg.drop);
    EXPECT_EQ(pos.duplicate, neg.duplicate);
    EXPECT_EQ(pos.delay_hops, neg.delay_hops);
  }
}

TEST(ByzantineMembershipTest, FractionBoundsAndDeterminism) {
  FaultSpec none;
  none.byzantine_mode = ByzantineMode::kInflate;
  none.byzantine_fraction = 0.0;
  FaultSpec all = none;
  all.byzantine_fraction = 1.0;
  FaultSpec some = none;
  some.byzantine_fraction = 0.25;
  some.seed = 5;
  int members = 0;
  for (HostId h = 0; h < 4000; ++h) {
    EXPECT_FALSE(IsByzantineHost(none, h));
    EXPECT_TRUE(IsByzantineHost(all, h));
    bool first = IsByzantineHost(some, h);
    EXPECT_EQ(first, IsByzantineHost(some, h));
    if (first) ++members;
  }
  EXPECT_NEAR(members / 4000.0, 0.25, 0.03);
}

// --- Determinism contract under active faults -----------------------------

class FaultFingerprintTest : public ::testing::Test {
 protected:
  FaultFingerprintTest()
      : graph_(*topology::MakeGnutellaLike(400, 91)),
        engine_(&graph_, MakeZipfValues(400, 91)) {}

  topology::Graph graph_;
  QueryEngine engine_;
};

TEST_F(FaultFingerprintTest, FreshAndReusedRunsAreBitIdenticalUnderFaults) {
  // Every FaultProtoCases() case per fault level. Every session case runs
  // on a simulator dirtied by all previous cases.
  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  for (const auto& [fault_label, fault] : FaultMatrix()) {
    for (const FaultProtoCase& pc : FaultProtoCases()) {
      SCOPED_TRACE(fault_label);
      QuerySpec spec;
      RunConfig config;
      MakeFaultCase(pc, fault, &spec, &config);
      auto fresh = engine_.Run(spec, config, 0);
      ASSERT_TRUE(fresh.ok()) << pc.label;
      auto reused = engine_.Run(&session, spec, config, 0);
      ASSERT_TRUE(reused.ok()) << pc.label;
      ExpectIdentical(*fresh, *reused, pc.label);
    }
  }
  EXPECT_GT(session.epoch(), 25u);
}

TEST_F(FaultFingerprintTest, ConcurrentLanesMatchTheirSoloRunsUnderFaults) {
  FaultSpec fault;
  fault.seed = 21;
  fault.drop_rate = 0.1;
  fault.duplicate_rate = 0.1;
  fault.max_delay_hops = 2;
  fault.delay_rate = 0.15;
  fault.byzantine_mode = ByzantineMode::kInflate;
  fault.byzantine_fraction = 0.1;

  std::vector<QueryEngine::ConcurrentQuery> queries(3);
  queries[0].spec.aggregate = AggregateKind::kCount;
  queries[0].config.protocol = ProtocolKind::kWildfire;
  queries[0].hq = 0;
  queries[1].spec.aggregate = AggregateKind::kSum;
  queries[1].spec.exact_combiners = true;
  queries[1].config.protocol = ProtocolKind::kSpanningTree;
  queries[1].hq = 13;
  queries[2].spec.aggregate = AggregateKind::kCount;
  queries[2].config.protocol = ProtocolKind::kWildfire;
  queries[2].config.sketch_seed = 5;
  queries[2].hq = 42;
  for (auto& q : queries) q.config.fault = fault;

  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  auto concurrent = engine_.RunConcurrent(&session, queries);
  ASSERT_TRUE(concurrent.ok());
  ASSERT_EQ(concurrent->size(), 3u);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto solo = engine_.Run(queries[i].spec, queries[i].config, queries[i].hq);
    ASSERT_TRUE(solo.ok());
    ExpectIdentical(*solo, (*concurrent)[i], "faulted-concurrent-vs-solo");
  }
}

TEST_F(FaultFingerprintTest, ConcurrentLanesMustAgreeOnTheFaultPlane) {
  std::vector<QueryEngine::ConcurrentQuery> queries(2);
  queries[0].config.fault.drop_rate = 0.1;
  queries[1].config.fault.drop_rate = 0.2;  // different weather: rejected
  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  EXPECT_EQ(engine_.RunConcurrent(&session, queries).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FaultFingerprintTest, EveryEntryPointRejectsANaNRateByName) {
  // A NaN rate reads as "no faults" in HasLinkFaults and compares unequal
  // to itself; validation must name the rate instead of reporting a
  // fault-plane disagreement.
  RunConfig config;
  config.fault.drop_rate = std::numeric_limits<double>::quiet_NaN();
  auto expect_rejected = [](const Status& status, const char* path) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << path;
    EXPECT_NE(status.message().find("drop_rate"), std::string::npos)
        << path << ": " << status.message();
  };
  expect_rejected(engine_.Run(QuerySpec{}, config, 0).status(), "fresh");
  sim::SimulatorSession session(&graph_, sim::SimOptions{});
  expect_rejected(engine_.Run(&session, QuerySpec{}, config, 0).status(),
                  "session");
  QueryEngine::ConcurrentQuery q;
  q.config = config;
  expect_rejected(engine_.RunConcurrent(&session, {q, q}).status(),
                  "concurrent");
  QueryService service(&engine_, ServiceOptionsFor(QuerySpec{}, config, 0));
  expect_rejected(service.Submit(0.0, QuerySpec{}, config, 0).status(),
                  "service");
}

TEST(FaultSweepTest, SweepWithFaultAxisIsThreadCountInvariant) {
  topology::Graph g = *topology::MakeRandom(300, 5.0, 42);
  QueryEngine engine(&g, MakeZipfValues(300, 43));
  QuerySpec spec;
  spec.aggregate = AggregateKind::kCount;

  std::vector<ProtocolSpec> lineup;
  lineup.push_back({"wildfire", ProtocolKind::kWildfire,
                    protocols::ProtocolOptions{}});
  lineup.push_back({"gossip", ProtocolKind::kGossip,
                    protocols::ProtocolOptions{}});

  ChurnSweepOptions options;
  options.trials = 3;
  FaultSpec drop;
  drop.drop_rate = 0.1;
  FaultSpec inflate;
  inflate.byzantine_mode = ByzantineMode::kInflate;
  inflate.byzantine_fraction = 0.1;
  options.fault_levels = {FaultSpec{}, drop, inflate};
  const std::vector<uint32_t> removals{0, 40};

  options.threads = 1;
  auto serial = RunChurnSweep(engine, spec, 0, lineup, removals, options);
  options.threads = 4;
  auto parallel = RunChurnSweep(engine, spec, 0, lineup, removals, options);

  ASSERT_EQ(serial.size(),
            options.fault_levels.size() * removals.size() * lineup.size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].protocol, parallel[i].protocol);
    EXPECT_EQ(serial[i].fault, parallel[i].fault);
    EXPECT_EQ(serial[i].removals, parallel[i].removals);
    EXPECT_EQ(serial[i].value.mean, parallel[i].value.mean);
    EXPECT_EQ(serial[i].value.ci95, parallel[i].value.ci95);
    EXPECT_EQ(serial[i].messages.mean, parallel[i].messages.mean);
    EXPECT_EQ(serial[i].within_fraction, parallel[i].within_fraction);
  }
  // The fault label is part of the row, and the clean level is labeled so.
  EXPECT_EQ(serial[0].fault, "none");
  EXPECT_NE(serial[removals.size() * lineup.size()].fault, "none");
}

// --- Degradation semantics ------------------------------------------------

class FaultEffectsTest : public ::testing::Test {
 protected:
  FaultEffectsTest()
      : graph_(*topology::MakeRandom(300, 5.0, 17)),
        engine_(&graph_, std::vector<double>(300, 1.0)) {}

  QueryResult RunWith(const FaultSpec& fault, ProtocolKind kind,
                      bool exact = true, bool piggyback = true) {
    QuerySpec spec;
    spec.aggregate = AggregateKind::kCount;
    spec.exact_combiners = exact;
    RunConfig config;
    config.protocol = kind;
    config.fault = fault;
    config.protocol_options.wildfire.piggyback_broadcast = piggyback;
    auto result = engine_.Run(spec, config, 0);
    VALIDITY_CHECK(result.ok(), "%s", result.status().ToString().c_str());
    return *result;
  }

  topology::Graph graph_;
  QueryEngine engine_;
};

TEST_F(FaultEffectsTest, DropsShrinkTheMonotoneOrMergeAnswer) {
  QueryResult clean = RunWith(FaultSpec{}, ProtocolKind::kWildfire);
  EXPECT_EQ(clean.value, 300.0);
  FaultSpec lossy;
  lossy.seed = 4;
  lossy.drop_rate = 0.5;
  QueryResult dropped = RunWith(lossy, ProtocolKind::kWildfire);
  // Exact union combiner: hq's set is a subset of the clean run's, never
  // more. At 50% loss it is almost surely a strict subset.
  EXPECT_LE(dropped.value, clean.value);
  EXPECT_LT(dropped.value, clean.value);
  EXPECT_GT(dropped.value, 0.0);
}

TEST_F(FaultEffectsTest, DuplicatesAreInvisibleToOrMergeButMoveGossipMass) {
  FaultSpec dup;
  dup.seed = 6;
  dup.duplicate_rate = 0.35;
  dup.max_delay_hops = 0;  // duplicates land at the original instant
  QueryResult wf_clean = RunWith(FaultSpec{}, ProtocolKind::kWildfire);
  QueryResult wf_dup = RunWith(dup, ProtocolKind::kWildfire);
  // FM/union OR-merge is duplicate-insensitive: the answer is EXACTLY the
  // clean one, even though more messages were delivered.
  EXPECT_EQ(wf_dup.value, wf_clean.value);
  EXPECT_GT(wf_dup.cost.messages, wf_clean.cost.messages);

  QueryResult go_clean = RunWith(FaultSpec{}, ProtocolKind::kGossip, false);
  QueryResult go_dup = RunWith(dup, ProtocolKind::kGossip, false);
  // Push-sum conservation is violated by replayed mass: the estimate moves.
  EXPECT_NE(go_dup.value, go_clean.value);
}

TEST_F(FaultEffectsTest, ByzantineInflationOvershootsTheOracle) {
  FaultSpec byz;
  byz.seed = 9;
  byz.byzantine_mode = ByzantineMode::kInflate;
  byz.byzantine_fraction = 0.2;
  // 5x the network: default phantoms (= num_hosts) would land exactly on
  // the 2x approximation-slack boundary.
  byz.inflate_phantoms = 1500;
  QueryResult clean = RunWith(FaultSpec{}, ProtocolKind::kWildfire);
  QueryResult inflated = RunWith(byz, ProtocolKind::kWildfire);
  // Phantom members inflate the union beyond any honest network state.
  EXPECT_GT(inflated.value, clean.value);
  EXPECT_FALSE(inflated.validity.within_slack);
}

TEST_F(FaultEffectsTest, DeadenedRepliesUndercount) {
  FaultSpec byz;
  byz.seed = 14;
  byz.byzantine_mode = ByzantineMode::kDeadenReplies;
  byz.byzantine_fraction = 0.3;
  // Piggyback off: aggregates travel only on reply channels, so a deadened
  // host's subtree contributions genuinely vanish.
  QueryResult clean =
      RunWith(FaultSpec{}, ProtocolKind::kWildfire, true, false);
  QueryResult deadened = RunWith(byz, ProtocolKind::kWildfire, true, false);
  EXPECT_LE(deadened.value, clean.value);
  EXPECT_LT(deadened.value, clean.value);
}

TEST_F(FaultEffectsTest, StaleReplayIsDeterministicAndBounded) {
  FaultSpec byz;
  byz.seed = 15;
  byz.byzantine_mode = ByzantineMode::kStaleReplay;
  byz.byzantine_fraction = 0.3;
  QueryResult a = RunWith(byz, ProtocolKind::kWildfire);
  QueryResult b = RunWith(byz, ProtocolKind::kWildfire);
  ExpectIdentical(a, b, "stale-replay-repeat");
  // Replaying a host's own earlier (honest) state can stall convergence but
  // cannot invent members: the union stays within the true count.
  EXPECT_GT(a.value, 0.0);
  EXPECT_LE(a.value, 300.0);
}

// --- Reset mid-fault-storm ------------------------------------------------

/// Hop-limited flood with no duplicate suppression: under heavy duplicate
/// and delay faults the queue holds a deep backlog of slab-referencing
/// deliveries at any instant.
class FloodProgram : public sim::HostProgram {
 public:
  explicit FloodProgram(sim::Simulator* sim) : sim_(sim) {}
  void OnMessage(HostId self, const sim::Message& msg) override {
    int32_t hop = msg.LoadInline<int32_t>();
    if (hop >= 4) return;
    sim::Message next;
    next.kind = 1;
    next.StoreInline<int32_t>(hop + 1, sizeof(int32_t));
    sim_->SendToNeighbors(self, next);
  }

 private:
  sim::Simulator* sim_;
};

TEST(FaultStormResetTest, SessionResetMidStormReleasesEveryMessageSlot) {
  topology::Graph g = *topology::MakeRandom(300, 5.0, 5);
  QueryEngine engine(&g, std::vector<double>(300, 1.0));
  sim::SimulatorSession session(&g, sim::SimOptions{});

  auto fresh = engine.Run(QuerySpec{}, RunConfig{}, 0);
  ASSERT_TRUE(fresh.ok());

  // Storm: a fanning flood under heavy duplication and delay, abandoned
  // mid-flight with delayed/duplicated deliveries still pending. The reset
  // must release every slab reference they hold (Simulator::Reset DCHECKs
  // refs == 0; ASan in CI catches anything the slab loop missed).
  sim::FaultSpec storm;
  storm.seed = 99;
  storm.drop_rate = 0.2;
  storm.duplicate_rate = 0.4;
  storm.delay_rate = 0.4;
  storm.max_delay_hops = 4;
  sim::Simulator& sim = session.simulator();
  sim.InstallFaults(&storm);
  FloodProgram flood(&sim);
  sim.AttachProgram(&flood);
  sim::Message msg;
  msg.kind = 1;
  msg.StoreInline<int32_t>(0, sizeof(int32_t));
  sim.SendToNeighbors(0, msg);
  sim.RunUntil(2.0);
  EXPECT_GT(sim.metrics().messages_sent(), 0u);
  sim.AttachProgram(nullptr);
  session.Reset();

  // The storm left nothing behind: the next query on the session is
  // bit-identical to the pre-storm fresh run, and the fault plane is gone.
  EXPECT_EQ(sim.faults(), nullptr);
  auto after = engine.Run(&session, QuerySpec{}, RunConfig{}, 0);
  ASSERT_TRUE(after.ok());
  ExpectIdentical(*fresh, *after, "post-storm-session-vs-fresh");
}

// --- Runtime joins under a continuous query on a long-lived session -------

TEST(FaultSessionTest, RuntimeJoinsUnderContinuousQueryMatchFreshRun) {
  topology::Graph g = *topology::MakeRandom(200, 5.0, 71);
  // Values sized past the base network so joined hosts have attributes.
  std::vector<double> values(210, 1.0);
  QueryEngine engine(&g, std::vector<double>(200, 1.0));

  // Long-lived session, dirtied by a normal query first.
  sim::SimulatorSession session(&g, sim::SimOptions{});
  ASSERT_TRUE(engine.Run(&session, QuerySpec{}, RunConfig{}, 0).ok());
  session.Reset();

  const double d_hat = 10;
  const double window = 25;
  const uint32_t num_windows = 4;
  auto make_ctx = [&values, d_hat] {
    protocols::QueryContext ctx;
    ctx.aggregate = AggregateKind::kCount;
    ctx.combiner = protocols::CombinerKind::kUnionCount;
    ctx.values = &values;
    ctx.d_hat = d_hat;
    ctx.fm.num_vectors = 16;
    return ctx;
  };
  // The same join script on both runs: five hosts join mid-window-2, each
  // wired to well-known anchors near hq.
  auto schedule_joins = [](sim::Simulator* sim) {
    for (uint32_t j = 0; j < 5; ++j) {
      sim->ScheduleAt(30.0 + 0.5 * j, [sim, j] {
        auto joined = sim->AddHost({j, j + 1, j + 2});
        VALIDITY_CHECK(joined.ok(), "join failed");
      });
    }
  };

  sim::Simulator& warm = session.simulator();
  protocols::ContinuousWildfire on_session(
      &warm, make_ctx(), protocols::ContinuousOptions{window, num_windows});
  schedule_joins(&warm);
  ASSERT_TRUE(on_session.Start(0).ok());
  warm.Run();

  sim::Simulator fresh(g, sim::SimOptions{});
  protocols::ContinuousWildfire on_fresh(
      &fresh, make_ctx(), protocols::ContinuousOptions{window, num_windows});
  schedule_joins(&fresh);
  ASSERT_TRUE(on_fresh.Start(0).ok());
  fresh.Run();

  ASSERT_EQ(on_session.results().size(), num_windows);
  ASSERT_EQ(on_fresh.results().size(), num_windows);
  for (uint32_t w = 0; w < num_windows; ++w) {
    const auto& a = on_session.results()[w];
    const auto& b = on_fresh.results()[w];
    ASSERT_TRUE(a.declared) << "window " << w;
    EXPECT_EQ(a.issued_at, b.issued_at);
    EXPECT_EQ(a.declared_at, b.declared_at);
    EXPECT_EQ(a.value, b.value);
  }
  // Windows before the joins count the base network; windows after count
  // the joined hosts too (exact union combiner).
  EXPECT_EQ(on_session.results().front().value, 200.0);
  EXPECT_EQ(on_session.results().back().value, 205.0);

  // The joins rewind with the session: the next epoch sees the base graph.
  warm.AttachProgram(nullptr);
  session.Reset();
  EXPECT_EQ(warm.num_hosts(), 200u);
  auto plain = engine.Run(QuerySpec{}, RunConfig{}, 0);
  auto reused = engine.Run(&session, QuerySpec{}, RunConfig{}, 0);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(reused.ok());
  ExpectIdentical(*plain, *reused, "post-join-session-vs-fresh");
}

}  // namespace
}  // namespace validity::core
