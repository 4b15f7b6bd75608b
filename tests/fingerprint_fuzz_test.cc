// Randomized differential fingerprint harness: N seeded cases drawn over
// (topology kind and size, protocol, aggregate, combiner family, churn,
// fault spec, start time, querying host), each executed four ways —
//
//   fresh          the reference column (tests/fingerprint_matrix.h):
//                  the protocol run directly on a simulator, started at
//                  the drawn time, its queue drained dry — no lanes,
//   session        the same query as a lane on a new session, then re-run
//                  on the session that first run dirtied (warm pages,
//                  parked protocols),
//   concurrent     the same query sharing a timeline with a companion
//                  query on the same session,
//   service        the same query submitted to a QueryService at the same
//                  arrival time and drained —
//
// and all four results compared field for field (the determinism contract,
// docs/SERVICE.md). Every lane column must also leave no traffic behind its
// lanes (Simulator::unrouted_events() == 0). A failing
// case prints a self-contained repro recipe: its generator seed and every
// drawn parameter.
//
// Case count: VALIDITY_FUZZ_DEFAULT_CASES at compile time (the
// VALIDITY_FUZZ_CASES CMake cache variable, default 200; CI's nightly mode
// raises it to 2000), overridable at runtime via the VALIDITY_FUZZ_CASES
// environment variable. VALIDITY_FUZZ_SEED re-bases the generator and
// VALIDITY_FUZZ_CASE reruns a single case by index.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query_service.h"
#include "fingerprint_matrix.h"
#include "protocols/flood_report.h"
#include "sim/session.h"
#include "topology/generators.h"
#include "topology/topology.h"

#ifndef VALIDITY_FUZZ_DEFAULT_CASES
#define VALIDITY_FUZZ_DEFAULT_CASES 200
#endif

namespace validity::core {
namespace {

using protocols::ProtocolKind;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

struct FuzzCase {
  std::string topology_label;
  // The engine owns the topology handle; graph-backed kinds keep the graph
  // alive here.
  std::unique_ptr<topology::Graph> graph;
  std::unique_ptr<QueryEngine> engine;
  uint32_t num_hosts = 0;
  QuerySpec spec;
  RunConfig config;
  HostId hq = 0;
  SimTime start_at = 0.0;
  // RANDOMIZEDREPORT drawn with options that give p < 1.
  bool sampled_report = false;
};

const char* ProtocolName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kAllReport: return "all_report";
    case ProtocolKind::kRandomizedReport: return "randomized_report";
    case ProtocolKind::kSpanningTree: return "spanning_tree";
    case ProtocolKind::kDag: return "dag";
    case ProtocolKind::kWildfire: return "wildfire";
    case ProtocolKind::kGossip: return "gossip";
  }
  return "?";
}

const char* AggregateName(AggregateKind agg) {
  switch (agg) {
    case AggregateKind::kCount: return "count";
    case AggregateKind::kSum: return "sum";
    case AggregateKind::kMin: return "min";
    case AggregateKind::kMax: return "max";
    case AggregateKind::kAverage: return "average";
  }
  return "?";
}

/// Draws one case. Pure function of `seed` — the repro contract.
FuzzCase DrawCase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  auto pick = [&rng](uint32_t lo, uint32_t hi) {  // inclusive
    return std::uniform_int_distribution<uint32_t>(lo, hi)(rng);
  };

  FuzzCase c;
  // Topology: two graph families, three implicit families.
  const uint32_t topo_kind = pick(0, 4);
  switch (topo_kind) {
    case 0: {
      const uint32_t n = pick(64, 300);
      c.graph = std::make_unique<topology::Graph>(
          *topology::MakeGnutellaLike(n, rng()));
      c.num_hosts = n;
      c.topology_label = "gnutella(" + std::to_string(n) + ")";
      break;
    }
    case 1: {
      const uint32_t n = pick(64, 300);
      const double degree = uniform(3.0, 6.0);
      c.graph = std::make_unique<topology::Graph>(
          *topology::MakeRandom(n, degree, rng()));
      c.num_hosts = n;
      c.topology_label = "random(" + std::to_string(n) + ")";
      break;
    }
    case 2: {
      const uint32_t side = pick(8, 17);
      c.num_hosts = side * side;
      c.topology_label = "grid(" + std::to_string(side) + ")";
      break;
    }
    case 3: {
      const uint32_t n = pick(64, 160);
      c.num_hosts = n;
      c.topology_label = "ring(" + std::to_string(n) + ")";
      break;
    }
    default: {
      const uint32_t side = pick(8, 14);
      c.num_hosts = side * side;
      c.topology_label = "torus(" + std::to_string(side) + ")";
      break;
    }
  }
  const uint64_t value_seed = rng();
  std::vector<double> values = MakeZipfValues(c.num_hosts, value_seed);
  if (c.graph != nullptr) {
    c.engine = std::make_unique<QueryEngine>(c.graph.get(), std::move(values));
  } else if (topo_kind == 2) {
    const uint32_t side = static_cast<uint32_t>(std::sqrt(c.num_hosts));
    c.engine = std::make_unique<QueryEngine>(*topology::Topology::Grid(side),
                                             std::move(values));
  } else if (topo_kind == 3) {
    c.engine = std::make_unique<QueryEngine>(
        *topology::Topology::Ring(c.num_hosts), std::move(values));
  } else {
    const uint32_t side = static_cast<uint32_t>(std::sqrt(c.num_hosts));
    c.engine = std::make_unique<QueryEngine>(*topology::Topology::Torus(side),
                                             std::move(values));
  }

  // Protocol + aggregate, respecting protocol vocabularies.
  const ProtocolKind kinds[] = {
      ProtocolKind::kAllReport,    ProtocolKind::kRandomizedReport,
      ProtocolKind::kSpanningTree, ProtocolKind::kDag,
      ProtocolKind::kWildfire,     ProtocolKind::kGossip};
  c.config.protocol = kinds[pick(0, 5)];
  const AggregateKind aggs[] = {AggregateKind::kCount, AggregateKind::kSum,
                                AggregateKind::kMin, AggregateKind::kMax,
                                AggregateKind::kAverage};
  c.spec.aggregate = aggs[pick(0, 4)];
  c.spec.exact_combiners = pick(0, 1) == 1;
  if (c.config.protocol == ProtocolKind::kRandomizedReport ||
      c.config.protocol == ProtocolKind::kGossip) {
    c.spec.aggregate = pick(0, 1) == 0 ? AggregateKind::kCount
                                       : AggregateKind::kSum;
  }
  // Half the RANDOMIZEDREPORT cases sample: eps 0.3 (as in the golden
  // report-family table) and n_estimate 4n give p = 41 / n, at most 0.64.
  // The defaults give p = 1, where every host reports.
  if (c.config.protocol == ProtocolKind::kRandomizedReport &&
      pick(0, 1) == 1) {
    c.sampled_report = true;
    c.config.protocol_options.randomized.epsilon = 0.3;
    c.config.protocol_options.randomized.n_estimate = 4.0 * c.num_hosts;
  }
  if (c.config.protocol == ProtocolKind::kGossip) {
    c.spec.exact_combiners = false;
    c.config.protocol_options.gossip.rounds = pick(8, 16);
  }
  c.spec.fm_vectors = 8u << pick(0, 2);  // 8, 16, or 32
  c.config.sketch_seed = rng();

  // Wireless medium: wildfire on graph-backed topologies only.
  if (c.config.protocol == ProtocolKind::kWildfire && c.graph != nullptr &&
      pick(0, 9) == 0) {
    c.config.sim_options.medium = sim::MediumKind::kWireless;
  }

  // Churn on half the cases.
  if (pick(0, 1) == 1) {
    c.config.churn_removals = pick(1, c.num_hosts / 3);
    c.config.churn_seed = rng();
    if (pick(0, 3) == 0) {
      c.config.churn_start_frac = 0.25;
      c.config.churn_end_frac = 0.75;
    }
  }

  // Link faults on ~40% of cases, byzantine hosts on ~20%.
  if (pick(0, 4) < 2) {
    c.config.fault.seed = rng();
    if (pick(0, 1) == 1) c.config.fault.drop_rate = uniform(0.01, 0.12);
    if (pick(0, 1) == 1) c.config.fault.duplicate_rate = uniform(0.01, 0.1);
    if (pick(0, 1) == 1) c.config.fault.delay_rate = uniform(0.01, 0.12);
    c.config.fault.max_delay_hops = pick(1, 3);
  }
  if (pick(0, 4) == 0) {
    c.config.fault.seed = c.config.fault.seed != 0 ? c.config.fault.seed
                                                   : rng();
    const sim::ByzantineMode modes[] = {sim::ByzantineMode::kInflate,
                                        sim::ByzantineMode::kDeadenReplies,
                                        sim::ByzantineMode::kStaleReplay};
    c.config.fault.byzantine_mode = modes[pick(0, 2)];
    c.config.fault.byzantine_fraction = uniform(0.03, 0.15);
  }

  c.hq = pick(0, c.num_hosts - 1);
  // Half the cases arrive mid-timeline, staggered off the tick comb.
  c.start_at = pick(0, 1) == 1 ? uniform(0.25, 20.0) : 0.0;
  return c;
}

std::string DescribeCase(const FuzzCase& c, uint64_t seed, uint64_t index) {
  std::ostringstream out;
  out << "fuzz case #" << index << " (generator seed " << seed
      << ")\n  repro: VALIDITY_FUZZ_SEED="
      << EnvOr("VALIDITY_FUZZ_SEED", 0x5eed4002) << " VALIDITY_FUZZ_CASE="
      << index << " ./fingerprint_fuzz_test"
      << "\n  topology=" << c.topology_label
      << " protocol=" << ProtocolName(c.config.protocol)
      << " aggregate=" << AggregateName(c.spec.aggregate)
      << (c.spec.exact_combiners ? " exact" : " fm")
      << " fm_vectors=" << c.spec.fm_vectors;
  if (c.config.protocol == ProtocolKind::kRandomizedReport) {
    out << " rr_epsilon=" << c.config.protocol_options.randomized.epsilon
        << " rr_n_estimate=" << c.config.protocol_options.randomized.n_estimate;
  }
  out << "\n  sketch_seed=" << c.config.sketch_seed << " hq=" << c.hq
      << " start_at=" << c.start_at
      << " medium=" << (c.config.sim_options.medium ==
                        sim::MediumKind::kWireless ? "wireless" : "p2p")
      << "\n  churn_removals=" << c.config.churn_removals
      << " churn_seed=" << c.config.churn_seed
      << " churn_window=[" << c.config.churn_start_frac << ","
      << c.config.churn_end_frac << "]"
      << "\n  fault={seed=" << c.config.fault.seed
      << " drop=" << c.config.fault.drop_rate
      << " dup=" << c.config.fault.duplicate_rate
      << " delay=" << c.config.fault.delay_rate
      << " max_delay_hops=" << c.config.fault.max_delay_hops
      << " byz=" << sim::ByzantineModeName(c.config.fault.byzantine_mode)
      << " byz_frac=" << c.config.fault.byzantine_fraction << "}";
  return out.str();
}

// The report probability a RANDOMIZEDREPORT case runs with, from a protocol
// built from the case's plan exactly as every entry point builds it.
double ReportProbability(const QueryEngine& engine, const FuzzCase& c) {
  internal::RunPlan plan;
  const Status status =
      internal::PlanRun(engine, c.spec, c.config, c.hq, &plan);
  EXPECT_TRUE(status.ok()) << status.message();
  sim::Simulator simulator(engine.topology(), c.config.sim_options);
  protocols::RandomizedReportProtocol protocol(
      &simulator, plan.ctx, plan.protocol_options.randomized);
  return protocol.report_probability();
}

TEST(FingerprintFuzzTest, FourColumnsAgreeAcrossRandomCases) {
  const uint64_t base_seed = EnvOr("VALIDITY_FUZZ_SEED", 0x5eed4002);
  const uint64_t num_cases =
      EnvOr("VALIDITY_FUZZ_CASES", VALIDITY_FUZZ_DEFAULT_CASES);
  const uint64_t only_case = EnvOr("VALIDITY_FUZZ_CASE", ~0ull);

  uint64_t sampled_reports = 0;
  for (uint64_t i = 0; i < num_cases; ++i) {
    if (only_case != ~0ull && i != only_case) continue;
    const uint64_t case_seed = base_seed + 0xF1F2F3F5ull * i;
    FuzzCase c = DrawCase(case_seed);
    SCOPED_TRACE(DescribeCase(c, case_seed, i));
    QueryEngine& engine = *c.engine;
    if (c.sampled_report) {
      ++sampled_reports;
      EXPECT_LT(ReportProbability(engine, c), 1.0);
    }

    QueryEngine::ConcurrentQuery q;
    q.spec = c.spec;
    q.config = c.config;
    q.hq = c.hq;
    q.start_at = c.start_at;

    // Column A: the reference.
    const QueryResult fresh =
        ReferenceRun(engine, c.spec, c.config, c.hq, c.start_at);

    // Column B: the same query on a new session, then again on the session
    // its first run dirtied.
    sim::SimulatorSession session(engine.topology(), c.config.sim_options);
    auto first = engine.RunConcurrent(&session, {q});
    ASSERT_TRUE(first.ok()) << first.status().message();
    ExpectIdentical(fresh, (*first)[0], "fresh-vs-new-session");
    EXPECT_EQ(session.simulator().unrouted_events(), 0u) << "new session";
    auto reused = engine.RunConcurrent(&session, {q});
    ASSERT_TRUE(reused.ok()) << reused.status().message();
    ExpectIdentical(fresh, (*reused)[0], "fresh-vs-session");
    EXPECT_EQ(session.simulator().unrouted_events(), 0u) << "session";

    // Column C: sharing the timeline with a companion query (same spec,
    // different sketch stream, issued at t=0).
    QueryEngine::ConcurrentQuery companion = q;
    companion.config.sketch_seed = c.config.sketch_seed + 1;
    companion.start_at = 0.0;
    auto concurrent = engine.RunConcurrent(&session, {q, companion});
    ASSERT_TRUE(concurrent.ok()) << concurrent.status().message();
    ExpectIdentical(fresh, (*concurrent)[0], "fresh-vs-concurrent");
    EXPECT_EQ(session.simulator().unrouted_events(), 0u) << "concurrent";

    // Column D: submitted to a QueryService at the same arrival time.
    QueryService service(&engine, ServiceOptionsFor(c.spec, c.config, c.hq));
    auto id = service.Submit(c.start_at, c.spec, c.config, c.hq);
    ASSERT_TRUE(id.ok()) << id.status().message();
    service.Drain();
    QueryService::Completion done;
    ASSERT_TRUE(service.Poll(&done));
    EXPECT_EQ(done.started_at, c.start_at);
    ExpectIdentical(fresh, done.result, "fresh-vs-service");
    EXPECT_EQ(service.session().simulator().unrouted_events(), 0u)
        << "service";
  }
  // About one case in twelve; the default 200 cases must include some.
  if (only_case == ~0ull && num_cases >= 200) {
    EXPECT_GT(sampled_reports, 0u);
  }
}

}  // namespace
}  // namespace validity::core
