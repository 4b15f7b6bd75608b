// Shared fingerprint fixtures for the determinism-contract tests: the
// 34-case (spec, config, hq) matrix, the fault matrix (6 fault specs x 5
// protocol cases), the reference column every entry point is held against,
// and the field-for-field QueryResult comparison. Used by
// tests/session_test.cc (reference == fresh == session-reused == service),
// tests/query_service_test.cc, tests/fault_test.cc,
// tests/fingerprint_fuzz_test.cc (the randomized differential harness over
// the same comparator) and tests/golden_fingerprint_test.cc (the same cases
// held against digests recorded at an earlier commit).

#ifndef VALIDITY_TESTS_FINGERPRINT_MATRIX_H_
#define VALIDITY_TESTS_FINGERPRINT_MATRIX_H_

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/run_internal.h"
#include "protocols/factory.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace validity::core {

struct Case {
  const char* label;
  QuerySpec spec;
  RunConfig config;
  HostId hq = 0;
};

/// The 34-case (spec, config, hq) matrix: every protocol, exact and FM
/// combiners, all five aggregates, churn, the WILDFIRE option ablations,
/// report routing, DAG fan-in, tree pacing, and the wireless medium.
inline std::vector<Case> FingerprintMatrix() {
  using protocols::ProtocolKind;
  std::vector<Case> cases;
  auto add = [&cases](const char* label, ProtocolKind kind, AggregateKind agg,
                      bool exact, uint32_t removals, HostId hq) {
    Case c;
    c.label = label;
    c.spec.aggregate = agg;
    c.spec.exact_combiners = exact;
    c.config.protocol = kind;
    c.config.churn_removals = removals;
    c.hq = hq;
    cases.push_back(c);
  };

  // Every protocol: failure-free count, exact and FM combiners. (10)
  for (auto kind :
       {ProtocolKind::kAllReport, ProtocolKind::kRandomizedReport,
        ProtocolKind::kSpanningTree, ProtocolKind::kDag,
        ProtocolKind::kWildfire}) {
    add("count-exact", kind, AggregateKind::kCount, true, 0, 0);
    add("count-fm", kind, AggregateKind::kCount, false, 0, 0);
  }
  // Every protocol under churn. (5)
  for (auto kind :
       {ProtocolKind::kAllReport, ProtocolKind::kRandomizedReport,
        ProtocolKind::kSpanningTree, ProtocolKind::kDag,
        ProtocolKind::kWildfire}) {
    add("count-churn", kind, AggregateKind::kCount, true, 100, 0);
  }
  // WILDFIRE across the aggregate vocabulary (min/max ride inline). (4)
  add("wf-sum", ProtocolKind::kWildfire, AggregateKind::kSum, false, 0, 0);
  add("wf-min", ProtocolKind::kWildfire, AggregateKind::kMin, false, 0, 0);
  add("wf-max", ProtocolKind::kWildfire, AggregateKind::kMax, false, 0, 0);
  add("wf-avg", ProtocolKind::kWildfire, AggregateKind::kAverage, false, 0, 0);
  // DAG and SPANNINGTREE aggregate coverage. (4)
  add("dag-sum", ProtocolKind::kDag, AggregateKind::kSum, false, 0, 0);
  add("dag-min", ProtocolKind::kDag, AggregateKind::kMin, true, 0, 0);
  add("tree-sum", ProtocolKind::kSpanningTree, AggregateKind::kSum, true, 0,
      0);
  add("tree-avg", ProtocolKind::kSpanningTree, AggregateKind::kAverage, true,
      0, 0);
  // ALL-REPORT sum + reverse-path routing under churn. (2)
  add("ar-sum", ProtocolKind::kAllReport, AggregateKind::kSum, true, 0, 0);
  add("ar-reverse", ProtocolKind::kAllReport, AggregateKind::kCount, true, 60,
      0);
  cases.back().config.protocol_options.all_report.routing =
      protocols::ReportRouting::kReversePath;
  // WILDFIRE option ablations. (3)
  add("wf-no-piggyback", ProtocolKind::kWildfire, AggregateKind::kCount,
      false, 0, 0);
  cases.back().config.protocol_options.wildfire.piggyback_broadcast = false;
  add("wf-no-early-term", ProtocolKind::kWildfire, AggregateKind::kCount,
      false, 50, 0);
  cases.back().config.protocol_options.wildfire.early_termination = false;
  add("wf-no-coalesce", ProtocolKind::kWildfire, AggregateKind::kCount, false,
      0, 0);
  cases.back().config.protocol_options.wildfire.coalesce_floods = false;
  // DAG k=3 and eager tree pacing. (2)
  add("dag-k3", ProtocolKind::kDag, AggregateKind::kCount, true, 80, 0);
  cases.back().config.protocol_options.dag.max_parents = 3;
  add("tree-eager", ProtocolKind::kSpanningTree, AggregateKind::kCount, true,
      80, 0);
  cases.back().config.protocol_options.spanning_tree.pacing =
      protocols::TreePacing::kEager;
  // Wireless medium. (1)
  add("wf-wireless", ProtocolKind::kWildfire, AggregateKind::kCount, false, 0,
      0);
  cases.back().config.sim_options.medium = sim::MediumKind::kWireless;
  // Churned FM sum + distinct seeds. (1)
  add("wf-churn-sum", ProtocolKind::kWildfire, AggregateKind::kSum, false,
      150, 0);
  cases.back().config.churn_seed = 77;
  cases.back().config.sketch_seed = 78;
  // Randomized sum under churn. (1)
  add("rr-churn-sum", ProtocolKind::kRandomizedReport, AggregateKind::kSum,
      false, 90, 0);
  // A different querying host. (1)
  add("wf-hq7", ProtocolKind::kWildfire, AggregateKind::kCount, false, 40, 7);
  return cases;
}

/// One level per fault mode, plus mixed weather and faults-under-churn.
inline std::vector<std::pair<const char*, sim::FaultSpec>> FaultMatrix() {
  using sim::ByzantineMode;
  using sim::FaultSpec;
  std::vector<std::pair<const char*, FaultSpec>> specs;
  FaultSpec drop;
  drop.seed = 7;
  drop.drop_rate = 0.15;
  specs.emplace_back("drop", drop);
  FaultSpec dup;
  dup.seed = 8;
  dup.duplicate_rate = 0.2;
  dup.delay_rate = 0.25;
  dup.max_delay_hops = 3;
  specs.emplace_back("dup+delay", dup);
  FaultSpec inflate;
  inflate.seed = 10;
  inflate.byzantine_mode = ByzantineMode::kInflate;
  inflate.byzantine_fraction = 0.15;
  specs.emplace_back("byz-inflate", inflate);
  FaultSpec deaden;
  deaden.seed = 11;
  deaden.byzantine_mode = ByzantineMode::kDeadenReplies;
  deaden.byzantine_fraction = 0.25;
  specs.emplace_back("byz-deaden", deaden);
  FaultSpec stale;
  stale.seed = 12;
  stale.byzantine_mode = ByzantineMode::kStaleReplay;
  stale.byzantine_fraction = 0.25;
  specs.emplace_back("byz-stale", stale);
  FaultSpec weather;
  weather.seed = 13;
  weather.drop_rate = 0.08;
  weather.duplicate_rate = 0.05;
  weather.delay_rate = 0.1;
  weather.max_delay_hops = 2;
  weather.byzantine_mode = ByzantineMode::kInflate;
  weather.byzantine_fraction = 0.1;
  specs.emplace_back("weather", weather);
  return specs;
}

/// The protocol cases run under every FaultMatrix() level: WILDFIRE/FM,
/// WILDFIRE/exact under churn (faults and churn composed),
/// SPANNINGTREE/exact, GOSSIP, DAG — body-path, inline wire, and
/// mass-based traffic all covered.
struct FaultProtoCase {
  const char* label;
  protocols::ProtocolKind kind;
  AggregateKind agg;
  bool exact;
  uint32_t removals;
};

inline std::vector<FaultProtoCase> FaultProtoCases() {
  using protocols::ProtocolKind;
  return {
      {"wf-fm", ProtocolKind::kWildfire, AggregateKind::kCount, false, 0},
      {"wf-churn", ProtocolKind::kWildfire, AggregateKind::kSum, true, 60},
      {"tree", ProtocolKind::kSpanningTree, AggregateKind::kCount, true, 0},
      {"gossip", ProtocolKind::kGossip, AggregateKind::kCount, false, 0},
      {"dag", ProtocolKind::kDag, AggregateKind::kCount, false, 0},
  };
}

/// The (spec, config) of one fault-matrix case; hq is 0.
inline void MakeFaultCase(const FaultProtoCase& pc, const sim::FaultSpec& fault,
                          QuerySpec* spec, RunConfig* config) {
  spec->aggregate = pc.agg;
  spec->exact_combiners = pc.exact;
  config->protocol = pc.kind;
  config->churn_removals = pc.removals;
  config->fault = fault;
}

/// The reference column: the query's protocol run directly on a fresh
/// sim::Simulator through AttachProgram, its tick series anchored at
/// `start_at`, with Run() draining the queue dry — no lanes, no
/// quiescence bound. Every entry point runs its queries as lanes on one
/// shared core, so comparing entry points with each other cannot catch a
/// lane retired too early; comparing each with this column can.
inline QueryResult ReferenceRun(const QueryEngine& engine,
                                const QuerySpec& spec,
                                const RunConfig& config, HostId hq,
                                SimTime start_at = 0.0) {
  internal::RunPlan plan;
  Status status = internal::PlanRun(engine, spec, config, hq, &plan);
  EXPECT_TRUE(status.ok()) << status.message();
  if (!status.ok()) return QueryResult();

  sim::SimOptions options = config.sim_options;
  options.failure_detection = plan.failure_detection;
  sim::Simulator simulator(engine.topology(), options);
  if (config.fault.HasLinkFaults()) {
    simulator.InstallFaults(&config.fault);
  }
  internal::ScheduleConfiguredChurn(engine, &simulator, config, plan.d_hat,
                                    hq);
  simulator.metrics().Reset(simulator.num_hosts(), start_at);
  std::unique_ptr<protocols::ProtocolBase> protocol = protocols::MakeProtocol(
      config.protocol, &simulator, plan.ctx, plan.protocol_options);
  internal::ByzantineRig rig;
  simulator.AttachProgram(internal::MaybeInterpose(
      config.protocol, config.fault, plan.ctx.combiner, plan.ctx.fm,
      simulator.num_hosts(), protocol.get(), hq, &rig));
  if (start_at == 0.0) {
    protocol->Start(hq);
  } else {
    simulator.ScheduleAt(start_at, [&protocol, hq] { protocol->Start(hq); });
  }
  simulator.Run();
  return internal::HarvestResult(engine, simulator, simulator.metrics(),
                                 *protocol, spec, config, plan.d_hat, hq,
                                 start_at);
}

/// The determinism contract's comparator: every QueryResult field, exact.
inline void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                            const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.declared, b.declared);
  EXPECT_EQ(a.d_hat_used, b.d_hat_used);
  EXPECT_EQ(a.exact_full, b.exact_full);
  EXPECT_EQ(a.cost.messages, b.cost.messages);
  EXPECT_EQ(a.cost.bytes, b.cost.bytes);
  EXPECT_EQ(a.cost.max_processed, b.cost.max_processed);
  EXPECT_EQ(a.cost.declared_at, b.cost.declared_at);
  EXPECT_EQ(a.cost.last_update_at, b.cost.last_update_at);
  EXPECT_EQ(a.cost.sends_per_tick, b.cost.sends_per_tick);
  EXPECT_EQ(a.cost.computation_histogram.Items(),
            b.cost.computation_histogram.Items());
  EXPECT_EQ(a.validity.q_low, b.validity.q_low);
  EXPECT_EQ(a.validity.q_high, b.validity.q_high);
  EXPECT_EQ(a.validity.hc_size, b.validity.hc_size);
  EXPECT_EQ(a.validity.hu_size, b.validity.hu_size);
  EXPECT_EQ(a.validity.within, b.validity.within);
  EXPECT_EQ(a.validity.within_slack, b.validity.within_slack);
  EXPECT_EQ(a.resident_state_bytes, b.resident_state_bytes);
}

}  // namespace validity::core

#endif  // VALIDITY_TESTS_FINGERPRINT_MATRIX_H_
