// QueryEngine: the library's main entry point.
//
// Owns a topology and per-host attribute values, runs one-shot aggregate
// queries under configurable protocols/churn, and returns the declared value
// together with the paper's three cost measures (§6.3) and the ORACLE
// validity interval (§6.2).
//
//   topology::Graph g = *topology::MakeRandom(10'000, 5.0, seed);
//   core::QueryEngine engine(&g, core::MakeZipfValues(10'000, seed));
//   auto result = engine.Run(spec, run_config, /*hq=*/0);
//   // result->value, result->cost.messages, result->validity.within ...
//
// Every query runs the same way: as a lane on a QueryService timeline
// (core/query_service.h), which validates it, opens its lane, retires the
// lane once the simulator sees it quiet (and its horizon has passed),
// harvests the result, and parks the protocol. The entry points here only choose the timeline: RunConcurrent
// is a closed batch on a borrowed session, Run(&session) a one-query batch,
// and the fresh Run the same batch on a temporary session.

#ifndef VALIDITY_CORE_ENGINE_H_
#define VALIDITY_CORE_ENGINE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "core/query.h"
#include "protocols/oracle.h"
#include "sim/session.h"
#include "topology/topology.h"

namespace validity::core {

/// Paper §6.3 cost measures for one run.
struct CostReport {
  /// Communication cost: messages sent (wireless transmissions count once).
  uint64_t messages = 0;
  /// Total bytes across those messages.
  uint64_t bytes = 0;
  /// Computation cost: max messages processed by any single host.
  uint64_t max_processed = 0;
  /// Time cost: when hq declared the result.
  SimTime declared_at = 0;
  /// End of the last causal message chain that changed hq's answer (the
  /// §6.3 chain-length time metric; < declared_at for protocols that sit
  /// out a declaration timer, like slotted SPANNINGTREE or WILDFIRE with an
  /// overestimated D-hat).
  SimTime last_update_at = 0;
  /// Messages sent during tick [i, i+1) (Fig. 13(b) series).
  std::vector<uint64_t> sends_per_tick;
  /// processed-message count -> number of hosts (Fig. 12 distribution).
  Histogram computation_histogram;
};

/// The result against the ORACLE's Single-Site Validity interval.
struct ValidityReport {
  double q_low = 0.0;
  double q_high = 0.0;
  uint64_t hc_size = 0;
  uint64_t hu_size = 0;
  /// v in [q_low, q_high] exactly.
  bool within = false;
  /// v in the interval up to the multiplicative sketch slack
  /// (kApproxSlackFactor); meaningful for FM-based answers.
  bool within_slack = false;
};

struct QueryResult {
  double value = 0.0;
  bool declared = false;
  CostReport cost;
  /// Populated only when RunConfig.compute_validity (the default); an
  /// all-zero report otherwise.
  ValidityReport validity;
  /// The exact aggregate over all initially-alive hosts (ground truth for
  /// relative-error reporting). 0 when compute_validity is off.
  double exact_full = 0.0;
  /// D-hat actually used (useful when QuerySpec.d_hat was 0 = auto).
  double d_hat_used = 0.0;
  /// Bytes of per-host protocol state the run materialized. Protocol state
  /// is paged lazily, so this tracks the hosts the query touched, not the
  /// network size.
  size_t resident_state_bytes = 0;
};

/// Multiplicative slack granted to approximate answers in
/// ValidityReport.within_slack.
inline constexpr double kApproxSlackFactor = 2.0;

class QueryEngine {
 public:
  /// `graph` must outlive the engine. `values[h]` is host h's attribute
  /// value (see MakeZipfValues for the paper's workload).
  QueryEngine(const topology::Graph* graph, std::vector<double> values);

  /// Engine over any adjacency provider. Implicit topologies
  /// (topology::Topology::Grid/Ring/Torus) make every simulator this engine
  /// builds O(touched) end to end: no CSR, no liveness tables, an exact
  /// O(1) diameter — the default way to run million-host regular networks.
  /// For kGraph topologies the underlying graph must outlive the engine.
  QueryEngine(topology::Topology topology, std::vector<double> values);

  /// Executes one query on a temporary session. Deterministic in (spec,
  /// config, hq), and safe to call concurrently from multiple threads: each
  /// run builds its own session and protocol state, and the engine's only
  /// shared mutable state (the diameter cache) is synchronized. The
  /// parallel sweep driver (core/sweep.h) relies on this.
  StatusOr<QueryResult> Run(const QuerySpec& spec, const RunConfig& config,
                            HostId hq) const;

  /// Session-reusing overload: a one-query batch on `session`'s cached
  /// simulator instead of a fresh one — the O(network) build is paid once
  /// per (graph, sim options) and every query after it costs O(touched)
  /// (docs/SESSIONS.md). The session must have been built over this
  /// engine's graph with the same structural sim options as
  /// `config.sim_options` (delta, medium, heartbeat); the per-query knobs
  /// (failure detection, event budget) are retuned here. Resets the session
  /// first, so any prior state on it is discarded. Output is bit-identical
  /// to the fresh overload, field for field (tests/session_test.cc).
  /// Sessions are single-threaded: concurrent engine.Run calls need one
  /// session each (the sweep driver keeps one per worker).
  StatusOr<QueryResult> Run(sim::SimulatorSession* session,
                            const QuerySpec& spec, const RunConfig& config,
                            HostId hq) const;

  /// One query of a concurrent batch (see RunConcurrent).
  struct ConcurrentQuery {
    QuerySpec spec;
    RunConfig config;
    HostId hq = 0;
    /// When this query is issued on the shared timeline. 0 = at the start
    /// (the classic batch); > 0 staggers the query mid-timeline — the
    /// continuous-query shape, where new queries arrive while earlier ones
    /// are still in flight. The query's horizon, deadlines, tick series, and
    /// validity window all anchor at this instant.
    SimTime start_at = 0.0;
  };

  /// A closed batch on one session: each query is submitted at its start_at
  /// to a QueryService timeline with no lane cap, the timeline is drained,
  /// and results come back in batch order. Each query's lane keeps its
  /// traffic and cost report apart, so results[i] is bit-identical to
  /// running queries[i] alone at the same start time (the determinism
  /// contract, docs/SESSIONS.md). Because the network dynamics are shared,
  /// all queries must agree on the structural sim options and with the
  /// first query on the churn schedule and fault plane — and, when churn is
  /// active, on the effective D-hat (the churn window derives from it) and
  /// the querying host (churn protects hq). Queries without churn may
  /// differ freely in protocol, spec, hq, and start time. Failure detection
  /// is on if any query needs it; the event budget is the largest finite
  /// one, unless some query asks for none (0).
  StatusOr<std::vector<QueryResult>> RunConcurrent(
      sim::SimulatorSession* session,
      const std::vector<ConcurrentQuery>& queries) const;

  /// Estimated diameter of the topology (cached). Implicit topologies
  /// answer exactly in O(1); graphs run the double-sweep heuristic.
  /// Thread-safe: computed at most once under a std::once_flag.
  uint32_t EstimatedDiameter() const;

  const std::vector<double>& values() const { return values_; }
  const topology::Topology& topology() const { return topo_; }
  /// The materialized graph (kGraph topologies only).
  const topology::Graph& graph() const {
    VALIDITY_CHECK(topo_.graph() != nullptr,
                   "engine over an implicit topology has no graph");
    return *topo_.graph();
  }

 private:
  topology::Topology topo_;
  std::vector<double> values_;
  mutable std::once_flag diameter_once_;
  mutable uint32_t cached_diameter_ = 0;
};

/// The paper's workload (§6.1): Zipfian attribute values in [10, 500].
std::vector<double> MakeZipfValues(uint32_t num_hosts, uint64_t seed,
                                   int64_t low = 10, int64_t high = 500,
                                   double theta = 1.0);

}  // namespace validity::core

#endif  // VALIDITY_CORE_ENGINE_H_
