// SimulatorSession: a cached per-graph simulator with O(touched) inter-query
// reset.
//
// Building a Simulator is O(network): CSR adjacency, liveness tables, and
// per-host metrics all scale with num_hosts. Protocol-side cost has been
// disc-proportional since the state was paged, so on million-host graphs
// the O(n) build dominates every query on a graph-backed topology. A
// session amortizes it: the graph-derived structures are built once, and
// everything mutable per run — pending events, message slab references,
// liveness flags flipped by churn, hosts joined at runtime, metrics —
// resets between queries by draining dirty lists, in time proportional to
// what the previous query touched (see Simulator::Reset).
//
// Each reset starts a new *epoch*. Protocol per-host state participates via
// the epoch counters inside PagedStates (common/paged_state.h): a protocol
// re-armed with ResetForQuery keeps its warm pages and body pools, and the
// second query on a cached 10^6-host session costs ≈disc time instead of
// the ≈0.1 s rebuild (perfbench's million-grid workload runs exactly this).
//
// A session is the timeline every query runs on. The query layer
// (core/query_service.h) opens one simulator lane per query — message
// kinds and timer ids carry the protocol instance's id in their upper bits
// (message.h's kInstanceTagShift), and Simulator::OpenLane routes each
// instance's callbacks and cost accounting from one lane table — and parks
// retired protocol instances here for the next query. The contract — a
// query's result does not depend on the entry point, the session's history,
// or its lane-mates — is documented in docs/SESSIONS.md and enforced by
// tests/session_test.cc.
//
// Sessions are single-threaded objects (one session per thread; the sweep
// driver gives every worker its own). The graph must outlive the session.

#ifndef VALIDITY_SIM_SESSION_H_
#define VALIDITY_SIM_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "topology/topology.h"

namespace validity::sim {

class SimulatorSession {
 public:
  /// Builds the one simulator this session will reuse — O(network) for
  /// graph-backed topologies, O(1)-ish for implicit ones (grid/ring/torus),
  /// which never materialize adjacency or liveness tables at all. For
  /// kGraph topologies the underlying graph must outlive the session.
  /// `options.failure_detection` and `options.max_events` are per-query
  /// knobs the engine retunes on every run; the structural options (delta,
  /// medium, heartbeat_interval, materialize_adjacency) are fixed for the
  /// session's lifetime.
  SimulatorSession(topology::Topology topology, SimOptions options);

  /// Convenience over a materialized graph (must outlive the session).
  SimulatorSession(const topology::Graph* graph, SimOptions options);

  SimulatorSession(const SimulatorSession&) = delete;
  SimulatorSession& operator=(const SimulatorSession&) = delete;

  const topology::Topology& topology() const { return topo_; }
  /// The materialized graph (kGraph topologies only).
  const topology::Graph& graph() const {
    VALIDITY_CHECK(topo_.graph() != nullptr,
                   "session over an implicit topology has no graph");
    return *topo_.graph();
  }
  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }

  /// Epochs completed so far; bumped by every Reset().
  uint64_t epoch() const { return epoch_; }

  /// Starts a new epoch: the simulator returns to its pristine t=0 state
  /// (Simulator::Reset, O(touched)), which also closes every open lane.
  /// Call before issuing the next query (or batch of concurrent queries).
  void Reset();

  /// Parking lot for reusable per-query objects that must survive between
  /// epochs — the engine parks protocol instances here, keyed by protocol
  /// kind, so their warm state pages and body pools carry to the next query
  /// on this session. Take returns nullptr when nothing is parked under
  /// `key`; several objects may be parked under one key (concurrent queries
  /// of the same protocol).
  std::unique_ptr<HostProgram> TakeParkedProgram(uint32_t key);
  void ParkProgram(uint32_t key, std::unique_ptr<HostProgram> program);

 private:
  topology::Topology topo_;
  Simulator sim_;
  uint64_t epoch_ = 0;
  std::vector<std::pair<uint32_t, std::unique_ptr<HostProgram>>> parked_;
};

/// A thread-safe pool of warm session lanes over one shared topology.
///
/// Sessions are single-threaded, so multi-threaded drivers (the sweep
/// runner, service throughput benches) need one session per worker — but
/// the topology handle itself is immutable and shareable, so the pool
/// stores it once. Implicit topologies make each lane O(1)-ish to build;
/// graph-backed ones pay the O(network) build once per lane and then reuse
/// it for every query that worker runs.
///
/// Acquire/Release only hand lanes out and back under a mutex; all actual
/// simulation happens on the acquired lane, single-threaded, with no
/// cross-lane sharing. A released lane keeps its warm state (parked
/// protocols, lane Metrics, paged tables) for the next borrower.
class SessionPool {
 public:
  /// `options` is the structural profile every lane is built with. For
  /// kGraph topologies the underlying graph must outlive the pool.
  SessionPool(topology::Topology topology, SimOptions options);
  SessionPool(const topology::Graph* graph, SimOptions options);

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Returns a free lane, building a new one if all are out. The caller
  /// owns the lane (single-threaded use) until Release.
  SimulatorSession* Acquire();
  /// Returns a lane to the pool. The lane keeps its warm state; the next
  /// Acquire may hand it to a different thread (Reset() it per query as
  /// usual — the engine's session overloads already do).
  void Release(SimulatorSession* session);

  /// Lanes constructed so far (== high-water mark of concurrent borrowers).
  size_t size() const;
  const topology::Topology& topology() const { return topo_; }
  const SimOptions& options() const { return options_; }

 private:
  topology::Topology topo_;
  SimOptions options_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SimulatorSession>> lanes_;
  std::vector<SimulatorSession*> free_;
};

/// RAII lease on a pool lane.
class SessionLease {
 public:
  explicit SessionLease(SessionPool* pool)
      : pool_(pool), session_(pool->Acquire()) {}
  ~SessionLease() { pool_->Release(session_); }
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;

  SimulatorSession* get() { return session_; }
  SimulatorSession& operator*() { return *session_; }
  SimulatorSession* operator->() { return session_; }

 private:
  SessionPool* pool_;
  SimulatorSession* session_;
};

}  // namespace validity::sim

#endif  // VALIDITY_SIM_SESSION_H_
