// QueryService: the one timeline-and-lanes core every query runs on.
//
// A QueryService owns one long-lived timeline (a SimulatorSession) onto
// which queries are *submitted* at simulated times, admitted to a bounded
// set of lanes, and completed through a poll/callback API as the timeline
// advances. Every query the library runs is a lane here: RunConcurrent is a
// closed batch with no lane cap, and both QueryEngine::Run overloads are
// one-query batches. Arming the timeline (ArmTimeline), validating a query
// (PlanLane), opening its lane (StartLane), and retiring, harvesting, and
// parking it (OnRetire, ParkLane) each have this one implementation.
//
// Determinism contract (docs/SERVICE.md, tests/query_service_test.cc):
// every completed query's QueryResult is bit-identical, field for field, to
// the same query run directly on a simulator with nothing else attached
// (ReferenceRun in tests/fingerprint_matrix.h) and started at the same
// time. A recorded ArrivalTrace replayed into a fresh service reproduces
// the live run exactly.
//
// How a lane stays solo-identical while being recycled:
//
//  - Admission and deferred starts happen *inside scheduled events*, so
//    they are part of the deterministic timeline: an arrival event fires at
//    submit_time; if all lanes are busy the query joins a FIFO queue and
//    starts inside the retirement event that frees a lane. Equal-time
//    events run in schedule order (the calendar queue's per-bucket FIFO),
//    so ties are deterministic too. Submissions at t=0 made before the
//    timeline first advances start synchronously, ahead of every t=0 event.
//
//  - A lane retires when the simulator observes it quiet: none of its
//    deliveries or timers is queued, and, for a tree/DAG lane that hears
//    neighbor failures, no failure or detection event is queued either
//    (Simulator::LaneQuiet). Nothing can reach its program after that, so
//    every late delivery has been routed and charged exactly as in a
//    direct run. The retirement itself is a closure scheduled at
//    max(quiet instant, start + 2*D-hat*delta): the oracle reads liveness
//    inside [start, start + horizon], which is fully executed by then, so
//    harvesting there equals harvesting at the end of a drained run.
//
//  - The network dynamics are properties of the *timeline*, not of a query:
//    churn schedule and fault plane come from ServiceOptions, are armed
//    once, and every submitted config must agree with them. Protocol
//    instance ids are never reused on a simulator (Reset() included), so
//    traffic of a retired lane, a cancelled lane, or an earlier epoch is
//    dropped instead of reaching a live lane.
//
// Sessions are single-threaded, and so is a service. For sweep-style
// service benchmarks across worker threads, give each worker its own
// service over a sim::SessionPool lane (sim/session.h).

#ifndef VALIDITY_CORE_QUERY_SERVICE_H_
#define VALIDITY_CORE_QUERY_SERVICE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/run_internal.h"

namespace validity::core {

/// Timeline-level configuration: everything shared by all queries a service
/// will ever run. The churn fields mirror RunConfig's; submitted configs
/// must carry identical values (Submit validates).
struct ServiceOptions {
  /// Structural simulator knobs (delta, medium, heartbeat). The per-query
  /// fields are owned by the service: failure_detection is forced on for
  /// the timeline's lifetime, max_events below is the event budget.
  sim::SimOptions sim_options;

  /// Admission: at most this many queries in flight at once; later arrivals
  /// wait in a FIFO deferred queue and start when a lane retires.
  uint32_t max_in_flight = 8;

  /// Event budget for the whole timeline (0 = unlimited). Per-query
  /// sim_options.max_events must be 0 or equal to this.
  uint64_t max_events = 0;

  // --- timeline dynamics (the RunConfig churn/fault fields) -------------
  uint32_t churn_removals = 0;
  double churn_start_frac = 0.0;
  double churn_end_frac = 1.0;
  uint64_t churn_seed = 1;
  /// D-hat the churn window derives from (horizon 2 * churn_d_hat * delta).
  /// 0 = the engine's estimated diameter + kDefaultDiameterMargin — the
  /// same resolution PlanRun applies to a query with spec.d_hat == 0.
  /// Churned queries must plan to exactly this value (Submit validates).
  double churn_d_hat = 0.0;
  /// The host churn protects; churned queries must use it as hq.
  HostId churn_hq = 0;
  sim::FaultSpec fault;
};

/// One recorded submission. A trace is the complete input of a service run:
/// replaying it into a fresh service reproduces every result bit-for-bit.
struct Arrival {
  SimTime submit_time = 0.0;
  QuerySpec spec;
  RunConfig config;
  HostId hq = 0;
};

struct ArrivalTrace {
  std::vector<Arrival> arrivals;
};

/// Derives the ServiceOptions under which `config` is admissible: the
/// timeline fields are copied from the query's own config (the common
/// single-profile pattern in tests and benches). churn_d_hat comes from
/// spec.d_hat (0 = auto, matching PlanRun's resolution).
ServiceOptions ServiceOptionsFor(const QuerySpec& spec,
                                 const RunConfig& config, HostId hq);

class QueryService {
 public:
  using QueryId = uint64_t;

  struct Completion {
    QueryId id = 0;
    SimTime submitted_at = 0.0;
    /// When the query was admitted to a lane (== submitted_at unless it
    /// waited in the deferred queue). The solo-equivalence anchor.
    SimTime started_at = 0.0;
    /// When the lane retired: max(its last event, started_at + 2 * D-hat *
    /// delta). Not declared_at.
    SimTime retired_at = 0.0;
    QueryResult result;
  };

  /// Service over its own session built from `engine`'s topology and
  /// `options.sim_options`. `engine` must outlive the service.
  QueryService(const QueryEngine* engine, const ServiceOptions& options);

  /// Service over a borrowed session (e.g. a sim::SessionPool lane). The
  /// session must be built over `engine`'s topology with structural options
  /// matching `options.sim_options`; it is Reset() here — the service owns
  /// its epochs until destruction. Both must outlive the service.
  QueryService(const QueryEngine* engine, sim::SimulatorSession* session,
               const ServiceOptions& options);

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;
  ~QueryService();

  /// Submits a query arriving at `submit_time` (simulated; must be >= the
  /// timeline's current time). Structural sim options must match the
  /// session, the config's churn/fault fields must equal the timeline's,
  /// churned queries must plan to the timeline's D-hat and hq, and a
  /// per-query event budget must be unset or the timeline's. The query
  /// starts at submit_time if a lane is free, else when one retires (FIFO).
  /// Recorded in trace().
  StatusOr<QueryId> Submit(SimTime submit_time, const QuerySpec& spec,
                           const RunConfig& config, HostId hq);

  /// Withdraws a query. Scheduled/deferred queries simply never start. A
  /// running query's lane is muted immediately — its in-flight traffic is
  /// dropped from now on — and the lane closes and its slot frees, in a
  /// scheduled event (deterministic), once that traffic has drained. A lane
  /// already quiet keeps its scheduled retirement. Cancellation is an
  /// external control action: it is NOT recorded in the ArrivalTrace, so a
  /// replayed trace reproduces submissions, not cancellations. NotFound if
  /// the id is unknown or already completed.
  Status Cancel(QueryId id);

  /// Advances the shared timeline. Completions become pollable (and the
  /// callback fires) as retirement events execute.
  void RunUntil(SimTime t);
  /// Runs the timeline dry: every submitted query completes (or was
  /// cancelled) when this returns.
  void Drain();

  /// Pops the oldest unconsumed completion; false if none. Completions
  /// surface in retirement order.
  bool Poll(Completion* out);
  /// Optional push interface: invoked inside the retirement event, before
  /// the completion becomes pollable. Callbacks may Submit follow-up
  /// queries (at times >= now) but must not re-enter Run/Drain/Reset.
  void set_on_completion(std::function<void(const Completion&)> callback);

  /// Abandons everything — pending arrivals, deferred queue, running lanes,
  /// unconsumed completions, the recorded trace — and rewinds the timeline
  /// to t=0 (a fresh session epoch, O(touched)). Warm protocol instances
  /// and lane Metrics are kept for reuse.
  void Reset();

  /// Replays a recorded trace into a fresh service over `engine` and drains
  /// it. Returns the completions in *arrival order* (trace order), each
  /// bit-identical to the corresponding live-run completion.
  static StatusOr<std::vector<Completion>> Replay(const QueryEngine& engine,
                                                  const ServiceOptions& options,
                                                  const ArrivalTrace& trace);

  // --- introspection ----------------------------------------------------

  SimTime Now() const { return session_->simulator().Now(); }
  const ServiceOptions& options() const { return options_; }
  const ArrivalTrace& trace() const { return trace_; }
  sim::SimulatorSession& session() { return *session_; }
  /// The resolved churn D-hat (after the 0 = auto resolution).
  double churn_d_hat() const {
    return internal::ResolveDHat(*engine_, options_.churn_d_hat);
  }

  /// Lanes currently occupied (includes cancelled lanes until their
  /// traffic drains).
  uint32_t in_flight() const { return in_flight_; }
  /// High-water mark of in_flight() — never exceeds max_in_flight.
  uint32_t peak_in_flight() const { return peak_in_flight_; }
  size_t deferred() const { return deferred_.size(); }
  uint64_t submitted() const { return next_id_ - 1; }
  uint64_t completed() const { return completed_; }
  uint64_t cancelled() const { return cancelled_; }

 private:
  // The closed-batch entry points run on the private batch constructor,
  // PlanLane, and Admit.
  friend class QueryEngine;

  enum class Phase : uint8_t { kScheduled, kDeferred, kRunning, kCancelled };

  /// Everything the service tracks per submitted query. Map nodes keep
  /// their address, which the byzantine rig (pointing at arrival's fault
  /// spec) and the lane table rely on while the query runs.
  struct QueryState {
    Arrival arrival;
    internal::RunPlan plan;
    Phase phase = Phase::kScheduled;
    SimTime started_at = 0.0;
    /// The lane went quiet and its retirement is scheduled.
    bool retiring = false;
    // The lane, open from StartLane until ParkLane:
    std::unique_ptr<protocols::ProtocolBase> protocol;
    const sim::Metrics* metrics = nullptr;
    internal::ByzantineRig rig;
  };

  /// A closed batch's timeline: failure detection on only if a plan needs
  /// it. PlanLane has already checked every query against `session`.
  QueryService(const QueryEngine* engine, sim::SimulatorSession* session,
               const ServiceOptions& options, bool failure_detection);

  /// The one admission check, shared by batch and service: the session is
  /// built over the engine's topology with the query's structural sim
  /// options, the query plans (internal::PlanRun), it carries `timeline`'s
  /// churn schedule and fault plane, a churned query shares the timeline's
  /// D-hat and protected host, and it starts at a finite time >= `now`.
  static Status PlanLane(const QueryEngine& engine,
                         const sim::SimulatorSession& session,
                         const ServiceOptions& timeline, SimTime now,
                         const Arrival& arrival, internal::RunPlan* plan);
  /// Records a query PlanLane admitted and starts it at its submit time.
  QueryId Admit(const Arrival& arrival, const internal::RunPlan& plan);

  /// Arms a pristine session epoch: failure detection, event budget, fault
  /// plane, churn schedule.
  void ArmTimeline();
  void OnArrival(QueryId id);
  /// Opens the query's lane and starts it.
  void StartLane(QueryId id);
  /// The simulator saw the query's lane go quiet: schedules its retirement.
  void OnLaneQuiet(QueryId id);
  /// Harvests a running query, closes its lane, and admits deferred
  /// queries into the freed slot.
  void OnRetire(QueryId id);
  /// Closes the query's simulator lane and parks its protocol on the
  /// session for the next query of that kind.
  void ParkLane(QueryState* q);
  /// Closes every open lane; the teardown of the destructor and Reset().
  void ParkAll();

  const QueryEngine* engine_;
  std::unique_ptr<sim::SimulatorSession> owned_session_;
  sim::SimulatorSession* session_;
  ServiceOptions options_;
  bool failure_detection_ = true;

  QueryId next_id_ = 1;
  /// Queries not yet completed or discarded, by id.
  std::map<QueryId, QueryState> queries_;
  /// Running and cancelled queries by their lane's instance id.
  std::map<uint32_t, QueryId> lane_queries_;
  std::deque<QueryId> deferred_;
  std::deque<Completion> completions_;
  std::function<void(const Completion&)> on_completion_;
  ArrivalTrace trace_;
  /// False until the first RunUntil/Drain: t=0 submissions before then
  /// start synchronously.
  bool timeline_started_ = false;

  uint32_t in_flight_ = 0;
  uint32_t peak_in_flight_ = 0;
  uint64_t completed_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace validity::core

#endif  // VALIDITY_CORE_QUERY_SERVICE_H_
