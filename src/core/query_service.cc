#include "core/query_service.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

namespace validity::core {

ServiceOptions ServiceOptionsFor(const QuerySpec& spec,
                                 const RunConfig& config, HostId hq) {
  ServiceOptions options;
  options.sim_options = config.sim_options;
  options.max_events = config.sim_options.max_events;
  options.churn_removals = config.churn_removals;
  options.churn_start_frac = config.churn_start_frac;
  options.churn_end_frac = config.churn_end_frac;
  options.churn_seed = config.churn_seed;
  options.churn_d_hat = spec.d_hat;
  options.churn_hq = hq;
  options.fault = config.fault;
  return options;
}

QueryService::QueryService(const QueryEngine* engine,
                           const ServiceOptions& options)
    : engine_(engine),
      owned_session_(std::make_unique<sim::SimulatorSession>(
          engine->topology(), options.sim_options)),
      session_(owned_session_.get()),
      options_(options) {
  ArmTimeline();
}

QueryService::QueryService(const QueryEngine* engine,
                           sim::SimulatorSession* session,
                           const ServiceOptions& options)
    : QueryService(engine, session, options, /*failure_detection=*/true) {
  VALIDITY_CHECK(session->topology().SameAs(engine->topology()),
                 "service session must be built over the engine's topology");
  const sim::SimOptions& built = session->simulator().options();
  VALIDITY_CHECK(
      built.delta == options_.sim_options.delta &&
          built.medium == options_.sim_options.medium &&
          built.heartbeat_interval == options_.sim_options.heartbeat_interval,
      "service structural sim options must match the borrowed session's");
}

QueryService::QueryService(const QueryEngine* engine,
                           sim::SimulatorSession* session,
                           const ServiceOptions& options,
                           bool failure_detection)
    : engine_(engine),
      session_(session),
      options_(options),
      failure_detection_(failure_detection) {
  VALIDITY_CHECK(session != nullptr);
  session_->Reset();
  ArmTimeline();
}

QueryService::~QueryService() {
  ParkAll();
  session_->simulator().InstallFaults(nullptr);
}

void QueryService::ArmTimeline() {
  VALIDITY_CHECK(options_.max_in_flight >= 1,
                 "the service needs at least one lane");
  sim::Simulator& sim = session_->simulator();
  VALIDITY_CHECK(options_.churn_removals == 0 ||
                     options_.churn_hq < sim.num_hosts(),
                 "churn-protected host out of range");
  churn_d_hat_ = internal::ResolveDHat(*engine_, options_.churn_d_hat);

  // An open service keeps detection on: detect events are uncharged and
  // ignored by protocols that do not subscribe, so a lane whose direct run
  // had detection off still matches bit-for-bit — and lanes that need it
  // (tree/DAG) can arrive at any time, long after the churn events were
  // scheduled.
  sim.set_failure_detection(failure_detection_);
  sim.set_max_events(options_.max_events);
  if (options_.fault.HasLinkFaults()) {
    sim.InstallFaults(&options_.fault);
  }
  internal::ScheduleConfiguredChurn(*engine_, &sim, options_, churn_d_hat_,
                                    options_.churn_hq);
}

Status QueryService::PlanLane(const QueryEngine& engine,
                              const sim::SimulatorSession& session,
                              const ServiceOptions& timeline, SimTime now,
                              const Arrival& arrival,
                              internal::RunPlan* plan) {
  const RunConfig& config = arrival.config;
  if (!session.topology().SameAs(engine.topology())) {
    return Status::InvalidArgument(
        "session was built over a different topology than this engine");
  }
  const sim::SimOptions& built = session.simulator().options();
  if (built.delta != config.sim_options.delta ||
      built.medium != config.sim_options.medium ||
      built.heartbeat_interval != config.sim_options.heartbeat_interval) {
    return Status::InvalidArgument(
        "session structural sim options (delta, medium, heartbeat) do not "
        "match the run config");
  }
  if (!std::isfinite(arrival.submit_time) || arrival.submit_time < now) {
    return Status::InvalidArgument(
        "start time must be finite and >= the timeline's current time");
  }
  if (Status status = internal::PlanRun(engine, arrival.spec, config,
                                        arrival.hq, plan);
      !status.ok()) {
    return status;
  }
  // One shared timeline: the network dynamics every query observes must be
  // identical.
  if (config.churn_removals != timeline.churn_removals ||
      config.churn_seed != timeline.churn_seed ||
      config.churn_start_frac != timeline.churn_start_frac ||
      config.churn_end_frac != timeline.churn_end_frac) {
    return Status::InvalidArgument(
        "queries share one network timeline and must agree on its churn "
        "schedule");
  }
  if (!(config.fault == timeline.fault)) {
    return Status::InvalidArgument(
        "queries share one network timeline and must agree on its fault "
        "plane");
  }
  if (timeline.churn_removals > 0 &&
      (plan->d_hat != internal::ResolveDHat(engine, timeline.churn_d_hat) ||
       arrival.hq != timeline.churn_hq)) {
    return Status::InvalidArgument(
        "churned queries must share the timeline's D-hat and querying host "
        "(the churn window and the protected host derive from them)");
  }
  return Status::Ok();
}

StatusOr<QueryService::QueryId> QueryService::Submit(SimTime submit_time,
                                                     const QuerySpec& spec,
                                                     const RunConfig& config,
                                                     HostId hq) {
  const Arrival arrival{submit_time, spec, config, hq};
  internal::RunPlan plan;
  if (Status status =
          PlanLane(*engine_, *session_, options_, Now(), arrival, &plan);
      !status.ok()) {
    return status;
  }
  if (config.sim_options.max_events != 0 &&
      config.sim_options.max_events != options_.max_events) {
    return Status::InvalidArgument(
        "the service timeline owns the event budget; set "
        "ServiceOptions.max_events instead of a per-query one");
  }
  return Admit(arrival, plan);
}

QueryService::QueryId QueryService::Admit(const Arrival& arrival,
                                          const internal::RunPlan& plan) {
  const QueryId id = next_id_++;
  QueryState& q = queries_[id];
  q.arrival = arrival;
  q.plan = plan;
  trace_.arrivals.push_back(arrival);
  if (arrival.submit_time == 0.0 && !timeline_started_) {
    OnArrival(id);
  } else {
    session_->simulator().ScheduleAt(arrival.submit_time,
                                     [this, id] { OnArrival(id); });
  }
  return id;
}

void QueryService::OnArrival(QueryId id) {
  auto it = queries_.find(id);
  VALIDITY_DCHECK(it != queries_.end());
  QueryState& q = it->second;
  if (q.phase == Phase::kCancelled) {
    queries_.erase(it);
  } else if (in_flight_ < options_.max_in_flight) {
    StartLane(id);
  } else {
    q.phase = Phase::kDeferred;
    deferred_.push_back(id);
  }
}

void QueryService::StartLane(QueryId id) {
  sim::Simulator& sim = session_->simulator();
  QueryState& q = queries_.at(id);
  const RunConfig& config = q.arrival.config;
  q.phase = Phase::kRunning;
  q.started_at = sim.Now();
  // Re-arm a protocol instance parked under this kind (warm pages and
  // pools), or construct the first one; Start() behaves identically.
  std::unique_ptr<sim::HostProgram> parked =
      session_->TakeParkedProgram(static_cast<uint32_t>(config.protocol));
  q.protocol = protocols::MakeProtocol(
      config.protocol, &sim, q.plan.ctx, q.plan.protocol_options,
      std::unique_ptr<protocols::ProtocolBase>(
          static_cast<protocols::ProtocolBase*>(parked.release())));
  // Byzantine interposition is per lane: each lane wraps its own protocol
  // (protecting its own hq, caching its own stale replays).
  q.metrics = &sim.OpenLane(
      q.protocol->instance_id(),
      internal::MaybeInterpose(config.protocol, config.fault,
                               q.plan.ctx.combiner, q.plan.ctx.fm,
                               sim.num_hosts(), q.protocol.get(),
                               q.arrival.hq, &q.rig));
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  q.protocol->Start(q.arrival.hq);
  sim.ScheduleAt(RetireTimeFor(q), [this, id] { OnRetire(id); });
}

void QueryService::OnRetire(QueryId id) {
  // Extract first: the completion callback may Submit or Cancel, and the
  // node handle keeps this query's state in place meanwhile.
  auto node = queries_.extract(id);
  VALIDITY_DCHECK(!node.empty());
  QueryState& q = node.mapped();
  VALIDITY_DCHECK(in_flight_ > 0);
  --in_flight_;
  // A cancelled lane kept its slot (muted) until this instant, so
  // admission transitions stay on scheduled events; it has no result.
  std::optional<Completion> done;
  if (q.phase == Phase::kRunning) {
    done = Completion{id, q.arrival.submit_time, q.started_at, Now(),
                      internal::HarvestResult(
                          *engine_, session_->simulator(), *q.metrics,
                          *q.protocol, q.arrival.spec, q.arrival.config,
                          q.plan.d_hat, q.arrival.hq, q.started_at)};
  }
  ParkLane(&q);
  if (done) {
    ++completed_;
    if (on_completion_) on_completion_(*done);
    completions_.push_back(std::move(*done));
  }
  // Deferred queries start strictly in arrival order.
  while (in_flight_ < options_.max_in_flight && !deferred_.empty()) {
    QueryId next_id = deferred_.front();
    deferred_.pop_front();
    StartLane(next_id);
  }
}

void QueryService::ParkLane(QueryState* q) {
  session_->simulator().CloseLane(q->protocol->instance_id());
  session_->ParkProgram(static_cast<uint32_t>(q->arrival.config.protocol),
                        std::move(q->protocol));
}

void QueryService::ParkAll() {
  for (auto& [id, q] : queries_) {
    if (q.protocol != nullptr) ParkLane(&q);
  }
}

SimTime QueryService::RetireTimeFor(const QueryState& q) const {
  const SimTime started = q.started_at;
  const sim::SimOptions& so = session_->simulator().options();
  const double delta = so.delta;
  const sim::FaultSpec& fault = options_.fault;
  const bool delayed = fault.delay_rate > 0.0 || fault.duplicate_rate > 0.0;
  const double hop =
      delta * (1.0 + (delayed ? static_cast<double>(fault.max_delay_hops)
                              : 0.0));
  const double d_hat = q.plan.d_hat;
  const double horizon = 2.0 * d_hat * delta;
  // No protocol sends after its horizon; the last delivery lands within one
  // (possibly fault-delayed) hop of it.
  SimTime quiet = started + horizon + hop;
  // Tree/DAG eager convergecast: a churn failure detected late (at
  // t_fail + T_hb + delta) can trigger a report cascade of up to one hop
  // per tree level.
  if (q.plan.failure_detection && options_.churn_removals > 0) {
    const SimTime churn_end =
        options_.churn_end_frac * 2.0 * churn_d_hat_ * delta;
    SimTime detect = churn_end + so.heartbeat_interval + delta;
    quiet = std::max(quiet, std::max(started + horizon, detect) +
                                (2.0 * d_hat + 2.0) * hop);
  }
  // Gossip's round ladder outlives the 2*D-hat horizon: hosts activated any
  // time before it still run their full round count, and hq declares at
  // start + (rounds + 2) * delta.
  if (q.arrival.config.protocol == protocols::ProtocolKind::kGossip) {
    const double rounds =
        static_cast<double>(q.plan.protocol_options.gossip.rounds);
    quiet = std::max(quiet, started + horizon + (rounds + 2.0) * delta + hop);
  }
  // Strict margin: the retirement event must execute after every event this
  // lane can generate. A generous bound only delays lane recycling; it can
  // never change a result.
  return quiet + 2.0 * delta;
}

Status QueryService::Cancel(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound("unknown or already-completed query id");
  }
  QueryState& q = it->second;
  switch (q.phase) {
    case Phase::kScheduled:
      q.phase = Phase::kCancelled;  // the arrival event discards it
      break;
    case Phase::kDeferred:
      deferred_.erase(std::find(deferred_.begin(), deferred_.end(), id));
      queries_.erase(it);
      break;
    case Phase::kRunning:
      // The lane mutes now (its in-flight traffic is dropped) and closes at
      // the original retirement instant.
      session_->simulator().MuteLane(q.protocol->instance_id());
      q.phase = Phase::kCancelled;
      break;
    case Phase::kCancelled:
      return Status::FailedPrecondition("query already cancelled");
  }
  ++cancelled_;
  return Status::Ok();
}

void QueryService::RunUntil(SimTime t) {
  timeline_started_ = true;
  session_->simulator().RunUntil(t);
}

void QueryService::Drain() {
  timeline_started_ = true;
  session_->simulator().Run();
}

bool QueryService::Poll(Completion* out) {
  if (completions_.empty()) return false;
  *out = std::move(completions_.front());
  completions_.pop_front();
  return true;
}

void QueryService::set_on_completion(
    std::function<void(const Completion&)> callback) {
  on_completion_ = std::move(callback);
}

void QueryService::Reset() {
  ParkAll();
  queries_.clear();
  deferred_.clear();
  completions_.clear();
  trace_.arrivals.clear();
  in_flight_ = 0;
  peak_in_flight_ = 0;
  timeline_started_ = false;
  // Rewinds the timeline (pending arrival/retire closures and message slab
  // references drain through EventQueue::Clear) and drops the fault plane;
  // warm parked protocols and lane Metrics survive for the next epoch.
  session_->Reset();
  ArmTimeline();
}

StatusOr<std::vector<QueryService::Completion>> QueryService::Replay(
    const QueryEngine& engine, const ServiceOptions& options,
    const ArrivalTrace& trace) {
  QueryService service(&engine, options);
  for (const Arrival& a : trace.arrivals) {
    StatusOr<QueryId> id = service.Submit(a.submit_time, a.spec, a.config,
                                          a.hq);
    if (!id.ok()) return id.status();
  }
  service.Drain();
  if (service.completed() != trace.arrivals.size()) {
    return Status::Internal("replayed query did not complete");
  }
  // A new service numbers its queries 1, 2, ... in trace order.
  std::vector<Completion> in_arrival_order(trace.arrivals.size());
  Completion done;
  while (service.Poll(&done)) {
    in_arrival_order[done.id - 1] = std::move(done);
  }
  return in_arrival_order;
}

}  // namespace validity::core
