// Base plumbing shared by all aggregation protocols.
//
// A protocol is a sim::HostProgram plus Start(hq)/result(). Multiple
// protocol instances can run over the lifetime of one simulator (the
// continuous-query executor swaps instances per window); to keep stale
// in-flight messages from a previous instance out of a new one, every
// instance owns an id, unique on its simulator, that is packed into the
// upper bits of Message::kind and checked on receipt.

#ifndef VALIDITY_PROTOCOLS_PROTOCOL_H_
#define VALIDITY_PROTOCOLS_PROTOCOL_H_

#include <cmath>
#include <functional>
#include <string_view>
#include <vector>

#include "common/aggregate.h"
#include "common/rng.h"
#include "common/types.h"
#include "protocols/combiner.h"
#include "common/paged_state.h"
#include "protocols/scalar_partial.h"
#include "sim/message.h"
#include "sim/simulator.h"
#include "sketch/fm_sketch.h"

namespace validity::protocols {

/// Everything a protocol needs to know about the query it is executing.
struct QueryContext {
  AggregateKind aggregate = AggregateKind::kCount;
  /// Combine function for duplicate-insensitive protocols (WILDFIRE, DAG).
  CombinerKind combiner = CombinerKind::kFmCount;
  /// Sketch shape for FM combiners.
  sketch::FmParams fm;
  /// Overestimate D-hat of the stable diameter, in hops. The protocol
  /// horizon is 2 * d_hat * delta.
  double d_hat = 10.0;
  /// Seed from which per-host sketch bit streams are derived. Use a fresh
  /// value per query so repeated queries draw independent sketches.
  uint64_t sketch_seed = 1;
  /// Per-host attribute values; must cover every host id in the simulator.
  const std::vector<double>* values = nullptr;
};

/// Outcome of one protocol run.
struct ProtocolRunResult {
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Time cost: when the querying host declared the result.
  SimTime declared_at = 0;
  /// When the querying host's partial answer last changed — the end of the
  /// longest causal message chain that influenced the result (the paper's
  /// §6.3 time-cost metric for protocols that, like SPANNINGTREE, finish
  /// their information flow before the declaration timer).
  SimTime last_update_at = 0;
  bool declared = false;
};

class ProtocolBase : public sim::HostProgram {
 public:
  ProtocolBase(sim::Simulator* sim, QueryContext ctx);
  ~ProtocolBase() override = default;

  ProtocolBase(const ProtocolBase&) = delete;
  ProtocolBase& operator=(const ProtocolBase&) = delete;

  /// Issues the query at `hq` at the simulator's current time. The caller
  /// must first route this instance's traffic to it — engine queries open
  /// a lane (Simulator::OpenLane(instance_id(), this)); a bare simulator
  /// takes sim->AttachProgram(this) — and then runs the simulator;
  /// afterwards the answer is in result().
  virtual void Start(HostId hq) = 0;

  const ProtocolRunResult& result() const { return result_; }
  virtual std::string_view name() const = 0;

  /// This instance's id — the tag carried in the upper bits of its message
  /// kinds and timer ids. Sessions route concurrent queries' traffic and
  /// metrics by it (sim/session.h).
  uint32_t instance_id() const { return instance_id_; }

  /// Re-arms a cached instance for a new query on the same simulator,
  /// replacing per-run construction (the session reuse path): rebinds the
  /// query context, clears the run result, and draws a fresh instance id so
  /// stale in-flight traffic from the previous query can never be
  /// mistaken for this one. Warm storage — state page directories, body
  /// pools, scratch vectors — survives; per-run protocol state is reset by
  /// Start() exactly as after fresh construction, keeping the two paths
  /// bit-identical. Subclasses with extra per-run state hook OnReset().
  void ResetForQuery(QueryContext ctx);

  /// Bytes of per-host state currently resident. Protocols page their state
  /// lazily (see PagedStates), so this is proportional to the hosts a query
  /// actually touched, not the network size.
  virtual size_t ResidentStateBytes() const { return 0; }

  /// Routes simulator timers to this instance's OnLocalTimer, discarding
  /// stale timers from other protocol instances (continuous queries swap
  /// instances per window). Final: protocols implement OnLocalTimer.
  void OnTimer(HostId self, uint64_t timer_id) final {
    if ((timer_id >> sim::kInstanceTagShift) != instance_id_) return;
    OnLocalTimer(self,
                 static_cast<uint32_t>(timer_id & sim::kLocalKindMask));
  }

  HostId querying_host() const { return hq_; }
  SimTime start_time() const { return start_time_; }
  /// The protocol horizon T = start + 2 * d_hat * delta.
  SimTime Horizon() const {
    return start_time_ + 2.0 * ctx_.d_hat * sim_->options().delta;
  }

 protected:
  /// Packs a protocol-local message kind with this instance's id.
  uint32_t MakeKind(uint32_t local) const {
    VALIDITY_DCHECK(local <= sim::kLocalKindMask,
                    "local kind %u exceeds the 8-bit tag", local);
    return (instance_id_ << sim::kInstanceTagShift) |
           (local & sim::kLocalKindMask);
  }
  /// Returns true and extracts the local kind if `kind` belongs to this
  /// instance; stale messages from other instances return false.
  bool DecodeKind(uint32_t kind, uint32_t* local) const {
    if ((kind >> sim::kInstanceTagShift) != instance_id_) return false;
    *local = kind & sim::kLocalKindMask;
    return true;
  }

  /// ResetForQuery hook for per-run state not already re-initialized by
  /// Start(). Runs after the context/instance-id swap. Default: nothing —
  /// every engine protocol resets its run state in Start().
  virtual void OnReset() {}

  /// Instance-safe typed timer: fires OnLocalTimer(host, local_id) at time t
  /// iff `host` is then alive. The instance id rides in the upper bits of
  /// the simulator timer id (mirroring MakeKind), so timers never cross
  /// instances — and the schedule is a plain typed event, no allocation.
  void ScheduleLocalTimer(HostId host, SimTime t, uint32_t local_id) {
    VALIDITY_DCHECK(local_id <= sim::kLocalKindMask,
                    "local timer id %u exceeds the 8-bit tag", local_id);
    sim_->ScheduleTimer(
        host, t,
        (static_cast<uint64_t>(instance_id_) << sim::kInstanceTagShift) |
            (local_id & sim::kLocalKindMask));
  }

  /// Typed-timer callback; `local_id` is the value given to
  /// ScheduleLocalTimer. Default: ignore.
  virtual void OnLocalTimer(HostId self, uint32_t local_id) {
    (void)self, (void)local_id;
  }

  double HostValue(HostId h) const {
    VALIDITY_DCHECK(ctx_.values != nullptr && h < ctx_.values->size());
    return (*ctx_.values)[h];
  }

  /// Deterministic per-host sketch stream for this query.
  Rng HostSketchRng(HostId h) const {
    return Rng(Mix64(ctx_.sketch_seed ^ (0x9e3779b97f4a7c15ULL +
                                         static_cast<uint64_t>(h))));
  }

  /// The host's initial partial aggregate A_h.
  PartialAggregate InitialAggregate(HostId h) const {
    Rng rng = HostSketchRng(h);
    return PartialAggregate::Initial(ctx_.combiner, h, HostValue(h), ctx_.fm,
                                     &rng);
  }

  sim::Simulator* sim_;
  QueryContext ctx_;
  HostId hq_ = kInvalidHost;
  SimTime start_time_ = 0;
  ProtocolRunResult result_;
  uint32_t instance_id_ = 0;
};

/// Message body carrying a partial aggregate (convergecast payload).
/// Pool-friendly: default-constructible without touching the allocator, and
/// copy-assigning `agg` into a recycled body reuses the sketch buffers.
struct AggregateBody : sim::MessageBody {
  AggregateBody() = default;
  explicit AggregateBody(PartialAggregate a) : agg(std::move(a)) {}
  size_t SizeBytes() const override { return agg.SizeBytes(); }

  PartialAggregate agg;
};

/// Small inline payloads, each the one definition of its wire format: the
/// owning protocols send them and the byzantine mutator (byzantine.cc)
/// rewrites them.
struct HopPayload {
  int32_t hop = 0;
};
/// Broadcast forward with a piggybacked scalar aggregate (WILDFIRE kMin /
/// kMax piggyback path).
struct HopScalarPayload {
  int32_t hop = 0;
  double scalar = 0.0;
};
/// Convergecast of a scalar aggregate.
struct ScalarAggregatePayload {
  double scalar = 0.0;
};
/// SPANNINGTREE report: the duplicate-sensitive partial and its addressee
/// (wireless filtering). The wire size excludes the addressee:
/// ScalarPartial::kWireBytes.
struct TreeReportPayload {
  ScalarPartial partial;
  HostId to_parent = kInvalidHost;
};
/// GOSSIP push: half the sender's push-sum mass, or its min/max running
/// extreme (3 doubles on the wire).
struct GossipPushPayload {
  double value = 0.0;
  double weight = 0.0;
  double scalar = 0.0;  // min/max variant
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_PROTOCOL_H_
