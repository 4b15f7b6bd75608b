// The discrete-event network simulator.
//
// Models the paper's relaxed asynchronous system (§3.1-§3.2):
//  - messages between neighbors arrive after the universal delay delta;
//  - a message sent to an alive neighbor is reliably delivered; a message
//    whose destination fails before delivery is lost;
//  - a failed host sends nothing and processes nothing from its failure
//    instant on; its edges disappear with it (partitions emerge naturally);
//  - hosts may join at runtime, attaching to a set of alive neighbors;
//  - neighbor failures can be detected via heartbeats: a neighbor learns of
//    a failure at t_fail + T_hb + delta (§3.1). Heartbeat traffic itself is
//    steady-state background load and is not charged to query cost, matching
//    the paper's accounting.
//
// The simulator is protocol-agnostic. A protocol implements HostProgram and
// receives message/timer/failure callbacks; all state per host lives in the
// protocol object.
//
// Internals are built for million-host runs, with every per-host table
// disc-proportional:
//  - adjacency comes from a topology::Topology. Implicit regular shapes
//    (grid, ring, torus) are served arithmetically — no CSR, no O(n)
//    adjacency storage at all; edge-list graphs build a CSR once in the
//    constructor. Either way NeighborsOf is the single access path.
//  - liveness (failure/join times) and the per-host metrics tallies live in
//    epoch-reset pages materialized on first touch; an untouched host is
//    implicitly "alive since 0, never failed". Constructing a simulator, and
//    Reset() between session queries, are therefore O(touched + pending),
//    not O(network) (ResidentTableBytes() reports the footprint).
//  - message deliveries and timers travel as typed plain-data events (see
//    event_queue.h), and message payloads live in a refcounted slab whose
//    slots are recycled — a fan-out to k neighbors performs zero
//    allocations in steady state. Its on-time deliveries (up to
//    kMaxImplicitDegree) are one batched event, run in send order; each
//    still counts as one executed event.

#ifndef VALIDITY_SIM_SIMULATOR_H_
#define VALIDITY_SIM_SIMULATOR_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/paged_state.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/metrics.h"
#include "sim/trace.h"
#include "topology/topology.h"

namespace validity::sim {

struct FaultSpec;  // sim/fault.h

/// FailureTime() of a host that never failed.
inline constexpr SimTime kNeverFails = std::numeric_limits<SimTime>::infinity();

/// Physical medium determines message accounting (paper §5.3/§6.6):
/// point-to-point charges one message per destination; wireless charges one
/// transmission reaching every neighbor.
enum class MediumKind { kPointToPoint, kWireless };

struct SimOptions {
  /// Universal per-hop delay delta.
  double delta = 1.0;
  MediumKind medium = MediumKind::kPointToPoint;
  /// Heartbeat interval T_hb; neighbor failure is detectable after
  /// T_hb + delta.
  double heartbeat_interval = 2.0;
  /// Deliver HostProgram::OnNeighborFailure callbacks.
  bool failure_detection = false;
  /// Abort if more than this many events execute (0 = unlimited). Guards
  /// against non-terminating protocols in tests.
  uint64_t max_events = 0;
  /// Build a CSR even for an implicit topology, so the table-driven and
  /// arithmetic neighbor paths can be compared bit-for-bit (tests). Costs
  /// the O(n) adjacency build implicit topologies exist to avoid.
  bool materialize_adjacency = false;
};

/// Protocol callback interface. One program instance serves every host;
/// `self` identifies the host on whose behalf the callback runs.
class HostProgram {
 public:
  virtual ~HostProgram() = default;

  /// A message was delivered to alive host `self` at the current time.
  virtual void OnMessage(HostId self, const Message& msg) = 0;

  /// A timer scheduled via Simulator::ScheduleTimer fired (host still alive).
  virtual void OnTimer(HostId self, uint64_t timer_id) { (void)self, (void)timer_id; }

  /// Heartbeat detector: `failed` (a neighbor of `self`) is now known dead.
  virtual void OnNeighborFailure(HostId self, HostId failed) {
    (void)self, (void)failed;
  }
};

/// A host's neighbor list: either a view into external storage (the CSR
/// segment, or a joined host's own list) or a small inline buffer filled
/// arithmetically from an implicit topology — plus any reverse edges
/// appended when later hosts joined. Cheap to copy (the inline buffer is 8
/// ids); iteration and operator[] present the segments as one contiguous
/// sequence.
class NeighborSpan {
 public:
  static constexpr uint32_t kInlineCapacity =
      topology::Topology::kMaxImplicitDegree;

  NeighborSpan(const HostId* base, uint32_t base_count,
               const std::vector<HostId>* extra)
      : base_(base),
        base_count_(base_count),
        extra_(extra == nullptr || extra->empty() ? nullptr : extra) {}

  /// An inline span: the caller fills inline_data() with up to
  /// kInlineCapacity ids and seals the count with set_inline_count.
  struct InlineTag {};
  NeighborSpan(InlineTag, const std::vector<HostId>* extra)
      : base_(inline_),
        base_count_(0),
        extra_(extra == nullptr || extra->empty() ? nullptr : extra) {}

  NeighborSpan(const NeighborSpan& other) { CopyFrom(other); }
  NeighborSpan& operator=(const NeighborSpan& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  HostId* inline_data() { return inline_; }
  void set_inline_count(uint32_t count) {
    VALIDITY_DCHECK(count <= kInlineCapacity);
    base_count_ = count;
  }

  uint32_t size() const {
    return base_count_ +
           (extra_ != nullptr ? static_cast<uint32_t>(extra_->size()) : 0);
  }
  bool empty() const { return size() == 0; }

  HostId operator[](uint32_t i) const {
    return i < base_count_ ? base_[i] : (*extra_)[i - base_count_];
  }

  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = HostId;
    using difference_type = std::ptrdiff_t;
    using pointer = const HostId*;
    using reference = HostId;

    Iterator(const NeighborSpan* span, uint32_t i) : span_(span), i_(i) {}
    HostId operator*() const { return (*span_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iterator& o) const { return i_ == o.i_; }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const NeighborSpan* span_;
    uint32_t i_;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  void CopyFrom(const NeighborSpan& other) {
    base_count_ = other.base_count_;
    extra_ = other.extra_;
    if (other.base_ == other.inline_) {
      std::memcpy(inline_, other.inline_, base_count_ * sizeof(HostId));
      base_ = inline_;
    } else {
      base_ = other.base_;
    }
  }

  const HostId* base_;
  uint32_t base_count_;
  const std::vector<HostId>* extra_;
  HostId inline_[kInlineCapacity];
};

class Simulator {
 public:
  /// Builds a simulator over `topology`; all hosts start alive at time 0.
  /// For kGraph topologies the graph (which `topology` points at) must
  /// outlive the simulator. Construction is O(1)-ish for implicit
  /// topologies and O(n + m) (the CSR build) for graphs.
  Simulator(const topology::Topology& topology, SimOptions options);

  /// Convenience over a materialized graph; `graph` must outlive the
  /// simulator.
  Simulator(const topology::Graph& graph, SimOptions options)
      : Simulator(topology::Topology::FromGraph(&graph), options) {}

  // Not movable: the event queue holds a back-pointer to this simulator as
  // its typed-event dispatch context (and protocols hold raw pointers too).
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- time & execution -----------------------------------------------

  SimTime Now() const { return queue_.Now(); }
  const SimOptions& options() const { return options_; }
  const topology::Topology& topology() const { return topo_; }

  /// Timeline knobs a QueryService arms on each session epoch without
  /// rebuilding the simulator. failure_detection only gates what FailHost
  /// schedules from now on; max_events re-arms the event budget (the
  /// executed() counter itself rewinds in Reset()).
  void set_failure_detection(bool enabled) {
    options_.failure_detection = enabled;
  }
  void set_max_events(uint64_t max_events) { options_.max_events = max_events; }

  /// Restores the simulator to its just-constructed state — every base host
  /// alive at time 0, empty event queue, zeroed metrics, no attached
  /// program or open lane, the instance-id counter aside (NextInstanceId) —
  /// in time proportional to what previous runs touched (failed hosts,
  /// joined hosts, pending events, hosts that processed messages),
  /// not the network size: liveness and metrics pages rewind by epoch
  /// counter (common/paged_state.h), pending events drain through a dirty
  /// walk, and runtime joins truncate away. Graph-derived structures (the
  /// CSR, the NeighborSlotOf index) survive untouched, which is what makes
  /// a cached per-graph simulator worth keeping: see sim/session.h. The
  /// trace recorder, if any, stays attached.
  void Reset();

  /// Runs until the event queue is exhausted.
  void Run();
  /// Runs events with time <= t.
  void RunUntil(SimTime t);
  /// Schedules an arbitrary action (simulation scripting, churn, oracles).
  /// This is the closure escape hatch; protocol hot paths use the typed
  /// SendTo/ScheduleTimer/ScheduleFailure entry points instead.
  void ScheduleAt(SimTime t, std::function<void()> action);
  void ScheduleAfter(SimTime dt, std::function<void()> action);

  // --- hosts ------------------------------------------------------------

  uint32_t num_hosts() const { return num_hosts_; }
  /// Alive now. Hosts are implicitly alive — a host is dead only if a
  /// failure record was materialized for it this epoch, so the failure-free
  /// fast path is a pair of integer tests.
  bool IsAlive(HostId h) const {
    if (h >= num_hosts_) return false;
    if (dead_count_ == 0) return true;
    const LifeRecord* life = life_.Find(h);
    return life == nullptr || life->failure_time == kNeverFails;
  }
  uint32_t alive_count() const { return num_hosts_ - dead_count_; }

  /// Neighbors as built (may include failed hosts; filter with IsAlive or
  /// use ForEachAliveNeighbor).
  NeighborSpan NeighborsOf(HostId h) const {
    VALIDITY_DCHECK(h < num_hosts_);
    const std::vector<HostId>* extra =
        joined_adj_.empty() ? nullptr : extra_edges_.Find(h);
    if (__builtin_expect(h >= base_hosts_, 0)) {
      const std::vector<HostId>& own = joined_adj_[h - base_hosts_];
      return NeighborSpan(own.data(), static_cast<uint32_t>(own.size()),
                          extra);
    }
    if (use_csr_) {
      uint32_t begin = nbr_offset_[h];
      return NeighborSpan(nbr_flat_.data() + begin,
                          nbr_offset_[h + 1] - begin, extra);
    }
    NeighborSpan span{NeighborSpan::InlineTag{}, extra};
    span.set_inline_count(topo_.CopyNeighbors(h, span.inline_data()));
    return span;
  }

  template <typename Fn>
  void ForEachAliveNeighbor(HostId h, Fn&& fn) const {
    for (HostId nb : NeighborsOf(h)) {
      if (IsAlive(nb)) fn(nb);
    }
  }

  /// Slot of `nb` in NeighborsOf(h) — the reverse lookup convergecast
  /// protocols run once per received message. O(log degree) against a
  /// lazily-built per-host sorted index over the CSR segment; implicit
  /// topologies scan their (<= 8-entry) arithmetic neighborhood directly.
  /// O(degree) overflow edges from runtime joins are scanned linearly.
  /// CHECK-fails if `nb` is not a neighbor of `h`.
  uint32_t NeighborSlotOf(HostId h, HostId nb) const;

  /// Fails `h` immediately (no-op if already dead). Triggers failure
  /// detection callbacks when enabled.
  void FailHost(HostId h);
  /// Schedules FailHost(h) at time t.
  void ScheduleFailure(SimTime t, HostId h);

  /// Adds a new host joined to `neighbors` (each must be alive) at Now().
  StatusOr<HostId> AddHost(const std::vector<HostId>& neighbors);

  /// Time at which `h` failed; +infinity while alive.
  SimTime FailureTime(HostId h) const {
    const LifeRecord* life = life_.Find(h);
    return life == nullptr ? kNeverFails : life->failure_time;
  }
  /// Time at which `h` joined; 0 for initial hosts.
  SimTime JoinTime(HostId h) const {
    const LifeRecord* life = life_.Find(h);
    return life == nullptr ? 0.0 : life->join_time;
  }

  /// True if `h` was alive during the whole closed interval [a, b].
  bool AliveThroughout(HostId h, SimTime a, SimTime b) const {
    const LifeRecord* life = life_.Find(h);
    return life == nullptr ||
           (life->join_time <= a && life->failure_time > b);
  }
  /// True if `h` was alive at some instant of [a, b].
  bool AliveSometimeIn(HostId h, SimTime a, SimTime b) const {
    const LifeRecord* life = life_.Find(h);
    return life == nullptr ||
           (life->join_time <= b && life->failure_time > a);
  }

  /// Bytes of per-host simulator tables currently resident: adjacency
  /// (CSR or none), liveness/metrics pages, the reverse-slot index
  /// directory, runtime-join lists, the message slab, and event-queue
  /// storage. The number million-host scenarios watch: with an implicit
  /// topology and a disc-bounded query it tracks the disc, not the network
  /// (examples/million_grid.cpp checks this).
  size_t ResidentTableBytes() const;

  // --- messaging ----------------------------------------------------------

  /// Binds the single program receiving every callback (the route protocol
  /// unit tests and continuous queries use). Traffic of an open lane goes
  /// to the lane instead.
  void AttachProgram(HostProgram* program) { program_ = program; }

  /// Installs the deterministic link-fault plane (sim/fault.h): every
  /// subsequent in-flight delivery's fate — drop, duplicate, extra delay —
  /// is decided by a stateless hash of the spec's seed and the delivery's
  /// coordinates. `spec` must outlive the attachment; pass nullptr to
  /// remove. Cleared by Reset(). With no spec installed — or a spec whose
  /// link rates are all zero, which cannot change any delivery's fate — the
  /// send paths pay one predicted-not-taken test and nothing else.
  void InstallFaults(const FaultSpec* spec);
  const FaultSpec* faults() const { return fault_; }

  /// Sends one message from `from` to `to` (must be neighbors). Dropped
  /// silently (and not charged) if `from` is dead; charged but undelivered
  /// if `to` dies before the delivery instant.
  void SendTo(HostId from, HostId to, Message msg);

  /// Sends to every currently-alive neighbor of `from`. Point-to-point:
  /// one charged message per neighbor. Wireless: one charged transmission,
  /// every alive neighbor receives it. Either way the payload is stored
  /// once, and up to kMaxImplicitDegree on-time receivers share one queue
  /// event.
  void SendToNeighbors(HostId from, Message msg);

  /// Point-to-point fan-out to an explicit target list (each a neighbor of
  /// `from`): one charged message per target, one shared payload slot —
  /// the selective-flood analogue of SendToNeighbors. Equivalent to
  /// SendTo(from, t, msg) for each t, minus the per-target slot and payload
  /// copies.
  void SendToEach(HostId from, Message msg, const HostId* targets,
                  uint32_t count);

  /// Sends directly to an arbitrary host, bypassing overlay edges. Models a
  /// P2P underlay connection (the reporting host knows hq's IP address from
  /// the query and opens a direct connection): one charged message, delta
  /// delay. Not available on wireless sensor media.
  void SendDirect(HostId from, HostId to, Message msg);

  /// Fires HostProgram::OnTimer(h, timer_id) at time t if h is then alive.
  void ScheduleTimer(HostId h, SimTime t, uint64_t timer_id);

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  uint64_t events_executed() const { return queue_.executed(); }

  // --- lanes -------------------------------------------------------------

  /// A fresh protocol instance id (the tag above kInstanceTagShift) for a
  /// program on this simulator. Ids count from 1 per simulator, so a query's
  /// trace does not depend on other simulators, and Reset() does not rewind
  /// them, so an earlier epoch's traffic never carries a live lane's tag.
  /// The counter wraps at the tag's 24 bits rather than truncate.
  uint32_t NextInstanceId() {
    return last_instance_id_ = last_instance_id_ % kMaxInstanceId + 1;
  }

  /// Opens a query lane at Now(): messages and timers tagged with
  /// `instance_id` (the bits above kInstanceTagShift) are dispatched to
  /// `program` and charged to the returned Metrics, whose tick series starts
  /// now; neighbor-failure callbacks reach every open lane. This is how
  /// many queries share one timeline, each with its own §6.3 cost report.
  /// `program` must outlive the lane; the Metrics stays valid until the lane
  /// closes (CloseLane or Reset()). A lane whose program reacts to
  /// neighbor failures (`hears_failures`) is quiet only while no failure or
  /// detection event is pending either (see set_lane_quiet_hook).
  const Metrics& OpenLane(uint32_t instance_id, HostProgram* program,
                          bool hears_failures = false);
  /// Stops the lane's callbacks but keeps its slot: its late traffic is
  /// dropped without counting as unrouted (a cancelled query), and it still
  /// goes quiet once that traffic has drained.
  void MuteLane(uint32_t instance_id);
  /// Closes a lane. Close a quiet lane (LaneQuiet): events still queued
  /// for a closed lane reach no program and count as unrouted, which only a
  /// teardown followed by Reset() may leave behind.
  void CloseLane(uint32_t instance_id);
  /// True once nothing pending can reach the lane's program again: none of
  /// its deliveries or timers is queued, and, if it hears failures, no
  /// kFailHost or kNeighborDetect event is queued either.
  bool LaneQuiet(uint32_t instance_id);
  /// Called with the lane's instance id, from inside the event whose
  /// dispatch made an open lane quiet (LaneQuiet). The hook must not open
  /// or close lanes itself; schedule that instead. Null (the default, and
  /// after Reset()) calls nothing.
  void set_lane_quiet_hook(std::function<void(uint32_t)> hook) {
    lane_quiet_hook_ = std::move(hook);
  }
  /// Tagged deliveries and timers since Reset() that found neither an open
  /// lane nor an attached program. A lane closes only when quiet, so on a
  /// lane timeline this stays 0; tests assert it.
  uint64_t unrouted_events() const { return unrouted_; }

  /// Optional event tracing; pass nullptr to detach. The recorder must
  /// outlive the simulator (or be detached first).
  void AttachTrace(TraceRecorder* trace) { trace_ = trace; }

 private:
  /// Liveness record, paged and materialized only for hosts that failed or
  /// joined at runtime; every other host reads as the value-initialized
  /// default — joined at 0, never failed.
  struct LifeRecord {
    SimTime failure_time = kNeverFails;
    SimTime join_time = 0.0;
  };

  /// Refcounted slab cell: one stored payload shared by every in-flight
  /// delivery of a fan-out, plus the receivers of the fan-out's
  /// kDeliverBatch. Slots live in fixed-size chunks so addresses stay
  /// stable while a delivery callback schedules further sends.
  struct MessageSlot {
    Message msg;
    uint32_t refs = 0;  // pending kDeliver/kDeliverBatch events
    uint32_t next_free = 0;
    HostId batch[topology::Topology::kMaxImplicitDegree];
  };
  static constexpr uint32_t kSlabChunkShift = 10;
  static constexpr uint32_t kSlabChunkSize = 1u << kSlabChunkShift;
  static constexpr uint32_t kNoFreeSlot = 0xffffffffu;

  static void DispatchThunk(void* ctx, const Event& event) {
    static_cast<Simulator*>(ctx)->DispatchEvent(event);
  }
  void DispatchEvent(const Event& event);

  MessageSlot& SlotAt(uint32_t index) {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSize - 1)];
  }
  uint32_t AcquireMessageSlot(Message&& msg, uint32_t refs);
  void ReleaseMessageSlot(uint32_t index);
  void DropSlotRef(uint32_t index) {
    MessageSlot& slot = SlotAt(index);
    if (--slot.refs == 0) ReleaseMessageSlot(index);
  }

  /// The one send path: stores `msg` once and schedules a delivery to each
  /// target. A broadcast is one charged transmission every target hears
  /// (wireless); otherwise each target is one charged message. With a
  /// fault plane armed, each target's fate (drop, duplicate, delay) is
  /// decided here. The on-time copies (one hop later) form one
  /// kDeliverBatch when there are 2 to kMaxImplicitDegree of them; any
  /// other copy is a kDeliver of its own.
  void Fanout(HostId from, Message msg, const HostId* targets,
              uint32_t count, bool broadcast);
  void CheckEventBudget() const;

  /// One query lane: the program (null while muted), the Metrics its
  /// tagged traffic routes to, and its queued deliveries and timers.
  struct Lane {
    uint32_t instance_id;
    uint32_t pending;
    bool hears_failures;
    HostProgram* program;
    std::unique_ptr<Metrics> metrics;
  };
  /// The open lane of `instance_id`, or null. Traffic finds its lane by
  /// the tag above kInstanceTagShift in its message kind or timer id.
  Lane* FindLane(uint64_t instance_id) {
    for (Lane& lane : lanes_) {
      if (lane.instance_id == instance_id) return &lane;
    }
    return nullptr;
  }
  /// One of `lane`'s queued events (null: off the lane table) has been
  /// dispatched or dropped.
  void Settle(Lane* lane) {
    if (lane == nullptr) return;
    VALIDITY_DCHECK(lane->pending > 0, "lane %u pending count underflow",
                    lane->instance_id);
    if (--lane->pending == 0) MaybeQuiet(*lane);
  }
  /// One kFailHost or kNeighborDetect event has run.
  void SettleFailure();
  void MaybeQuiet(const Lane& lane) {
    if (lane.hears_failures && pending_failures_ != 0) return;
    if (lane_quiet_hook_) lane_quiet_hook_(lane.instance_id);
  }
  /// Where tagged traffic goes: its lane's program, or off the lane table
  /// the attached program; traffic reaching neither counts as unrouted.
  HostProgram* ProgramFor(const Lane* lane) {
    if (lane != nullptr) return lane->program;
    if (program_ == nullptr) ++unrouted_;
    return program_;
  }
  /// One delivery of `msg` to `to`, on `lane` (null: off the lane table).
  void DeliverTo(Lane* lane, HostId to, Message& msg);
  void Trace(TraceEventKind kind, HostId src, HostId dst, uint32_t mkind) {
    // Predicted-not-taken fast path: with no recorder attached this is one
    // well-predicted test against a cold branch.
    if (__builtin_expect(trace_ != nullptr, 0)) {
      TraceSlow(kind, src, dst, mkind);
    }
  }
  __attribute__((cold, noinline)) void TraceSlow(TraceEventKind kind,
                                                 HostId src, HostId dst,
                                                 uint32_t mkind);

  SimOptions options_;
  topology::Topology topo_;
  EventQueue queue_;
  /// CSR adjacency for kGraph topologies (or implicit ones materialized via
  /// SimOptions::materialize_adjacency): base host h's neighbors are
  /// nbr_flat_[nbr_offset_[h] .. nbr_offset_[h+1]). Empty in arithmetic
  /// mode.
  bool use_csr_ = false;
  std::vector<uint32_t> nbr_offset_;
  std::vector<HostId> nbr_flat_;
  /// Hosts joined at runtime: joined_adj_[h - base_hosts_] is the neighbor
  /// list host h attached with. Truncated away by Reset().
  std::vector<std::vector<HostId>> joined_adj_;
  /// Reverse edges runtime joins appended to existing hosts, paged on first
  /// touch and epoch-reset with the rest of the mutable state. Consulted
  /// only while joined hosts exist (joins are the cold path).
  PagedStates<std::vector<HostId>> extra_edges_;
  /// NeighborSlotOf index: per-host permutation of the host's CSR segment,
  /// sorted by neighbor id. Built lazily per host and stored behind the
  /// same paged directory the protocols use for their state, so on a
  /// million-host graph a query touching a small disc only materializes
  /// index storage for that disc. CSR mode only; purely graph-derived, so
  /// it survives Reset().
  struct SlotIndexEntry {
    std::unique_ptr<uint32_t[]> order;  // null until built; degree entries
  };
  mutable PagedStates<SlotIndexEntry> slot_index_;
  /// Liveness, paged: only failed or runtime-joined hosts materialize a
  /// record (see LifeRecord).
  PagedStates<LifeRecord> life_;
  /// Host count at construction; hosts joined at runtime (ids >= this) are
  /// truncated away again by Reset().
  uint32_t base_hosts_ = 0;
  uint32_t num_hosts_ = 0;
  uint32_t dead_count_ = 0;
  uint32_t last_instance_id_ = 0;
  static constexpr uint32_t kMaxInstanceId =
      (1u << (32 - kInstanceTagShift)) - 1;
  /// Open lanes in opening order, and the Metrics of closed ones kept for
  /// reuse: a timeline settles on one Metrics per concurrent lane.
  std::vector<Lane> lanes_;
  std::vector<std::unique_ptr<Metrics>> spare_metrics_;
  /// Queued kFailHost and kNeighborDetect events: lanes that hear failures
  /// stay open until this is 0.
  uint64_t pending_failures_ = 0;
  std::function<void(uint32_t)> lane_quiet_hook_;
  uint64_t unrouted_ = 0;
  /// Message payload slab (stable chunked storage + free list).
  std::vector<std::unique_ptr<MessageSlot[]>> slab_;
  uint32_t slab_used_ = 0;
  uint32_t free_head_ = kNoFreeSlot;
  /// SendToNeighbors' alive-neighbor list (capacity reused).
  std::vector<HostId> fanout_;
  HostProgram* program_ = nullptr;
  const FaultSpec* fault_ = nullptr;
  // fault_ != nullptr && fault_->HasLinkFaults(), cached at install time so
  // the per-delivery branch is one flag test and an idle spec costs nothing.
  bool fault_armed_ = false;
  TraceRecorder* trace_ = nullptr;
  Metrics metrics_;
};

}  // namespace validity::sim

#endif  // VALIDITY_SIM_SIMULATOR_H_
