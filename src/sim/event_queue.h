// Deterministic discrete-event queue over typed, plain-data events.
//
// Events fire in (time, insertion-sequence) order, so simultaneous events
// run in the order they were scheduled and every run is exactly replayable.
//
// The hot path is allocation-free: an event is a tagged POD appended to the
// FIFO bucket of its timestamp, and a small implicit 4-ary min-heap orders
// the *distinct* timestamps only (a calendar heap). Simulated workloads
// concentrate events on very few future instants (everything a host does
// lands at `now` or `now + delta`), so pushes are an O(1) hash-probe +
// vector append and pops are an O(1) bucket read; heap percolation is paid
// once per distinct timestamp instead of once per event. FIFO order inside
// a bucket *is* insertion-sequence order, so the determinism contract holds
// by construction.
//
// Typed events (deliveries, timers, failures, failure detections) carry
// their operands inline and are dispatched through a handler installed by
// the simulator; a fan-out's on-time deliveries travel as one batch event,
// which executed() still counts once per delivery. kGeneric events are the
// escape hatch for arbitrary closures (simulation scripting, churn
// harnesses, tests) and index into a side table of recycled std::function
// slots.

#ifndef VALIDITY_SIM_EVENT_QUEUE_H_
#define VALIDITY_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"

namespace validity::sim {

/// Discriminator for the typed event union.
enum class EventTag : uint8_t {
  /// Closure escape hatch; `slot` indexes the queue's side table of actions.
  kGeneric = 0,
  /// Deliver message-slab slot `slot` to host `a` (sent by host `b`).
  kDeliver,
  /// Deliver message-slab slot `slot` to each of the `a` receivers stored
  /// in the slot, in order (sent by host `b`): every on-time copy of one
  /// fan-out, in one event. Counts as `a` executed events.
  kDeliverBatch,
  /// Fire HostProgram::OnTimer(a, payload) if `a` is alive.
  kTimer,
  /// Fail host `a`.
  kFailHost,
  /// Fire HostProgram::OnNeighborFailure(a, b): `a` detects that its
  /// neighbor `b` failed.
  kNeighborDetect,
};

/// One scheduled occurrence. Plain data; the meaning of `a`, `b`, `slot`,
/// and `payload` depends on `tag` (see EventTag).
struct Event {
  uint64_t payload;
  HostId a;
  HostId b;
  uint32_t slot;
  EventTag tag;
};

class EventQueue {
 public:
  using Action = std::function<void()>;
  /// Receives every non-generic event as it fires. Installed once by the
  /// simulator; a plain function pointer keeps dispatch devirtualized.
  using TypedHandler = void (*)(void* ctx, const Event& event);

  EventQueue();

  void SetTypedHandler(TypedHandler handler, void* ctx) {
    handler_ = handler;
    handler_ctx_ = ctx;
  }

  /// Schedules `action` at absolute time `t` (must be >= Now()).
  void ScheduleAt(SimTime t, Action action);

  /// Schedules a typed event at absolute time `t` (must be >= Now()).
  /// Allocation-free once the calendar has warmed up.
  void ScheduleTyped(SimTime t, EventTag tag, HostId a, HostId b,
                     uint32_t slot, uint64_t payload);

  /// Capacity hint for roughly `events` pending entries: warms the
  /// calendar skeleton (bucket/heap slots, one per distinct timestamp,
  /// capped) and the closure side table. Per-bucket event storage grows on
  /// demand and is recycled.
  void Reserve(size_t events);

  /// True if no events remain.
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Current simulated time: the time of the last popped event (0 before any
  /// event has run).
  SimTime Now() const { return now_; }

  /// Pops and runs the next event. Returns false if the queue was empty.
  bool RunOne();

  /// Runs events while their time is <= `t` (events scheduled at exactly `t`
  /// are included). Advances Now() to at most `t`.
  void RunUntil(SimTime t);

  /// Runs to exhaustion.
  void RunAll();

  /// Discards every pending event without running it and rewinds the clock:
  /// Now() returns to 0 and executed() to 0, as if freshly constructed.
  /// `on_discard` (optional) sees each pending non-generic event so the
  /// owner can release resources it references (the simulator drops message
  /// slab references of undelivered kDeliver events); pending kGeneric
  /// closures are destroyed internally. O(pending events + pending distinct
  /// timestamps); bucket, heap, map, and closure-pool storage is retained
  /// for the next run. This is the session-reset path (sim/session.h).
  void Clear(const std::function<void(const Event&)>& on_discard = nullptr);

  /// Number of events executed so far; a kDeliverBatch counts once per
  /// receiver.
  uint64_t executed() const { return executed_; }

  /// Bytes of queue storage currently held (bucket event vectors, calendar
  /// skeleton, closure side table). Feeds Simulator::ResidentTableBytes.
  size_t ResidentBytes() const;

 private:
  static constexpr size_t kHeapArity = 4;
  static constexpr uint32_t kNil = 0xffffffffu;

  /// FIFO of every event scheduled for one timestamp. Drained buckets keep
  /// their vector capacity and return to a free list, so steady-state
  /// scheduling recycles storage instead of allocating. Free buckets are
  /// segregated by capacity class: bulk traffic (typed deliveries/timers,
  /// thousands per busy tick) reuses fat storage, while sparse closure
  /// timestamps (a service timeline can hold hundreds of pending arrival
  /// and retirement closures at once) get slim buckets — otherwise the fat
  /// storage of drained busy ticks migrates into long-lived sparse buckets
  /// and the queue's resident bytes inflate to O(pending timestamps x
  /// busiest tick) (tests/service_stress_test.cc pins this down).
  struct Bucket {
    SimTime time = 0;
    uint32_t head = 0;       // next event to run
    uint32_t next_free = kNil;
    std::vector<Event> events;
  };

  /// Capacity above which a drained bucket is recycled on the fat list.
  static constexpr size_t kFatBucketCapacity = 256;
  /// Fat buckets kept warm for reuse. A steady simulation only ever builds
  /// a handful of bulk timestamps concurrently (deliveries and timers land
  /// within a few hops of now), so anything beyond this is a one-shot
  /// spike whose storage is released on recycle rather than parked.
  static constexpr size_t kMaxFatFree = 8;

  /// Open-addressed timestamp -> bucket map (linear probing, backward-shift
  /// deletion). `bucket == kNil` marks an empty cell.
  struct MapCell {
    uint64_t key = 0;
    uint32_t bucket = kNil;
  };

  static uint64_t TimeKey(SimTime t);
  uint32_t* MapFindOrInsert(uint64_t key);
  void MapErase(uint64_t key);
  void MapGrow();

  /// `bulk` hints at the expected population: typed events prefer a fat
  /// recycled bucket, closures a slim one (and never steal fat storage).
  uint32_t BucketFor(SimTime t, bool bulk);
  void RecycleBucket(uint32_t index);
  void HeapPush(uint32_t bucket_index);
  void HeapPopTop();
  Event PopNext();

  std::vector<Bucket> buckets_;
  /// Active bucket indices, 4-ary min-heap keyed by bucket time. Times in
  /// the heap are distinct, so the time-only comparison is total.
  std::vector<uint32_t> heap_;
  std::vector<MapCell> map_;
  size_t map_used_ = 0;

  /// Side table of kGeneric closures; freed slots are recycled.
  std::vector<Action> generic_pool_;
  std::vector<uint32_t> generic_free_;

  TypedHandler handler_ = nullptr;
  void* handler_ctx_ = nullptr;
  size_t size_ = 0;
  SimTime now_ = 0;
  uint64_t executed_ = 0;

  /// Drained-bucket free lists, segregated by capacity class (see Bucket).
  /// Cold: touched once per distinct timestamp, never per event.
  uint32_t free_slim_ = kNil;
  uint32_t free_fat_ = kNil;
  size_t free_fat_count_ = 0;
};

}  // namespace validity::sim

#endif  // VALIDITY_SIM_EVENT_QUEUE_H_
