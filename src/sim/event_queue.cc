#include "sim/event_queue.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace validity::sim {

namespace {

/// Map hash over the timestamp's bit pattern.
uint64_t HashKey(uint64_t key) { return Mix64(key); }

}  // namespace

EventQueue::EventQueue() : map_(64) {
  heap_.reserve(64);
  buckets_.reserve(64);
}

uint64_t EventQueue::TimeKey(SimTime t) {
  uint64_t key;
  static_assert(sizeof(key) == sizeof(t));
  std::memcpy(&key, &t, sizeof(key));
  return key;
}

void EventQueue::MapGrow() {
  std::vector<MapCell> old = std::move(map_);
  map_.assign(old.size() * 2, MapCell{});
  size_t mask = map_.size() - 1;
  for (const MapCell& cell : old) {
    if (cell.bucket == kNil) continue;
    size_t i = HashKey(cell.key) & mask;
    while (map_[i].bucket != kNil) i = (i + 1) & mask;
    map_[i] = cell;
  }
}

uint32_t* EventQueue::MapFindOrInsert(uint64_t key) {
  if ((map_used_ + 1) * 2 > map_.size()) MapGrow();
  size_t mask = map_.size() - 1;
  size_t i = HashKey(key) & mask;
  while (map_[i].bucket != kNil) {
    if (map_[i].key == key) return &map_[i].bucket;
    i = (i + 1) & mask;
  }
  map_[i].key = key;  // bucket stays kNil: caller fills it in
  return &map_[i].bucket;
}

void EventQueue::MapErase(uint64_t key) {
  size_t mask = map_.size() - 1;
  size_t i = HashKey(key) & mask;
  while (map_[i].bucket == kNil || map_[i].key != key) i = (i + 1) & mask;
  // Backward-shift deletion keeps probe chains unbroken without tombstones.
  size_t hole = i;
  size_t j = i;
  for (;;) {
    j = (j + 1) & mask;
    if (map_[j].bucket == kNil) break;
    size_t home = HashKey(map_[j].key) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      map_[hole] = map_[j];
      hole = j;
    }
  }
  map_[hole].bucket = kNil;
  --map_used_;
}

uint32_t EventQueue::BucketFor(SimTime t, bool bulk) {
  VALIDITY_DCHECK(t >= now_, "event scheduled in the past (%f < %f)", t, now_);
  t += 0.0;  // normalize -0.0 so bit-pattern keys compare equal
  uint64_t key = TimeKey(t);
  uint32_t* cell = MapFindOrInsert(key);
  if (*cell != kNil) return *cell;
  uint32_t index;
  // Bulk traffic reuses fat storage first; closures take slim buckets and
  // never steal fat ones (a fresh slim bucket is cheaper than parking a
  // busy tick's capacity under a sparse far-future timestamp).
  uint32_t* primary = bulk ? &free_fat_ : &free_slim_;
  if (*primary != kNil) {
    index = *primary;
    *primary = buckets_[index].next_free;
    if (bulk) --free_fat_count_;
  } else if (bulk && free_slim_ != kNil) {
    index = free_slim_;
    free_slim_ = buckets_[index].next_free;
  } else {
    index = static_cast<uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  Bucket& bucket = buckets_[index];
  bucket.time = t;
  bucket.head = 0;
  *cell = index;
  ++map_used_;
  HeapPush(index);
  return index;
}

void EventQueue::HeapPush(uint32_t bucket_index) {
  // Implicit 4-ary min-heap over distinct bucket times, hole percolation.
  SimTime t = buckets_[bucket_index].time;
  size_t i = heap_.size();
  heap_.push_back(bucket_index);
  while (i > 0) {
    size_t parent = (i - 1) / kHeapArity;
    if (t >= buckets_[heap_[parent]].time) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = bucket_index;
}

void EventQueue::HeapPopTop() {
  uint32_t moved = heap_.back();
  heap_.pop_back();
  size_t n = heap_.size();
  if (n == 0) return;
  SimTime moved_time = buckets_[moved].time;
  size_t i = 0;
  for (;;) {
    size_t first_child = i * kHeapArity + 1;
    if (first_child >= n) break;
    size_t last_child = std::min(first_child + kHeapArity, n);
    size_t best = first_child;
    SimTime best_time = buckets_[heap_[best]].time;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      SimTime ct = buckets_[heap_[c]].time;
      if (ct < best_time) {
        best = c;
        best_time = ct;
      }
    }
    if (best_time >= moved_time) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moved;
}

Event EventQueue::PopNext() {
  uint32_t index = heap_[0];
  Bucket& bucket = buckets_[index];
  now_ = bucket.time;
  Event event = bucket.events[bucket.head++];
  if (bucket.head == bucket.events.size()) {
    // Drained: drop out of the calendar but keep the vector capacity for
    // the next timestamp this bucket serves.
    HeapPopTop();
    MapErase(TimeKey(bucket.time));
    RecycleBucket(index);
  }
  --size_;
  return event;
}

void EventQueue::RecycleBucket(uint32_t index) {
  Bucket& bucket = buckets_[index];
  bucket.events.clear();
  bucket.head = 0;
  if (bucket.events.capacity() > kFatBucketCapacity) {
    if (free_fat_count_ < kMaxFatFree) {
      ++free_fat_count_;
      bucket.next_free = free_fat_;
      free_fat_ = index;
      return;
    }
    // Enough fat storage is already parked: release this spike.
    std::vector<Event>().swap(bucket.events);
  }
  bucket.next_free = free_slim_;
  free_slim_ = index;
}

void EventQueue::ScheduleAt(SimTime t, Action action) {
  uint32_t slot;
  if (!generic_free_.empty()) {
    slot = generic_free_.back();
    generic_free_.pop_back();
    generic_pool_[slot] = std::move(action);
  } else {
    slot = static_cast<uint32_t>(generic_pool_.size());
    generic_pool_.push_back(std::move(action));
  }
  uint32_t bucket = BucketFor(t, /*bulk=*/false);
  buckets_[bucket].events.push_back(
      Event{0, kInvalidHost, kInvalidHost, slot, EventTag::kGeneric});
  ++size_;
}

void EventQueue::ScheduleTyped(SimTime t, EventTag tag, HostId a, HostId b,
                               uint32_t slot, uint64_t payload) {
  VALIDITY_DCHECK(tag != EventTag::kGeneric, "use ScheduleAt for closures");
  uint32_t bucket = BucketFor(t, /*bulk=*/true);
  buckets_[bucket].events.push_back(Event{payload, a, b, slot, tag});
  ++size_;
}

void EventQueue::Reserve(size_t events) {
  // Calendar buckets size themselves to the live event population and are
  // recycled; what is worth warming is the bucket/heap/map skeleton (one
  // entry per distinct pending timestamp) and the closure side table.
  size_t distinct = std::min<size_t>(events, 4096);
  buckets_.reserve(distinct);
  heap_.reserve(distinct);
  generic_pool_.reserve(std::min<size_t>(events, 1024));
}

bool EventQueue::RunOne() {
  if (size_ == 0) return false;
  Event event = PopNext();
  executed_ += event.tag == EventTag::kDeliverBatch ? event.a : 1;
  if (event.tag == EventTag::kGeneric) {
    // Move the closure out before running it: the action may schedule more
    // generic events, which can grow the pool and reuse this slot.
    Action action = std::move(generic_pool_[event.slot]);
    generic_pool_[event.slot] = nullptr;
    generic_free_.push_back(event.slot);
    action();
  } else {
    VALIDITY_DCHECK(handler_ != nullptr, "typed event with no handler");
    handler_(handler_ctx_, event);
  }
  return true;
}

void EventQueue::RunUntil(SimTime t) {
  while (size_ != 0 && buckets_[heap_[0]].time <= t) RunOne();
  now_ = std::max(now_, t);
}

void EventQueue::RunAll() {
  while (RunOne()) {
  }
}

size_t EventQueue::ResidentBytes() const {
  size_t bytes = buckets_.capacity() * sizeof(Bucket) +
                 heap_.capacity() * sizeof(uint32_t) +
                 map_.capacity() * sizeof(MapCell) +
                 generic_pool_.capacity() * sizeof(Action) +
                 generic_free_.capacity() * sizeof(uint32_t);
  for (const Bucket& bucket : buckets_) {
    bytes += bucket.events.capacity() * sizeof(Event);
  }
  return bytes;
}

void EventQueue::Clear(const std::function<void(const Event&)>& on_discard) {
  for (uint32_t index : heap_) {
    Bucket& bucket = buckets_[index];
    for (size_t i = bucket.head; i < bucket.events.size(); ++i) {
      const Event& event = bucket.events[i];
      if (event.tag == EventTag::kGeneric) {
        generic_pool_[event.slot] = nullptr;
        generic_free_.push_back(event.slot);
      } else if (on_discard) {
        on_discard(event);
      }
    }
    MapErase(TimeKey(bucket.time));
    RecycleBucket(index);
  }
  heap_.clear();
  size_ = 0;
  now_ = 0;
  executed_ = 0;
}

}  // namespace validity::sim
