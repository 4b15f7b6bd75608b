#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/fault.h"

namespace validity::sim {

Simulator::Simulator(const topology::Topology& topology, SimOptions options)
    : options_(options),
      topo_(topology),
      base_hosts_(topology.num_hosts()),
      num_hosts_(topology.num_hosts()),
      metrics_(topology.num_hosts()) {
  VALIDITY_CHECK(options_.delta > 0, "delta must be positive");
  use_csr_ = !topo_.implicit() || options_.materialize_adjacency;
  uint32_t n = base_hosts_;
  if (use_csr_) {
    // Adjacency as CSR, built once: one offset pass, one fill pass. The
    // fill enumerates the topology provider, so a materialized implicit
    // topology stores neighbors in exactly the arithmetic order.
    nbr_offset_.resize(n + 1, 0);
    for (HostId h = 0; h < n; ++h) {
      nbr_offset_[h + 1] = nbr_offset_[h] + topo_.Degree(h);
    }
    nbr_flat_.resize(nbr_offset_[n]);
    for (HostId h = 0; h < n; ++h) {
      topo_.CopyNeighbors(h, nbr_flat_.data() + nbr_offset_[h]);
    }
    queue_.Reserve(std::min<size_t>(2 * static_cast<size_t>(n) + 64, 1 << 20));
  } else {
    // Arithmetic mode: nothing per-host is built here; a query pays only
    // for the hosts it touches. The queue warms itself on demand.
    queue_.Reserve(1024);
  }
  queue_.SetTypedHandler(&Simulator::DispatchThunk, this);
}

void Simulator::Run() {
  while (!queue_.empty()) {
    queue_.RunOne();
    CheckEventBudget();
  }
}

void Simulator::RunUntil(SimTime t) {
  queue_.RunUntil(t);
  CheckEventBudget();
}

void Simulator::CheckEventBudget() const {
  if (options_.max_events > 0) {
    VALIDITY_CHECK(queue_.executed() <= options_.max_events,
                   "event budget exhausted: protocol may not terminate");
  }
}

void Simulator::Reset() {
  // Drop pending events; undelivered fan-out deliveries and batches still
  // hold slab references that must be released for their slots (and pooled
  // bodies) to recycle.
  queue_.Clear([this](const Event& event) {
    if (event.tag == EventTag::kDeliver ||
        event.tag == EventTag::kDeliverBatch) {
      DropSlotRef(event.slot);
    }
  });
  // Every slot is free now; rewind the slab to sequential allocation instead
  // of chasing the drained free list's scrambled order (chunk storage stays
  // warm, but the next run's slot accesses are contiguous again, like a
  // fresh simulator's). Payload references must be dropped: a recycled slot
  // is only body-reset when it leaves the free list, and slab_used_ = 0
  // abandons the list.
  for (uint32_t i = 0; i < slab_used_; ++i) {
    // Every pending delivery or batch holds one ref; the queue drain above
    // must have released every one of them.
    VALIDITY_DCHECK(SlotAt(i).refs == 0);
    SlotAt(i).msg.body.reset();
  }
  slab_used_ = 0;
  free_head_ = kNoFreeSlot;
  // Runtime joins truncate away; liveness rewinds by epoch (failed hosts'
  // records simply stop being current — no per-host revival walk). The
  // reverse-slot index is graph-derived and survives: joined hosts never
  // enter it.
  joined_adj_.clear();
  extra_edges_.Reset(base_hosts_);
  life_.Reset(base_hosts_);
  num_hosts_ = base_hosts_;
  dead_count_ = 0;
  metrics_.Reset(base_hosts_);
  for (Lane& lane : lanes_) spare_metrics_.push_back(std::move(lane.metrics));
  lanes_.clear();
  unrouted_ = 0;
  program_ = nullptr;
  fault_ = nullptr;
  fault_armed_ = false;
}

const Metrics& Simulator::OpenLane(uint32_t instance_id,
                                   HostProgram* program) {
  VALIDITY_DCHECK(program != nullptr && FindLane(instance_id) == nullptr);
  if (spare_metrics_.empty()) {
    spare_metrics_.push_back(std::make_unique<Metrics>(num_hosts_));
  }
  lanes_.push_back(Lane{instance_id, program, std::move(spare_metrics_.back())});
  spare_metrics_.pop_back();
  lanes_.back().metrics->Reset(num_hosts_, Now());
  return *lanes_.back().metrics;
}

void Simulator::MuteLane(uint32_t instance_id) {
  Lane* lane = FindLane(instance_id);
  VALIDITY_DCHECK(lane != nullptr);
  lane->program = nullptr;
}

void Simulator::CloseLane(uint32_t instance_id) {
  Lane* lane = FindLane(instance_id);
  VALIDITY_DCHECK(lane != nullptr);
  spare_metrics_.push_back(std::move(lane->metrics));
  // Erase, not swap-remove: failure callbacks visit lanes in opening order.
  lanes_.erase(lanes_.begin() + (lane - lanes_.data()));
}

size_t Simulator::ResidentTableBytes() const {
  size_t bytes = nbr_offset_.capacity() * sizeof(uint32_t) +
                 nbr_flat_.capacity() * sizeof(HostId);
  bytes += life_.ResidentBytes() + extra_edges_.ResidentBytes() +
           slot_index_.ResidentBytes();
  for (const std::vector<HostId>& own : joined_adj_) {
    bytes += sizeof(own) + own.capacity() * sizeof(HostId);
  }
  bytes += slab_.size() * static_cast<size_t>(kSlabChunkSize) *
           sizeof(MessageSlot);
  bytes += metrics_.ResidentBytes();
  for (const Lane& lane : lanes_) bytes += lane.metrics->ResidentBytes();
  for (const auto& spare : spare_metrics_) bytes += spare->ResidentBytes();
  bytes += queue_.ResidentBytes();
  return bytes;
}

void Simulator::ScheduleAt(SimTime t, std::function<void()> action) {
  queue_.ScheduleAt(t, std::move(action));
}

void Simulator::ScheduleAfter(SimTime dt, std::function<void()> action) {
  queue_.ScheduleAt(Now() + dt, std::move(action));
}

void Simulator::DispatchEvent(const Event& event) {
  switch (event.tag) {
    case EventTag::kDeliver:
    case EventTag::kDeliverBatch: {
      // Slab chunks have stable addresses, so `slot` stays valid while the
      // program's OnMessage schedules further sends into the slab. No
      // delivery opens or closes a lane, so one lookup serves a batch.
      MessageSlot& slot = SlotAt(event.slot);
      Lane* lane = FindLane(slot.msg.kind >> kInstanceTagShift);
      if (event.tag == EventTag::kDeliver) {
        DeliverTo(lane, event.a, slot.msg);
      } else {
        for (uint32_t i = 0; i < event.a; ++i) {
          DeliverTo(lane, slot.batch[i], slot.msg);
        }
      }
      DropSlotRef(event.slot);
      break;
    }
    case EventTag::kTimer: {
      HostProgram* program =
          ProgramFor(FindLane(event.payload >> kInstanceTagShift));
      if (IsAlive(event.a) && program != nullptr) {
        program->OnTimer(event.a, event.payload);
      }
      break;
    }
    case EventTag::kFailHost:
      FailHost(event.a);
      break;
    case EventTag::kNeighborDetect:
      // Failure detection belongs to the shared network, not to one query:
      // every live program hears it. Callbacks never open or close lanes.
      if (!IsAlive(event.a)) break;
      if (program_ != nullptr) program_->OnNeighborFailure(event.a, event.b);
      for (const Lane& lane : lanes_) {
        if (lane.program != nullptr) {
          lane.program->OnNeighborFailure(event.a, event.b);
        }
      }
      break;
    case EventTag::kGeneric:
      VALIDITY_CHECK(false, "generic events run inside the queue");
      break;
  }
}

uint32_t Simulator::AcquireMessageSlot(Message&& msg, uint32_t refs) {
  uint32_t index;
  if (free_head_ != kNoFreeSlot) {
    index = free_head_;
    free_head_ = SlotAt(index).next_free;
  } else {
    index = slab_used_++;
    if ((index >> kSlabChunkShift) == slab_.size()) {
      slab_.push_back(std::make_unique<MessageSlot[]>(kSlabChunkSize));
    }
  }
  MessageSlot& slot = SlotAt(index);
  slot.msg = std::move(msg);
  slot.refs = refs;
  return index;
}

void Simulator::ReleaseMessageSlot(uint32_t index) {
  MessageSlot& slot = SlotAt(index);
  slot.msg.body.reset();  // drop the payload reference promptly
  slot.next_free = free_head_;
  free_head_ = index;
}

uint32_t Simulator::NeighborSlotOf(HostId h, HostId nb) const {
  VALIDITY_DCHECK(h < num_hosts_);
  uint32_t base_count = 0;
  if (__builtin_expect(h >= base_hosts_, 0)) {
    // Runtime-joined host: its own list is short and cold.
    const std::vector<HostId>& own = joined_adj_[h - base_hosts_];
    base_count = static_cast<uint32_t>(own.size());
    for (uint32_t i = 0; i < base_count; ++i) {
      if (own[i] == nb) return i;
    }
  } else if (use_csr_) {
    uint32_t begin = nbr_offset_[h];
    base_count = nbr_offset_[h + 1] - begin;
    if (base_count > 0) {
      SlotIndexEntry& entry = slot_index_.Touch(h);
      const HostId* nbrs = nbr_flat_.data() + begin;
      if (entry.order == nullptr) {
        entry.order.reset(new uint32_t[base_count]);
        for (uint32_t i = 0; i < base_count; ++i) entry.order[i] = i;
        std::sort(
            entry.order.get(), entry.order.get() + base_count,
            [nbrs](uint32_t a, uint32_t b) { return nbrs[a] < nbrs[b]; });
      }
      const uint32_t* order = entry.order.get();
      uint32_t lo = 0;
      uint32_t hi = base_count;
      while (lo < hi) {
        uint32_t mid = lo + (hi - lo) / 2;
        if (nbrs[order[mid]] < nb) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < base_count && nbrs[order[lo]] == nb) return order[lo];
    }
  } else {
    // Arithmetic neighborhoods hold at most 8 ids: a straight scan beats
    // any index.
    HostId buf[topology::Topology::kMaxImplicitDegree];
    base_count = topo_.CopyNeighbors(h, buf);
    for (uint32_t i = 0; i < base_count; ++i) {
      if (buf[i] == nb) return i;
    }
  }
  // Overflow edges appended by runtime joins: a short linear scan.
  if (!joined_adj_.empty()) {
    if (const std::vector<HostId>* extra = extra_edges_.Find(h)) {
      for (uint32_t i = 0; i < extra->size(); ++i) {
        if ((*extra)[i] == nb) return base_count + i;
      }
    }
  }
  VALIDITY_CHECK(false, "host %u is not a neighbor of %u", nb, h);
  return 0;
}

void Simulator::FailHost(HostId h) {
  VALIDITY_DCHECK(h < num_hosts_);
  if (!IsAlive(h)) return;
  Trace(TraceEventKind::kFail, h, h, 0);
  life_.Touch(h).failure_time = Now();
  ++dead_count_;
  if (options_.failure_detection) {
    // Neighbors detect the silence one heartbeat interval plus one delay
    // after the failure.
    SimTime detect_at = Now() + options_.heartbeat_interval + options_.delta;
    for (HostId nb : NeighborsOf(h)) {
      if (!IsAlive(nb)) continue;
      queue_.ScheduleTyped(detect_at, EventTag::kNeighborDetect, nb, h, 0, 0);
    }
  }
}

void Simulator::ScheduleFailure(SimTime t, HostId h) {
  queue_.ScheduleTyped(t, EventTag::kFailHost, h, kInvalidHost, 0, 0);
}

StatusOr<HostId> Simulator::AddHost(const std::vector<HostId>& neighbors) {
  for (HostId nb : neighbors) {
    if (nb >= num_hosts_) return Status::OutOfRange("unknown neighbor");
    if (!IsAlive(nb)) {
      return Status::FailedPrecondition("cannot join a failed neighbor");
    }
  }
  HostId id = num_hosts_++;
  joined_adj_.push_back(neighbors);
  for (HostId nb : neighbors) extra_edges_.Touch(nb).push_back(id);
  LifeRecord& life = life_.Touch(id);
  life.join_time = Now();
  Trace(TraceEventKind::kJoin, id, id, 0);
  metrics_.OnHostAdded();
  // Lanes must cover the new host too, so tagged traffic delivered to it
  // lands in the right zero-message bucket.
  for (Lane& lane : lanes_) lane.metrics->OnHostAdded();
  return id;
}

void Simulator::DeliverTo(Lane* lane, HostId to, Message& msg) {
  msg.dst = to;
  HostProgram* program = ProgramFor(lane);
  if (!IsAlive(to)) {
    Trace(TraceEventKind::kDrop, msg.src, to, msg.kind);
    return;  // lost: destination failed before delivery
  }
  Trace(TraceEventKind::kDeliver, msg.src, to, msg.kind);
  (lane != nullptr ? *lane->metrics : metrics_).RecordProcessed(to);
  if (program != nullptr) program->OnMessage(to, msg);
}

void Simulator::SendTo(HostId from, HostId to, Message msg) {
  VALIDITY_DCHECK(to < num_hosts_);
  SendToEach(from, std::move(msg), &to, 1);
}

void Simulator::SendToNeighbors(HostId from, Message msg) {
  VALIDITY_DCHECK(from < num_hosts_);
  if (!IsAlive(from)) return;
  fanout_.clear();
  ForEachAliveNeighbor(from, [this](HostId nb) { fanout_.push_back(nb); });
  Fanout(from, std::move(msg), fanout_.data(),
         static_cast<uint32_t>(fanout_.size()),
         /*broadcast=*/options_.medium == MediumKind::kWireless);
}

void Simulator::SendToEach(HostId from, Message msg, const HostId* targets,
                           uint32_t count) {
  VALIDITY_DCHECK(from < num_hosts_);
  if (!IsAlive(from)) return;
  Fanout(from, std::move(msg), targets, count, /*broadcast=*/false);
}

void Simulator::SendDirect(HostId from, HostId to, Message msg) {
  VALIDITY_CHECK(options_.medium == MediumKind::kPointToPoint,
                 "direct delivery requires a point-to-point underlay");
  SendTo(from, to, std::move(msg));
}

void Simulator::Fanout(HostId from, Message msg, const HostId* targets,
                       uint32_t count, bool broadcast) {
  msg.src = from;
  const uint32_t kind = msg.kind;
  const size_t bytes = msg.SizeBytes();
  Lane* lane = FindLane(kind >> kInstanceTagShift);
  Metrics& metrics = lane != nullptr ? *lane->metrics : metrics_;
  if (broadcast) {
    // One transmission; every target hears it (a per-receiver link fate
    // models each receiver's local reception of the broadcast).
    Trace(TraceEventKind::kSend, from, kInvalidHost, kind);
    metrics.RecordSend(Now(), bytes);
  }
  if (count == 0) return;
  const uint32_t index = AcquireMessageSlot(std::move(msg), 0);
  MessageSlot& slot = SlotAt(index);
  const SimTime arrive = Now() + options_.delta;
  // Every pending event referencing the slot holds one ref.
  auto deliver_at = [&](SimTime t, HostId to) {
    ++slot.refs;
    queue_.ScheduleTyped(t, EventTag::kDeliver, to, from, index, 0);
  };
  // On-time copies wait in the slot and are scheduled after the loop: only
  // late copies (other timestamps) are pushed meanwhile, so the `arrive`
  // bucket's order is exactly one push per copy in loop order. Past the
  // batch cap they spill to individual events, still in that order.
  constexpr uint32_t kCap = topology::Topology::kMaxImplicitDegree;
  uint32_t on_time = 0;
  auto copy = [&](HostId to, uint32_t extra_hops) {
    if (extra_hops != 0) {
      deliver_at(arrive + extra_hops * options_.delta, to);
      return;
    }
    if (on_time < kCap) {
      slot.batch[on_time] = to;
    } else {
      if (on_time == kCap) {
        for (HostId held : slot.batch) deliver_at(arrive, held);
      }
      deliver_at(arrive, to);
    }
    ++on_time;
  };
  for (uint32_t i = 0; i < count; ++i) {
    const HostId to = targets[i];
    VALIDITY_DCHECK(to < num_hosts_);
    if (!broadcast) {
      Trace(TraceEventKind::kSend, from, to, kind);
      metrics.RecordSend(Now(), bytes);
    }
    if (__builtin_expect(!fault_armed_, 1)) {
      copy(to, 0);
      continue;
    }
    // Each receiver's fate is decided at send time: dropped, or one copy
    // plus possibly a duplicate, each on time or late by whole hops.
    const LinkFate fate =
        DecideLinkFate(*fault_, from, to, Now(), kind & kLocalKindMask);
    if (fate.drop) {
      Trace(TraceEventKind::kDrop, from, to, kind);
      continue;
    }
    copy(to, fate.delay_hops);
    if (fate.duplicate) copy(to, fate.duplicate_delay_hops);
  }
  if (on_time == 1) {
    deliver_at(arrive, slot.batch[0]);
  } else if (on_time >= 2 && on_time <= kCap) {
    ++slot.refs;
    queue_.ScheduleTyped(arrive, EventTag::kDeliverBatch, on_time, from, index,
                         0);
  }
  if (slot.refs == 0) ReleaseMessageSlot(index);  // every copy dropped
}

void Simulator::InstallFaults(const FaultSpec* spec) {
  fault_ = spec;
  // A spec with all-zero link rates cannot change any delivery's fate
  // (DecideLinkFate draws compare against 0.0), so leave the fate machinery
  // disarmed: installed-but-idle is bit-identical to absent and costs the
  // same single predicted-not-taken test per delivery.
  fault_armed_ = spec != nullptr && spec->HasLinkFaults();
}

void Simulator::ScheduleTimer(HostId h, SimTime t, uint64_t timer_id) {
  queue_.ScheduleTyped(t, EventTag::kTimer, h, kInvalidHost, 0, timer_id);
}

void Simulator::TraceSlow(TraceEventKind kind, HostId src, HostId dst,
                          uint32_t mkind) {
  trace_->Record(TraceEvent{kind, Now(), src, dst, mkind});
}

}  // namespace validity::sim
