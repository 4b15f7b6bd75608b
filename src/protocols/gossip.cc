#include "protocols/gossip.h"

#include <algorithm>

namespace validity::protocols {

GossipProtocol::GossipProtocol(sim::Simulator* sim, QueryContext ctx,
                               GossipOptions options)
    : ProtocolBase(sim, std::move(ctx)),
      options_(options),
      partner_rng_(Mix64(options.partner_seed)) {
  VALIDITY_CHECK(options_.rounds >= 1, "gossip needs at least one round");
}

void GossipProtocol::ResetForQuery(QueryContext ctx,
                                   const GossipOptions& options) {
  VALIDITY_CHECK(options.rounds >= 1, "gossip needs at least one round");
  options_ = options;
  // Re-seed: a reused instance must draw the exact partner sequence a fresh
  // construction would.
  partner_rng_ = Rng(Mix64(options.partner_seed));
  ProtocolBase::ResetForQuery(std::move(ctx));
}

double GossipProtocol::LocalEstimate(HostId h) const {
  const HostState* st = states_.Find(h);
  if (st == nullptr || !st->active) return 0.0;
  if (IsExtremum()) return st->scalar;
  return st->weight > 0.0 ? st->value / st->weight : 0.0;
}

void GossipProtocol::Activate(HostId self, int32_t hop) {
  HostState& st = states_.Touch(self);
  st.active = true;
  switch (ctx_.aggregate) {
    case AggregateKind::kCount:
      st.value = 1.0;
      st.weight = self == hq_ ? 1.0 : 0.0;
      break;
    case AggregateKind::kSum:
      st.value = HostValue(self);
      st.weight = self == hq_ ? 1.0 : 0.0;
      break;
    case AggregateKind::kAverage:
      st.value = HostValue(self);
      st.weight = 1.0;
      break;
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      st.scalar = HostValue(self);
      break;
  }

  // Forward the activation flood (fixed-size zero payload, no allocation).
  sim::Message out;
  out.kind = MakeKind(kBroadcast);
  out.StoreInline(GossipPushPayload{}, kPushWireBytes);
  sim_->SendToNeighbors(self, std::move(out));

  // One gossip exchange per round, offset off the delivery grid. The timer
  // re-arms itself round by round: only one round bucket is ever pending
  // per host, so the calendar recycles drained buckets instead of growing
  // sixty of them upfront.
  st.rounds_left = options_.rounds;
  ScheduleLocalTimer(self, sim_->Now() + 0.5 * sim_->options().delta,
                     kTimerRound);
  (void)hop;
}

void GossipProtocol::OnLocalTimer(HostId self, uint32_t local_id) {
  if (local_id == kTimerRound) {
    HostState* st = states_.Find(self);
    if (st == nullptr || !st->active || st->rounds_left == 0) return;
    --st->rounds_left;
    DoRound(self);
    if (st->rounds_left > 0) {
      ScheduleLocalTimer(self, sim_->Now() + sim_->options().delta,
                         kTimerRound);
    }
    return;
  }
  if (local_id == kTimerDeclare) {
    result_.value = LocalEstimate(self);
    result_.declared_at = sim_->Now();
    result_.declared = true;
  }
}

void GossipProtocol::Start(HostId hq) {
  VALIDITY_CHECK(sim_->IsAlive(hq), "querying host must be alive");
  hq_ = hq;
  start_time_ = sim_->Now();
  states_.Reset(sim_->num_hosts());
  Activate(hq, 0);
  SimTime delta = sim_->options().delta;
  ScheduleLocalTimer(hq, start_time_ + (options_.rounds + 2) * delta,
                     kTimerDeclare);
}

void GossipProtocol::DoRound(HostId self) {
  HostState* stp = states_.Find(self);
  if (stp == nullptr || !stp->active) return;
  HostState& st = *stp;
  // Uniform alive neighbor (reservoir pick).
  HostId partner = kInvalidHost;
  uint32_t seen = 0;
  sim_->ForEachAliveNeighbor(self, [&](HostId nb) {
    ++seen;
    if (partner_rng_.NextBelow(seen) == 0) partner = nb;
  });
  if (partner == kInvalidHost) return;  // isolated this round

  GossipPushPayload payload;
  if (IsExtremum()) {
    payload.scalar = st.scalar;
  } else {
    // Push-sum: keep half the mass, push half.
    st.value /= 2.0;
    st.weight /= 2.0;
    payload.value = st.value;
    payload.weight = st.weight;
  }
  sim::Message out;
  out.kind = MakeKind(kPush);
  out.StoreInline(payload, kPushWireBytes);
  sim_->SendTo(self, partner, std::move(out));
}

void GossipProtocol::OnMessage(HostId self, const sim::Message& msg) {
  uint32_t local = 0;
  if (!DecodeKind(msg.kind, &local)) return;
  HostState* stp = states_.Find(self);

  if (local == kBroadcast) {
    if (stp != nullptr && stp->active) return;
    if (sim_->Now() >= Horizon()) return;
    Activate(self, 0);
    return;
  }

  if (local == kPush) {
    if (stp == nullptr || !stp->active) {
      // Mass arriving at a host the flood has not reached yet would be
      // destroyed; activate on first contact instead (gossip protocols
      // spread the query epidemically too).
      Activate(self, 0);
    }
    const GossipPushPayload in = msg.LoadInline<GossipPushPayload>();
    HostState& fresh = *states_.Find(self);
    if (IsExtremum()) {
      fresh.scalar = ctx_.aggregate == AggregateKind::kMin
                         ? std::min(fresh.scalar, in.scalar)
                         : std::max(fresh.scalar, in.scalar);
    } else {
      fresh.value += in.value;
      fresh.weight += in.weight;
    }
  }
}

}  // namespace validity::protocols
