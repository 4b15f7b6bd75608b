#include "protocols/byzantine.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace validity::protocols {

namespace {

// Far outside the paper's attribute range [0, 500]: an inflated min/max
// injected by a byzantine host lands the answer outside any honest oracle
// interval.
constexpr double kScalarExtreme = 1e12;
// Phantom "attribute value" merged per phantom host (the attribute range
// maximum, so sum-type aggregates inflate visibly).
constexpr double kPhantomValue = 500.0;
constexpr uint64_t kPhantomStream = 0xc2b2ae3d27d4eb4fULL;

// Reply channels are local kind >= 2 across every protocol in the repo
// (wildfire kConvergecast, gossip kPush, spanning-tree/all-report/dag
// kReport, dag kRegister); local kind 1 is always dissemination.
constexpr uint32_t kReplyChannelFloor = 2;

bool IsExtremumCombiner(CombinerKind kind) {
  return kind == CombinerKind::kMin || kind == CombinerKind::kMax;
}

double ExtremeFor(CombinerKind kind) {
  return kind == CombinerKind::kMin ? -kScalarExtreme : kScalarExtreme;
}

}  // namespace

StandardByzantineMutator::StandardByzantineMutator(
    ProtocolKind protocol, const sim::FaultSpec& spec, CombinerKind combiner,
    const sketch::FmParams& fm, uint32_t num_hosts)
    : protocol_(protocol),
      spec_(spec),
      combiner_(combiner),
      inflation_(PartialAggregate::Identity(combiner, fm)) {
  if (spec_.byzantine_mode != sim::ByzantineMode::kInflate) return;
  phantoms_ = spec_.inflate_phantoms != 0 ? spec_.inflate_phantoms
                                          : std::max(1u, num_hosts);
  if (IsExtremumCombiner(combiner_)) {
    inflation_ = PartialAggregate::FromScalar(combiner_, ExtremeFor(combiner_));
    return;
  }
  // Phantom hosts occupy ids just above the real range; each contributes
  // one deterministic sketch/set element, so the same spec inflates every
  // run identically.
  for (uint32_t i = 0; i < phantoms_; ++i) {
    HostId phantom = num_hosts + i;
    Rng rng(Mix64(spec_.seed ^ (kPhantomStream + phantom)));
    inflation_.CombineFrom(
        PartialAggregate::Initial(combiner_, phantom, kPhantomValue, fm, &rng));
  }
}

bool StandardByzantineMutator::MutateFromByzantine(HostId src,
                                                   sim::Message* msg) {
  switch (spec_.byzantine_mode) {
    case sim::ByzantineMode::kNone:
      return true;
    case sim::ByzantineMode::kDeadenReplies:
      return (msg->kind & sim::kLocalKindMask) < kReplyChannelFloor;
    case sim::ByzantineMode::kInflate:
      Inflate(msg);
      return true;
    case sim::ByzantineMode::kStaleReplay:
      StaleReplay(src, msg);
      return true;
  }
  return true;
}

void StandardByzantineMutator::Inflate(sim::Message* msg) {
  if (msg->body) {
    // Pooled aggregate (wildfire convergecast / piggyback, report bodies):
    // corrupt a copy — the original body is shared with the fan-out's other
    // in-flight deliveries. Other body layouts (the DAG's report body,
    // DagReport::Body) pass through untouched: a byzantine host that cannot
    // forge a format simply relays it.
    const auto* aggregate = dynamic_cast<const AggregateBody*>(msg->body.get());
    if (aggregate == nullptr) return;
    PartialAggregate agg = aggregate->agg;
    agg.CombineFrom(inflation_);
    msg->body = sim::MakeHeapBody<AggregateBody>(std::move(agg));
    return;
  }
  uint32_t channel = msg->kind & sim::kLocalKindMask;
  uint32_t wire = msg->inline_bytes;
  if (protocol_ == ProtocolKind::kGossip && channel >= kReplyChannelFloor) {
    GossipPushPayload push = msg->LoadInline<GossipPushPayload>();
    if (IsExtremumCombiner(combiner_)) {
      push.scalar = ExtremeFor(combiner_);
    } else {
      // Push-sum mass forgery: claim 16x the numerator mass while keeping
      // the weight — conservation is violated and the estimate inflates.
      push.value *= 16.0;
    }
    msg->StoreInline(push, wire);
    return;
  }
  if (protocol_ == ProtocolKind::kSpanningTree &&
      channel >= kReplyChannelFloor) {
    TreeReportPayload report = msg->LoadInline<TreeReportPayload>();
    report.partial.count += phantoms_;
    report.partial.sum += phantoms_ * kPhantomValue;
    report.partial.min = std::min(report.partial.min, -kScalarExtreme);
    report.partial.max = std::max(report.partial.max, kScalarExtreme);
    msg->StoreInline(report, wire);
    return;
  }
  if (IsExtremumCombiner(combiner_)) {
    // Shared inline scalar formats (protocol.h): the 8-byte reply scalar
    // and the 12-byte broadcast hop+scalar piggyback.
    if (channel >= kReplyChannelFloor &&
        wire == sizeof(ScalarAggregatePayload)) {
      ScalarAggregatePayload scalar = msg->LoadInline<ScalarAggregatePayload>();
      scalar.scalar = ExtremeFor(combiner_);
      msg->StoreInline(scalar, wire);
    } else if (channel < kReplyChannelFloor &&
               wire == sizeof(int32_t) + sizeof(double)) {
      HopScalarPayload hop_scalar = msg->LoadInline<HopScalarPayload>();
      hop_scalar.scalar = ExtremeFor(combiner_);
      msg->StoreInline(hop_scalar, wire);
    }
  }
  // Anything else (bare hop counters, registration signals) carries no
  // aggregate to inflate; pass through.
}

void StandardByzantineMutator::StaleReplay(HostId src, sim::Message* msg) {
  uint64_t key = (static_cast<uint64_t>(msg->kind) << 32) | src;
  auto [it, inserted] = stale_cache_.try_emplace(key);
  CachedPayload& cached = it->second;
  if (inserted) {
    // First payload this host sends on this kind: remember it verbatim and
    // let it through — later messages replay it.
    cached.inline_bytes = msg->inline_bytes;
    std::memcpy(cached.inline_data, msg->inline_data,
                sim::kInlinePayloadBytes);
    cached.body = msg->body;
    return;
  }
  msg->inline_bytes = cached.inline_bytes;
  std::memcpy(msg->inline_data, cached.inline_data, sim::kInlinePayloadBytes);
  msg->body = cached.body;
}

}  // namespace validity::protocols
