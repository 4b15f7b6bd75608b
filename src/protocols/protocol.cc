#include "protocols/protocol.h"

#include <atomic>

namespace validity::protocols {

namespace {
// Instance ids are process-global so that two simulators in one test cannot
// alias. Atomic because the parallel sweep driver constructs protocols from
// concurrent QueryEngine::Run calls; the id's value never influences
// results (it only tags timers/messages within the protocol's own
// simulator), so relaxed ordering suffices.
std::atomic<uint32_t> g_next_instance_id{1};

// A message kind is 32 bits with kInstanceTagShift reserved for the local
// kind, so an id must fit in 24 bits or MakeKind would silently truncate it
// (every message dropped while the 64-bit timer path still matches — a
// query that "succeeds" with only hq's value). Session reuse burns one id
// per query, so long-lived processes can exhaust 2^24; wrap instead of
// truncating. Wrapping cannot alias: ids only need to differ across
// *coexisting* instances and recent in-flight traffic, and a session reset
// drains the queue long before 16M intervening queries.
constexpr uint32_t kInstanceIdLimit =
    (1u << (32 - sim::kInstanceTagShift)) - 1;

uint32_t NextInstanceId() {
  uint32_t raw = g_next_instance_id.fetch_add(1, std::memory_order_relaxed);
  return 1 + (raw - 1) % kInstanceIdLimit;
}

void CheckContext(const sim::Simulator& sim, const QueryContext& ctx) {
  VALIDITY_CHECK(ctx.values != nullptr, "QueryContext.values is required");
  VALIDITY_CHECK(ctx.values->size() >= sim.num_hosts(),
                 "values must cover all %u hosts", sim.num_hosts());
  VALIDITY_CHECK(ctx.d_hat >= 1.0, "d_hat must be >= 1 hop");
  VALIDITY_CHECK(ctx.fm.Validate().ok(), "bad FM params");
}
}  // namespace

ProtocolBase::ProtocolBase(sim::Simulator* sim, QueryContext ctx)
    : sim_(sim), ctx_(std::move(ctx)), instance_id_(NextInstanceId()) {
  VALIDITY_CHECK(sim_ != nullptr);
  CheckContext(*sim_, ctx_);
}

void ProtocolBase::ResetForQuery(QueryContext ctx) {
  CheckContext(*sim_, ctx);
  ctx_ = std::move(ctx);
  hq_ = kInvalidHost;
  start_time_ = 0;
  result_ = ProtocolRunResult();
  instance_id_ = NextInstanceId();
  OnReset();
}

}  // namespace validity::protocols
