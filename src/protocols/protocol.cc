// ProtocolBase draws its instance id from the simulator it runs on
// (Simulator::NextInstanceId): ids differ among that simulator's instances.

#include "protocols/protocol.h"

namespace validity::protocols {

namespace {

void CheckContext(const sim::Simulator& sim, const QueryContext& ctx) {
  VALIDITY_CHECK(ctx.values != nullptr, "QueryContext.values is required");
  VALIDITY_CHECK(ctx.values->size() >= sim.num_hosts(),
                 "values must cover all %u hosts", sim.num_hosts());
  VALIDITY_CHECK(ctx.d_hat >= 1.0, "d_hat must be >= 1 hop");
  VALIDITY_CHECK(ctx.fm.Validate().ok(), "bad FM params");
}

}  // namespace

ProtocolBase::ProtocolBase(sim::Simulator* sim, QueryContext ctx)
    : sim_(sim), ctx_(std::move(ctx)) {
  VALIDITY_CHECK(sim_ != nullptr);
  CheckContext(*sim_, ctx_);
  instance_id_ = sim_->NextInstanceId();
}

void ProtocolBase::ResetForQuery(QueryContext ctx) {
  CheckContext(*sim_, ctx);
  ctx_ = std::move(ctx);
  hq_ = kInvalidHost;
  start_time_ = 0;
  result_ = ProtocolRunResult();
  instance_id_ = sim_->NextInstanceId();
  OnReset();
}

}  // namespace validity::protocols
