#include "protocols/factory.h"

namespace validity::protocols {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kAllReport:
      return "all-report";
    case ProtocolKind::kRandomizedReport:
      return "randomized-report";
    case ProtocolKind::kSpanningTree:
      return "spanning-tree";
    case ProtocolKind::kDag:
      return "dag";
    case ProtocolKind::kWildfire:
      return "wildfire";
    case ProtocolKind::kGossip:
      return "gossip";
  }
  return "?";
}

namespace {

template <typename Protocol, typename Options>
std::unique_ptr<ProtocolBase> MakeOrRearm(std::unique_ptr<ProtocolBase> reuse,
                                          sim::Simulator* sim,
                                          QueryContext ctx,
                                          const Options& options) {
  if (reuse == nullptr) {
    return std::make_unique<Protocol>(sim, std::move(ctx), options);
  }
  static_cast<Protocol*>(reuse.get())->ResetForQuery(std::move(ctx), options);
  return reuse;
}

}  // namespace

std::unique_ptr<ProtocolBase> MakeProtocol(
    ProtocolKind kind, sim::Simulator* sim, QueryContext ctx,
    const ProtocolOptions& options, std::unique_ptr<ProtocolBase> reuse) {
  switch (kind) {
    case ProtocolKind::kAllReport:
      return MakeOrRearm<AllReportProtocol>(std::move(reuse), sim,
                                            std::move(ctx), options.all_report);
    case ProtocolKind::kRandomizedReport:
      return MakeOrRearm<RandomizedReportProtocol>(
          std::move(reuse), sim, std::move(ctx), options.randomized);
    case ProtocolKind::kSpanningTree:
      return MakeOrRearm<SpanningTreeProtocol>(
          std::move(reuse), sim, std::move(ctx), options.spanning_tree);
    case ProtocolKind::kDag:
      return MakeOrRearm<DagProtocol>(std::move(reuse), sim, std::move(ctx),
                                      options.dag);
    case ProtocolKind::kWildfire:
      return MakeOrRearm<WildfireProtocol>(std::move(reuse), sim,
                                           std::move(ctx), options.wildfire);
    case ProtocolKind::kGossip:
      return MakeOrRearm<GossipProtocol>(std::move(reuse), sim, std::move(ctx),
                                         options.gossip);
  }
  VALIDITY_CHECK(false, "unknown protocol kind");
  return nullptr;
}

}  // namespace validity::protocols
