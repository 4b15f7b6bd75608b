// Protocol construction by kind, used by the QueryEngine and benches.

#ifndef VALIDITY_PROTOCOLS_FACTORY_H_
#define VALIDITY_PROTOCOLS_FACTORY_H_

#include <memory>

#include "protocols/flood_report.h"
#include "protocols/gossip.h"
#include "protocols/level_convergecast.h"
#include "protocols/protocol.h"
#include "protocols/wildfire.h"

namespace validity::protocols {

enum class ProtocolKind : uint8_t {
  kAllReport,
  kRandomizedReport,
  kSpanningTree,
  kDag,
  kWildfire,
  kGossip,
};

const char* ProtocolKindName(ProtocolKind kind);

/// Per-protocol tuning knobs, bundled so callers can sweep them uniformly.
struct ProtocolOptions {
  WildfireOptions wildfire;
  SpanningTreeOptions spanning_tree;
  DagOptions dag;
  AllReportOptions all_report;
  RandomizedReportOptions randomized;
  GossipOptions gossip;
};

/// Builds the protocol for `kind` on `sim` — or, given `reuse` (an instance
/// an earlier query of the same kind left on the same simulator), re-arms
/// that one instead: the context and this kind's option bundle are
/// rebound, the instance id is refreshed, and the next Start() behaves
/// exactly like a freshly constructed protocol's while warm storage (state
/// page directories, body pools) carries over.
std::unique_ptr<ProtocolBase> MakeProtocol(
    ProtocolKind kind, sim::Simulator* sim, QueryContext ctx,
    const ProtocolOptions& options,
    std::unique_ptr<ProtocolBase> reuse = nullptr);

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_FACTORY_H_
