// Query and run configuration for the engine: everything needed to execute
// one aggregate query over one dynamic network, reproducibly.

#ifndef VALIDITY_CORE_QUERY_H_
#define VALIDITY_CORE_QUERY_H_

#include <cstdint>

#include "common/aggregate.h"
#include "common/types.h"
#include "protocols/factory.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace validity::core {

/// What to compute and how precisely.
struct QuerySpec {
  AggregateKind aggregate = AggregateKind::kCount;
  /// FM repetitions c for count/sum/avg sketches (Fig. 6 studies accuracy
  /// vs c; around 8-16 suffices).
  uint32_t fm_vectors = 16;
  /// Use exact id-union combiners instead of FM sketches (O(|H|)-sized
  /// messages; testing/diagnostics only).
  bool exact_combiners = false;
  /// Overestimate of the stable diameter, in hops. 0 = derive from the
  /// topology (estimated diameter + kDefaultDiameterMargin).
  double d_hat = 0.0;
};

/// How to run it.
struct RunConfig {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::kWildfire;
  protocols::ProtocolOptions protocol_options;
  /// Simulator knobs (medium, delta, heartbeat). failure_detection is
  /// forced on for the tree/DAG baselines, which need child liveness.
  sim::SimOptions sim_options;
  /// Hosts removed at a uniform rate during the query interval (paper §6.2;
  /// R in Figs. 7-9). The querying host is never removed.
  uint32_t churn_removals = 0;
  /// Churn window as fractions of the horizon 2 * d_hat * delta.
  double churn_start_frac = 0.0;
  double churn_end_frac = 1.0;
  /// Seeds: same seeds => bit-identical run.
  uint64_t churn_seed = 1;
  uint64_t sketch_seed = 2;
  /// Deterministic fault plane (sim/fault.h): lossy links and byzantine
  /// hosts. Default-constructed = disabled (the allocation-free hot path).
  /// Like the churn fields, concurrent queries on one session must agree
  /// on it — the faults are part of the shared network timeline.
  sim::FaultSpec fault;
  /// Compute the ORACLE validity interval and the exact full aggregate
  /// after the run. Both are O(network) ground-truth passes; million-host
  /// scenarios that only touch a small disc of the graph turn this off so
  /// query cost stays proportional to the touched fraction.
  bool compute_validity = true;
};

/// D-hat safety margin added to the estimated diameter when QuerySpec.d_hat
/// is 0. The deadline ladder of the tree/DAG baselines needs
/// d_hat >= depth_max + 1 (see level_convergecast.h); +2 also covers the
/// double-sweep estimate being off by one.
inline constexpr double kDefaultDiameterMargin = 2.0;

}  // namespace validity::core

#endif  // VALIDITY_CORE_QUERY_H_
