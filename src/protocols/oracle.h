// ORACLE (paper §6.2): an omniscient observer of the dynamic network that
// computes the Single-Site Validity bounds.
//
//   HC = hosts with at least one stable path to hq over [t_begin, t_end]
//        (every host on the path alive throughout the interval);
//   HU = hosts alive at some instant of [t_begin, t_end].
//
// Because failures only ever remove hosts, the stable subgraph is the one
// induced by hosts alive throughout the interval, and HC is its
// hq-reachable component. The oracle then derives the numeric interval
// [q_low, q_high] that any Single-Site-Valid answer v = q(H),
// HC <= H <= HU, must fall in — including the non-monotone avg case, where
// the extremes are found greedily over the optional hosts HU \ HC.
//
// "Clearly, such an ORACLE is not feasible in practice" — it reads
// simulator ground truth and sends no messages.
//
// Cost note: the oracle is inherently O(network) — HU ranges over every
// host by definition, and the stable-subgraph BFS allocates a dense
// visited array. It is the one deliberately-dense pass left in
// the query path, gated by RunConfig::compute_validity so disc-bounded
// million-host runs never pay it (docs/ARCHITECTURE.md, memory model).

#ifndef VALIDITY_PROTOCOLS_ORACLE_H_
#define VALIDITY_PROTOCOLS_ORACLE_H_

#include <vector>

#include "common/aggregate.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace validity::protocols {

struct OracleReport {
  std::vector<HostId> hc;
  std::vector<HostId> hu;
  /// Numeric Single-Site Validity interval for the aggregate: every valid
  /// answer satisfies q_low <= v <= q_high.
  double q_low = 0.0;
  double q_high = 0.0;

  bool Contains(double v) const { return q_low <= v && v <= q_high; }
  /// Contains() with multiplicative slack for approximate (FM) answers:
  /// accepts v if v/factor..v*factor intersects the interval.
  bool ContainsWithin(double v, double factor) const;
};

/// Computes the oracle report for a query issued at `hq` over
/// [t_begin, t_end]. `values[h]` is host h's attribute value. `hq` must be
/// alive throughout the interval.
OracleReport ComputeOracle(const sim::Simulator& sim, HostId hq,
                           SimTime t_begin, SimTime t_end, AggregateKind kind,
                           const std::vector<double>& values);

/// The extreme averages over sets H with HC <= H <= HU (exposed for tests):
/// to maximize, optional values are admitted in descending order while they
/// exceed the running mean; to minimize, ascending while below it. With an
/// empty HC the extremes are taken over non-empty subsets of HU.
struct AvgBounds {
  double low = 0.0;
  double high = 0.0;
};
AvgBounds ExtremeAverages(const std::vector<double>& mandatory,
                          std::vector<double> optional_values);

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_ORACLE_H_
