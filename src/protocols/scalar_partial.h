// Conventional (duplicate-sensitive) partial aggregate: SPANNINGTREE adds
// each host's contribution exactly once along its unique tree path, and
// ALLREPORT / RANDOMIZEDREPORT once per report, so plain +/min/max suffice.
// One fixed-size record answers all five query kinds.

#ifndef VALIDITY_PROTOCOLS_SCALAR_PARTIAL_H_
#define VALIDITY_PROTOCOLS_SCALAR_PARTIAL_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/aggregate.h"

namespace validity::protocols {

struct ScalarPartial {
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t count = 0;

  /// Folds in one host's attribute value.
  void AddHost(double value) {
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
    ++count;
  }

  /// Duplicate-sensitive merge of two disjoint sub-aggregates.
  void Merge(const ScalarPartial& other) {
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
  }

  double Extract(AggregateKind kind) const {
    switch (kind) {
      case AggregateKind::kMin:
        return min;
      case AggregateKind::kMax:
        return max;
      case AggregateKind::kCount:
        return static_cast<double>(count);
      case AggregateKind::kSum:
        return sum;
      case AggregateKind::kAverage:
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
    return 0.0;
  }

  /// Fixed wire footprint (3 doubles + 1 count).
  static constexpr size_t kWireBytes = 32;
};

}  // namespace validity::protocols

#endif  // VALIDITY_PROTOCOLS_SCALAR_PARTIAL_H_
