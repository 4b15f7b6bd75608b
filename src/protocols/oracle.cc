#include "protocols/oracle.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace validity::protocols {

bool OracleReport::ContainsWithin(double v, double factor) const {
  VALIDITY_DCHECK(factor >= 1.0);
  return q_low <= v * factor && v / factor <= q_high;
}

AvgBounds ExtremeAverages(const std::vector<double>& mandatory,
                          std::vector<double> optional_values) {
  AvgBounds bounds;
  std::sort(optional_values.begin(), optional_values.end());
  if (mandatory.empty() && optional_values.empty()) return bounds;

  double base_sum = 0.0;
  for (double v : mandatory) base_sum += v;
  double base_n = static_cast<double>(mandatory.size());

  // A value moves the running mean toward itself, so the extreme mean is
  // reached by admitting optional values from the helpful end while each
  // still improves the mean. With an empty mandatory set a valid H is any
  // non-empty subset, seeded from the extreme optional value.
  auto extreme = [&](bool maximize) {
    double sum = base_sum;
    double n = base_n;
    size_t lo = 0;
    size_t hi = optional_values.size();  // candidates in [lo, hi)
    if (n == 0.0) {
      size_t seed = maximize ? --hi : lo++;
      sum = optional_values[seed];
      n = 1.0;
    }
    while (lo < hi) {
      double candidate = maximize ? optional_values[hi - 1] : optional_values[lo];
      bool improves = maximize ? candidate > sum / n : candidate < sum / n;
      if (!improves) break;
      sum += candidate;
      n += 1.0;
      if (maximize) {
        --hi;
      } else {
        ++lo;
      }
    }
    return sum / n;
  };
  bounds.high = extreme(/*maximize=*/true);
  bounds.low = extreme(/*maximize=*/false);
  return bounds;
}

OracleReport ComputeOracle(const sim::Simulator& sim, HostId hq,
                           SimTime t_begin, SimTime t_end, AggregateKind kind,
                           const std::vector<double>& values) {
  VALIDITY_CHECK(values.size() >= sim.num_hosts(),
                 "values must cover all hosts");
  VALIDITY_CHECK(sim.AliveThroughout(hq, t_begin, t_end),
                 "oracle requires hq alive throughout the query interval");
  OracleReport report;

  // HU: alive at some instant of the interval.
  report.hu.reserve(sim.num_hosts());
  for (HostId h = 0; h < sim.num_hosts(); ++h) {
    if (sim.AliveSometimeIn(h, t_begin, t_end)) report.hu.push_back(h);
  }

  // HC: BFS from hq through hosts alive throughout the interval, with
  // report.hc itself as the queue; then rebuilt in id order from the marks,
  // which also serve as the SUM/AVERAGE membership test below.
  std::vector<uint8_t> in_hc(sim.num_hosts(), 0);
  in_hc[hq] = 1;
  report.hc.push_back(hq);
  for (size_t next = 0; next < report.hc.size(); ++next) {
    for (HostId v : sim.NeighborsOf(report.hc[next])) {
      if (!in_hc[v] && sim.AliveThroughout(v, t_begin, t_end)) {
        in_hc[v] = 1;
        report.hc.push_back(v);
      }
    }
  }
  report.hc.clear();
  for (HostId h = 0; h < sim.num_hosts(); ++h) {
    if (in_hc[h]) report.hc.push_back(h);
  }

  // Numeric interval by aggregate kind.
  switch (kind) {
    case AggregateKind::kCount:
      report.q_low = static_cast<double>(report.hc.size());
      report.q_high = static_cast<double>(report.hu.size());
      break;
    case AggregateKind::kSum: {
      // General values: optional negatives can lower the sum, positives
      // raise it (the paper's workload is positive, but the oracle is not
      // restricted to it).
      double lo = 0.0;
      double hi = 0.0;
      for (HostId h : report.hc) {
        lo += values[h];
        hi += values[h];
      }
      for (HostId h : report.hu) {
        if (in_hc[h]) continue;
        if (values[h] < 0.0) {
          lo += values[h];
        } else {
          hi += values[h];
        }
      }
      report.q_low = lo;
      report.q_high = hi;
      break;
    }
    case AggregateKind::kMin: {
      double over_hu = std::numeric_limits<double>::infinity();
      for (HostId h : report.hu) over_hu = std::min(over_hu, values[h]);
      double over_hc = std::numeric_limits<double>::infinity();
      for (HostId h : report.hc) over_hc = std::min(over_hc, values[h]);
      report.q_low = over_hu;   // largest H admits the global minimum
      report.q_high = over_hc;  // smallest H can only do as well as HC
      break;
    }
    case AggregateKind::kMax: {
      double over_hu = -std::numeric_limits<double>::infinity();
      for (HostId h : report.hu) over_hu = std::max(over_hu, values[h]);
      double over_hc = -std::numeric_limits<double>::infinity();
      for (HostId h : report.hc) over_hc = std::max(over_hc, values[h]);
      report.q_low = over_hc;
      report.q_high = over_hu;
      break;
    }
    case AggregateKind::kAverage: {
      std::vector<double> mandatory;
      mandatory.reserve(report.hc.size());
      for (HostId h : report.hc) mandatory.push_back(values[h]);
      std::vector<double> optional_values;
      for (HostId h : report.hu) {
        if (!in_hc[h]) optional_values.push_back(values[h]);
      }
      AvgBounds bounds = ExtremeAverages(mandatory, std::move(optional_values));
      report.q_low = bounds.low;
      report.q_high = bounds.high;
      break;
    }
  }
  return report;
}

}  // namespace validity::protocols
