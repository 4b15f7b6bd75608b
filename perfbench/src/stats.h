// Order statistics, result digests and the metric report shared by the
// benchmark's workloads.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return SecondsBetween(from, to) * 1e3;
}

/// p-th percentile (0 <= p <= 100) by linear interpolation between closest
/// ranks: rank p/100 * (n - 1) of the sorted samples. 0 for no samples.
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}
/// Samples strictly greater than `threshold`: how many lie beyond a
/// percentile (a reported percentile needs at least 10 beyond it).
size_t CountAbove(const std::vector<double>& samples, double threshold);
double Sum(const std::vector<double>& samples);
/// Timings of repeated passes over the same items: rows[pass][item].
using Rows = std::vector<std::vector<double>>;
/// Each item's fastest (smallest) time over the passes. Rows may differ in
/// length; an item counts the passes that reached it.
std::vector<double> FastestAcross(const Rows& rows);
double Mean(const std::vector<double>& samples);

/// Order-sensitive 64-bit digest over words.
class Digest {
 public:
  void Add(uint64_t word);
  void AddDouble(double value);
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0x6a09e667f3bcc908ULL;
};

/// Folds per-query digests, in order, into one run digest.
uint64_t Fold(const std::vector<uint64_t>& digests);

/// Digest of one query's observable outcome: value, declared, messages,
/// bytes, declared_at and the validity bounds [q_low, q_high]. The bounds
/// are passed separately because the traced pass takes them from an
/// outside ComputeOracle call rather than from the result.
uint64_t QueryDigest(const validity::core::QueryResult& result, double q_low,
                     double q_high);

std::string Hex(uint64_t value);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run measured and checked.
struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t result_digest = 0;
  /// Why queries failed (first few), for the human-readable log.
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Fail(std::string why);
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
