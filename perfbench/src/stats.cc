#include "stats.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

size_t CountAbove(const std::vector<double>& samples, double threshold) {
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [threshold](double s) { return s > threshold; }));
}

double Sum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum;
}

std::vector<double> FastestAcross(const Rows& rows) {
  size_t items = 0;
  for (const auto& row : rows) items = std::max(items, row.size());
  std::vector<double> out(items, std::numeric_limits<double>::infinity());
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) out[i] = std::min(out[i], row[i]);
  }
  return out;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return Sum(samples) / static_cast<double>(samples.size());
}

void Digest::Add(uint64_t word) {
  // splitmix64 finalizer over (state ^ word): every bit of every word
  // reaches every bit of the state, and the order of words matters.
  uint64_t z = state_ ^ (word + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  state_ = z ^ (z >> 31);
}

void Digest::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

uint64_t Fold(const std::vector<uint64_t>& digests) {
  Digest d;
  for (uint64_t x : digests) d.Add(x);
  return d.value();
}

uint64_t QueryDigest(const validity::core::QueryResult& result, double q_low,
                     double q_high) {
  Digest d;
  d.AddDouble(result.value);
  d.Add(result.declared ? 1 : 0);
  d.Add(result.cost.messages);
  d.Add(result.cost.bytes);
  d.AddDouble(result.cost.declared_at);
  d.AddDouble(q_low);
  d.AddDouble(q_high);
  return d.value();
}

std::string Hex(uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

void Report::Fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

}  // namespace perfbench
