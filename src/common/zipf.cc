#include "common/zipf.h"

#include <algorithm>
#include <cmath>

namespace validity {

StatusOr<ZipfGenerator> ZipfGenerator::Make(int64_t low, int64_t high,
                                            double theta) {
  if (low > high) {
    return Status::InvalidArgument("zipf range is empty (low > high)");
  }
  if (theta < 0.0 || !std::isfinite(theta)) {
    return Status::InvalidArgument("zipf exponent must be finite and >= 0");
  }
  if (static_cast<uint64_t>(high) - static_cast<uint64_t>(low) >=
      uint64_t{1} << 30) {
    return Status::InvalidArgument("zipf range wider than 2^30 values");
  }
  size_t n = static_cast<size_t>(high - low + 1);
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  cdf.back() = 1.0;  // defend against rounding at the top end
  const size_t g_size = 4 * n;
  std::vector<uint32_t> guide(g_size + 1);
  uint32_t i = 0;
  for (size_t g = 0; g <= g_size; ++g) {
    const double u = static_cast<double>(g) / static_cast<double>(g_size);
    while (i + 1 < n && cdf[i] <= u) ++i;
    guide[g] = i;
  }
  return ZipfGenerator(low, high, theta, std::move(cdf), std::move(guide));
}

ZipfGenerator::ZipfGenerator(int64_t low, int64_t high, double theta,
                             std::vector<double> cdf,
                             std::vector<uint32_t> guide)
    : low_(low),
      high_(high),
      theta_(theta),
      cdf_(std::move(cdf)),
      guide_(std::move(guide)) {}

int64_t ZipfGenerator::ValueAt(double u) const {
  // The guide entry is a starting point; the two scans make the answer
  // exact even where u * G rounds across a guide boundary.
  const size_t g_size = guide_.size() - 1;
  size_t i = guide_[std::min(g_size, static_cast<size_t>(
                                         u * static_cast<double>(g_size)))];
  while (i > 0 && cdf_[i - 1] > u) --i;
  while (i + 1 < cdf_.size() && cdf_[i] <= u) ++i;
  return low_ + static_cast<int64_t>(i);
}

std::vector<int64_t> ZipfGenerator::SampleMany(Rng* rng, size_t n) const {
  std::vector<int64_t> out(n);
  for (auto& v : out) v = Sample(rng);
  return out;
}

double ZipfGenerator::Mean() const {
  double mean = 0.0;
  double prev = 0.0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    double p = cdf_[i] - prev;
    prev = cdf_[i];
    mean += p * static_cast<double>(low_ + static_cast<int64_t>(i));
  }
  return mean;
}

}  // namespace validity
