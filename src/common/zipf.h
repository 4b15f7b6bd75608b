// Zipfian value generator for host attribute values.
//
// The paper's workload (§6.1): "Each host possesses an attribute value that
// is drawn from a Zipfian distribution in the range [10, 500]". Rank r
// (1-based, mapped onto the integer range low..high) is drawn with
// probability proportional to 1 / r^theta.

#ifndef VALIDITY_COMMON_ZIPF_H_
#define VALIDITY_COMMON_ZIPF_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace validity {

/// Samples integers in [low(), high()] with Zipfian rank probabilities.
/// Sampling is expected O(1): a guide table of G = 4 x (support size)
/// entries maps floor(u G) to the first CDF index that can hold u, and a
/// short scan finishes the search. The result is exactly the
/// std::upper_bound inversion of the CDF for every u. For the paper's
/// workload (491 values) both tables fit in L1.
class ZipfGenerator {
 public:
  /// Creates a generator over the inclusive integer range [low, high] with
  /// exponent `theta` >= 0 (theta == 0 degenerates to uniform).
  static StatusOr<ZipfGenerator> Make(int64_t low, int64_t high, double theta);

  /// Draws one value: ValueAt(rng->NextDouble()).
  int64_t Sample(Rng* rng) const { return ValueAt(rng->NextDouble()); }

  /// The value u in [0, 1) inverts to: low() + the first index whose CDF
  /// entry exceeds u, clamped to high().
  int64_t ValueAt(double u) const;

  /// Fills `n` values.
  std::vector<int64_t> SampleMany(Rng* rng, size_t n) const;

  int64_t low() const { return low_; }
  int64_t high() const { return high_; }
  double theta() const { return theta_; }
  /// cdf()[i] = P(value <= low() + i); the last entry is exactly 1.
  const std::vector<double>& cdf() const { return cdf_; }

  /// Expected value of the distribution (exact, from the probability table).
  double Mean() const;

 private:
  ZipfGenerator(int64_t low, int64_t high, double theta,
                std::vector<double> cdf, std::vector<uint32_t> guide);

  int64_t low_;
  int64_t high_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[i] = P(value <= low_ + i)
  // guide_[g] = the first index i with cdf_[i] > g / G (at most the last),
  // g = 0..G, G = guide_.size() - 1.
  std::vector<uint32_t> guide_;
};

}  // namespace validity

#endif  // VALIDITY_COMMON_ZIPF_H_
