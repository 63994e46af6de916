#ifndef XSSD_SIM_HISTOGRAM_H_
#define XSSD_SIM_HISTOGRAM_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace xssd::sim {

/// \brief Fixed-memory log2-bucket histogram with linear sub-buckets.
///
/// Values are bucketed at integer granularity: v < 32 is recorded exactly
/// (unit-width buckets), and each octave [2^o, 2^(o+1)) above that is split
/// into 16 linear sub-buckets. A reconstructed percentile therefore lies
/// within half a sub-bucket of the true sample, a relative error of at most
/// 1/(2*16) ~= 3.2% (and 0 below 32). Memory is a constant ~8 KiB
/// regardless of sample count, which suits per-window latency views and
/// the breakdown's per-stage aggregates.
class Log2Histogram {
 public:
  /// Unit-width buckets cover [0, kLinearMax); 16 sub-buckets per octave
  /// beyond. Index space for 64-bit values: 32 + 59 * 16.
  static constexpr uint32_t kLinearMax = 32;
  static constexpr uint32_t kSubBuckets = 16;
  static constexpr uint32_t kBucketCount = kLinearMax + 59 * kSubBuckets;

  void Add(double value) {
    uint64_t v = value <= 0 ? 0 : static_cast<uint64_t>(value);
    ++buckets_[IndexFor(v)];
    ++count_;
  }

  uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Interpolated percentile, p in [0, 100]. Within a bucket the rank is
  /// interpolated linearly between the bucket bounds.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    double rank = p / 100.0 * static_cast<double>(count_ - 1);
    uint64_t below = 0;
    for (uint32_t i = 0; i < kBucketCount; ++i) {
      if (buckets_[i] == 0) continue;
      double in_bucket = static_cast<double>(buckets_[i]);
      if (rank < static_cast<double>(below) + in_bucket) {
        double frac = (rank - static_cast<double>(below)) / in_bucket;
        double lo = static_cast<double>(LowerBound(i));
        double hi = static_cast<double>(UpperBound(i));
        return lo + frac * (hi - lo);
      }
      below += buckets_[i];
    }
    return static_cast<double>(UpperBound(kBucketCount - 1));
  }

  /// One populated bucket: samples counted in [lo, hi).
  struct Bucket {
    uint64_t lo;
    uint64_t hi;
    uint64_t count;
  };
  std::vector<Bucket> NonEmptyBuckets() const {
    std::vector<Bucket> out;
    for (uint32_t i = 0; i < kBucketCount; ++i) {
      if (buckets_[i] != 0) {
        out.push_back(Bucket{LowerBound(i), UpperBound(i), buckets_[i]});
      }
    }
    return out;
  }

  void Clear() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
  }

  static uint32_t IndexFor(uint64_t v) {
    if (v < kLinearMax) return static_cast<uint32_t>(v);
    uint32_t octave = 63 - static_cast<uint32_t>(__builtin_clzll(v));
    uint32_t sub =
        static_cast<uint32_t>((v >> (octave - 4)) & (kSubBuckets - 1));
    return kLinearMax + (octave - 5) * kSubBuckets + sub;
  }

  static uint64_t LowerBound(uint32_t index) {
    if (index < kLinearMax) return index;
    uint32_t octave = 5 + (index - kLinearMax) / kSubBuckets;
    uint32_t sub = (index - kLinearMax) % kSubBuckets;
    return (1ull << octave) + (static_cast<uint64_t>(sub) << (octave - 4));
  }

  static uint64_t UpperBound(uint32_t index) {
    if (index < kLinearMax) return index + 1;
    uint32_t octave = 5 + (index - kLinearMax) / kSubBuckets;
    return LowerBound(index) + (1ull << (octave - 4));
  }

 private:
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBucketCount, 0);
  uint64_t count_ = 0;
};

}  // namespace xssd::sim

#endif  // XSSD_SIM_HISTOGRAM_H_
