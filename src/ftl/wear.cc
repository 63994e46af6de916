#include "ftl/wear.h"

#include <algorithm>
#include <limits>

namespace xssd::ftl {

void WearTracker::Rescan() {
  min_ = std::numeric_limits<uint32_t>::max();
  max_ = 0;
  at_min_ = 0;
  for (uint64_t b = 0; b < counts_.size(); ++b) {
    if (retired_[b]) continue;
    if (counts_[b] < min_) {
      min_ = counts_[b];
      at_min_ = 0;
    }
    if (counts_[b] == min_) ++at_min_;
    max_ = std::max(max_, counts_[b]);
  }
  if (at_min_ == 0) min_ = 0;  // everything retired
}

uint64_t SelectGcVictim(const std::deque<uint64_t>& sealed,
                        const PageMap& map, const WearTracker& wear,
                        const GcTuning& tuning,
                        const std::vector<uint32_t>* inflight) {
  auto skip = [inflight](uint64_t b) {
    return inflight != nullptr && (*inflight)[b] != 0;
  };
  const uint32_t min_erase = wear.MinCount();

  if (tuning.max_erase_spread > 0 &&
      wear.Spread() >= tuning.max_erase_spread) {
    // Cold-data migration: the least-worn sealed block holds the data that
    // never gets invalidated; freeing it is the only way min_erase rises.
    uint64_t victim = kUnmapped;
    uint32_t best_erase = 0;
    uint32_t best_valid = 0;
    for (uint64_t candidate : sealed) {
      if (skip(candidate)) continue;
      uint32_t erase = wear.count(candidate);
      uint32_t valid = map.ValidCount(candidate);
      if (victim == kUnmapped || erase < best_erase ||
          (erase == best_erase && valid < best_valid)) {
        victim = candidate;
        best_erase = erase;
        best_valid = valid;
      }
    }
    return victim;
  }

  uint64_t victim = kUnmapped;
  double best_score = 0;
  // The wear penalty is capped just below one full block of relocation
  // cost: however worn a block is, a block holding ANY garbage must still
  // outrank a garbage-free one. Uncapped, a few dozen erases of skew make
  // the wear term swamp the valid count entirely and greedy GC starts
  // relocating fully-valid cold blocks — write amplification explodes.
  const double penalty_cap =
      static_cast<double>(map.geometry().pages_per_block) - 1.0;
  for (uint64_t candidate : sealed) {
    if (skip(candidate)) continue;
    double penalty =
        tuning.wear_alpha *
        static_cast<double>(wear.count(candidate) - min_erase);
    double score = static_cast<double>(map.ValidCount(candidate)) +
                   std::min(penalty, penalty_cap);
    if (victim == kUnmapped || score < best_score) {
      victim = candidate;
      best_score = score;
      if (best_score == 0) break;  // free victim, can't do better
    }
  }
  return victim;
}

}  // namespace xssd::ftl
