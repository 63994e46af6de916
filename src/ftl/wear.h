#ifndef XSSD_FTL_WEAR_H_
#define XSSD_FTL_WEAR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "ftl/mapping.h"

namespace xssd::ftl {

/// \brief Per-block program/erase cycle accounting, the wear-leveling
/// signal for GC victim selection.
///
/// Tracks the FTL's own view of erase counts (mirroring the NAND's), plus
/// the min/max over live (non-retired) blocks; `spread()` is the headline
/// wear-imbalance number the victim selector bounds. The min and max are
/// kept current as blocks are erased and retired, so reading them is O(1);
/// only a rising floor (the last live block at the minimum was erased) or a
/// retirement rescans the blocks.
class WearTracker {
 public:
  explicit WearTracker(uint64_t block_count)
      : counts_(block_count, 0),
        retired_(block_count, false),
        at_min_(block_count) {}

  void OnErase(uint64_t block) {
    uint32_t c = ++counts_[block];
    if (retired_[block]) return;
    if (c > max_) max_ = c;
    if (c - 1 == min_ && --at_min_ == 0) Rescan();
  }

  /// Grown-bad block: excluded from min/max/spread from now on.
  void Retire(uint64_t block) {
    if (retired_[block]) return;
    retired_[block] = true;
    Rescan();
  }

  uint32_t count(uint64_t block) const { return counts_[block]; }
  bool retired(uint64_t block) const { return retired_[block]; }

  /// Min/max erase count over live blocks (0 when everything is retired).
  uint32_t MinCount() const { return min_; }
  uint32_t MaxCount() const { return max_; }
  uint32_t Spread() const { return max_ - min_; }

 private:
  /// Recompute min_, max_ and at_min_ over the live blocks.
  void Rescan();

  std::vector<uint32_t> counts_;
  std::vector<bool> retired_;
  uint32_t min_ = 0;
  uint32_t max_ = 0;
  uint64_t at_min_;  ///< live blocks whose count is min_
};

/// Knobs for wear-aware victim selection.
struct GcTuning {
  /// Blend weight: one erase above the pool minimum costs as much as this
  /// many extra valid pages to relocate. 0 degenerates to pure greedy.
  double wear_alpha = 2.0;
  /// Hard bound on erase-count spread: once Spread() reaches this, victim
  /// selection switches to cold-data migration (collect the least-worn
  /// sealed block so its block rejoins the hot pool) until the spread
  /// recedes.
  uint32_t max_erase_spread = 16;
};

/// \brief Pick a GC victim from `sealed` (oldest-first candidate list),
/// skipping every block whose entry in `inflight` (per-block programs in
/// flight, when given) is non-zero.
///
/// Normal mode minimizes `valid_count + wear_alpha * (erase - min_erase)` —
/// greedy on relocation cost, penalizing blocks that are already worn. The
/// penalty saturates just below one block of relocation cost
/// (pages_per_block - 1), so wear bias can steer among comparable victims
/// but never makes a garbage-holding block lose to a garbage-free one.
/// Wear-emergency mode (spread at/above the bound) instead picks the
/// least-worn sealed block regardless of valid count: its cold, never-
/// invalidated data is what pins the spread, and migrating it returns the
/// young block to the erased pool where hot writes level it. Ties break to
/// the earliest (oldest) sealed entry, keeping selection deterministic.
/// Returns kUnmapped when no block of `sealed` qualifies.
uint64_t SelectGcVictim(const std::deque<uint64_t>& sealed,
                        const PageMap& map, const WearTracker& wear,
                        const GcTuning& tuning,
                        const std::vector<uint32_t>* inflight = nullptr);

}  // namespace xssd::ftl

#endif  // XSSD_FTL_WEAR_H_
