#ifndef XSSD_FTL_MAPPING_H_
#define XSSD_FTL_MAPPING_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "common/zeroed_table.h"
#include "flash/geometry.h"

namespace xssd::ftl {

inline constexpr uint64_t kUnmapped = ~0ull;

/// \brief Page-level logical→physical mapping with reverse map, per-block
/// valid-page counts (the GC victim-selection signal), and a per-lpn write
/// sequence that makes concurrent program completions race-free: a stale
/// program (an older version whose NAND completion lost the race, or a GC
/// copy of data the host re-wrote mid-relocation) is rejected at map time
/// and its physical page is garbage on arrival.
///
/// The per-lpn and per-page tables start all zero and take memory only
/// where written (ZeroedTable), so l2p and p2l store ppn + 1 and lpn + 1:
/// a zero entry is unmapped, and `entry - 1` wraps it to kUnmapped.
class PageMap {
 public:
  PageMap(const flash::Geometry& geometry, uint64_t lpn_count);

  uint64_t lpn_count() const { return l2p_.size(); }

  const flash::Geometry& geometry() const { return geometry_; }

  /// Physical page currently backing `lpn`, or kUnmapped.
  uint64_t Lookup(uint64_t lpn) const { return l2p_[lpn] - 1; }

  /// Point `lpn` at physical page `ppn` carrying logical version `seq`
  /// and physical program stamp `stamp`. Applies under the same
  /// (seq, stamp) lexicographic order RebuildFromOob uses to pick a
  /// winner — program completions may arrive out of write order
  /// (different dies finish at different times) and an older version, or
  /// an older physical attempt of the same version, must never shadow a
  /// newer one. Keeping the live order identical to the recovery order is
  /// what makes the two provably agree at any quiesced point. Returns
  /// whether the mapping was applied; when it was not, `ppn` stays
  /// invalid (garbage for the next GC pass).
  bool Map(uint64_t lpn, uint64_t ppn, uint64_t seq, uint64_t stamp = 0);

  /// GC/scrub relocation: move `lpn`'s mapping from `src_ppn` to
  /// `dst_ppn` without changing its logical version. Applies while the
  /// live mapping still points at `src_ppn`, or — when the source was
  /// superseded mid-flight by another physical copy of the *same* logical
  /// version — when (seq, stamp) outranks the current mapping, mirroring
  /// the recovery order. A host re-write to a newer version, or a TRIM,
  /// makes the copy dead on arrival and false is returned.
  bool MapRelocated(uint64_t lpn, uint64_t src_ppn, uint64_t dst_ppn,
                    uint64_t seq = 0, uint64_t stamp = 0);

  /// Drop the mapping for `lpn` (TRIM). The lpn's seq floor is kept so a
  /// later rewrite still outranks stale flash copies.
  void Unmap(uint64_t lpn);

  /// Logical page stored at physical page `ppn`, or kUnmapped if invalid.
  uint64_t ReverseLookup(uint64_t ppn) const { return p2l_[ppn] - 1; }

  /// Logical version currently mapped (or last mapped) for `lpn`.
  uint64_t SeqOf(uint64_t lpn) const { return seq_[lpn]; }

  /// Physical program stamp of the copy currently mapped for `lpn`.
  uint64_t StampOf(uint64_t lpn) const { return stamp_[lpn]; }

  /// Valid (still-mapped) pages in physical block `block_index`.
  uint32_t ValidCount(uint64_t block_index) const {
    return valid_count_[block_index];
  }

  /// All reverse entries of a block are cleared when it is erased.
  void OnBlockErased(uint64_t block_index);

  uint64_t mapped_pages() const { return mapped_; }

  /// Full-state equality: l2p, p2l, valid counts, per-lpn seqs and the
  /// mapped total. This is the oracle `RebuildFromOob` is diffed against —
  /// "byte-identical" recovery means operator== holds.
  friend bool operator==(const PageMap& a, const PageMap& b) {
    return a.l2p_ == b.l2p_ && a.p2l_ == b.p2l_ &&
           a.valid_count_ == b.valid_count_ && a.seq_ == b.seq_ &&
           a.mapped_ == b.mapped_;
  }

 private:
  flash::Geometry geometry_;
  ZeroedTable<uint64_t> l2p_;  // ppn + 1, 0 == unmapped
  ZeroedTable<uint64_t> p2l_;  // lpn + 1, 0 == invalid
  std::vector<uint32_t> valid_count_;
  ZeroedTable<uint64_t> seq_;
  ZeroedTable<uint64_t> stamp_;
  uint64_t mapped_ = 0;
};

/// \brief Erased-block pool and per-stream, per-die write points.
///
/// Streams keep classes of data (conventional, destage, GC relocation) in
/// separate blocks — the multi-stream idiom [35] — so destage-ring data is
/// never interleaved with conventional data in one block. Each stream keeps
/// one active block per die and hands pages out round-robin across dies for
/// channel parallelism; within a block, pages are allocated strictly in
/// order (the NAND program-order rule).
class BlockAllocator {
 public:
  enum Stream : int {
    kConventionalStream = 0,
    kDestageStream = 1,
    kGcStream = 2,
    kStreamCount = 3,
  };

  explicit BlockAllocator(const flash::Geometry& geometry);

  /// Next page to program for `stream`; advances the write point. Returns
  /// kResourceExhausted when no erased block is available (caller must GC).
  Result<flash::Address> AllocatePage(Stream stream);

  /// Erased blocks held back for the GC stream: non-GC streams cannot open
  /// a fresh block while free_blocks() is at or below the reserve. Without
  /// it host streams can drain the last erased blocks and deadlock GC —
  /// the relocation program waits for a free page, which waits for the
  /// victim erase, which waits for the relocation.
  void set_gc_reserve(uint64_t blocks) { gc_reserve_ = blocks; }

  /// Return an erased block to the pool.
  void Release(uint64_t block_index);

  /// Permanently retire a block (grown bad). If it was a stream's active
  /// write point, the point is reset.
  void MarkBad(uint64_t block_index);

  /// Blocks that are fully programmed and not an active write point —
  /// the GC victim candidates, oldest first.
  const std::deque<uint64_t>& sealed_blocks() const { return sealed_; }
  /// Remove a block from the sealed list (it is being collected).
  void Unseal(uint64_t block_index);

  uint64_t free_blocks() const { return free_count_; }
  uint64_t bad_blocks() const { return bad_count_; }
  uint32_t dies() const { return static_cast<uint32_t>(free_per_die_.size()); }

 private:
  struct WritePoint {
    uint64_t block_index = kUnmapped;
    uint32_t next_page = 0;
  };

  uint32_t DieOfBlock(uint64_t block_index) const;

  flash::Geometry geometry_;
  std::vector<std::deque<uint64_t>> free_per_die_;
  std::deque<uint64_t> sealed_;
  // points_[stream][die]
  std::vector<std::vector<WritePoint>> points_;
  std::vector<uint32_t> cursor_;  // per-stream round-robin die cursor
  uint64_t free_count_ = 0;
  uint64_t bad_count_ = 0;
  uint64_t gc_reserve_ = 0;
};

}  // namespace xssd::ftl

#endif  // XSSD_FTL_MAPPING_H_
