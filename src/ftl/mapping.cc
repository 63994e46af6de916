#include "ftl/mapping.h"

#include <algorithm>

#include "common/logging.h"

namespace xssd::ftl {

PageMap::PageMap(const flash::Geometry& geometry, uint64_t lpn_count)
    : geometry_(geometry),
      l2p_(lpn_count),
      p2l_(geometry.pages()),
      valid_count_(geometry.blocks(), 0),
      seq_(lpn_count),
      stamp_(lpn_count) {}

bool PageMap::Map(uint64_t lpn, uint64_t ppn, uint64_t seq, uint64_t stamp) {
  XSSD_CHECK(lpn < l2p_.size());
  XSSD_CHECK(ppn < p2l_.size());
  // (seq, stamp) precedence — exactly the order RebuildFromOob resolves
  // duplicate copies with, so the live map can never disagree with a
  // recovery scan. Equal (seq, stamp) still applies, preserving the
  // stamp-less legacy behaviour (stamp 0).
  if (seq < seq_[lpn]) return false;  // stale version lost the program race
  if (seq == seq_[lpn] && stamp < stamp_[lpn]) return false;
  uint64_t old_ppn = Lookup(lpn);
  if (old_ppn != kUnmapped) {
    p2l_[old_ppn] = 0;
    --valid_count_[old_ppn / geometry_.pages_per_block];
    --mapped_;
  }
  l2p_[lpn] = ppn + 1;
  p2l_[ppn] = lpn + 1;
  seq_[lpn] = seq;
  stamp_[lpn] = stamp;
  ++valid_count_[ppn / geometry_.pages_per_block];
  ++mapped_;
  return true;
}

bool PageMap::MapRelocated(uint64_t lpn, uint64_t src_ppn, uint64_t dst_ppn,
                           uint64_t seq, uint64_t stamp) {
  XSSD_CHECK(lpn < l2p_.size());
  XSSD_CHECK(dst_ppn < p2l_.size());
  uint64_t old_ppn = Lookup(lpn);
  if (old_ppn == kUnmapped) return false;  // trimmed mid-relocation
  if (old_ppn != src_ppn) {
    // Source superseded mid-flight. When the supersession was another
    // physical copy of the *same* logical version (a duplicate writeback
    // that completed between this relocation's issue and its landing),
    // the relocated copy still outranks it under the recovery order —
    // apply it, or an OOB rebuild would pick this copy while the live map
    // points elsewhere. A newer version (or a stale stamp) keeps the copy
    // dead on arrival.
    if (seq < seq_[lpn] || (seq == seq_[lpn] && stamp <= stamp_[lpn])) {
      return false;
    }
  }
  p2l_[old_ppn] = 0;
  --valid_count_[old_ppn / geometry_.pages_per_block];
  l2p_[lpn] = dst_ppn + 1;
  p2l_[dst_ppn] = lpn + 1;
  stamp_[lpn] = std::max(stamp_[lpn], stamp);
  ++valid_count_[dst_ppn / geometry_.pages_per_block];
  return true;
}

void PageMap::Unmap(uint64_t lpn) {
  XSSD_CHECK(lpn < l2p_.size());
  uint64_t ppn = Lookup(lpn);
  if (ppn == kUnmapped) return;
  l2p_[lpn] = 0;
  p2l_[ppn] = 0;
  --valid_count_[ppn / geometry_.pages_per_block];
  --mapped_;
}

void PageMap::OnBlockErased(uint64_t block_index) {
  uint64_t first = block_index * geometry_.pages_per_block;
  for (uint64_t p = first; p < first + geometry_.pages_per_block; ++p) {
    uint64_t lpn = ReverseLookup(p);
    if (lpn != kUnmapped) {
      // Erasing a block with valid data would lose it; the GC must have
      // relocated everything first.
      XSSD_CHECK(Lookup(lpn) != p);
      p2l_[p] = 0;
    }
  }
  XSSD_CHECK(valid_count_[block_index] == 0);
}

BlockAllocator::BlockAllocator(const flash::Geometry& geometry)
    : geometry_(geometry),
      free_per_die_(geometry.dies()),
      points_(kStreamCount,
              std::vector<WritePoint>(geometry.dies())),
      cursor_(kStreamCount, 0) {
  // Initially every block is erased and free, distributed per die.
  for (uint64_t b = 0; b < geometry_.blocks(); ++b) {
    free_per_die_[DieOfBlock(b)].push_back(b);
    ++free_count_;
  }
}

uint32_t BlockAllocator::DieOfBlock(uint64_t block_index) const {
  uint64_t blocks_per_die =
      static_cast<uint64_t>(geometry_.planes_per_die) *
      geometry_.blocks_per_plane;
  return static_cast<uint32_t>(block_index / blocks_per_die);
}

Result<flash::Address> BlockAllocator::AllocatePage(Stream stream) {
  const uint32_t die_count = dies();
  for (uint32_t attempt = 0; attempt < die_count; ++attempt) {
    // Channel-interleaved die order: consecutive pages land on different
    // channels so their bus transfers overlap.
    uint32_t cursor = cursor_[stream];
    uint32_t die = (cursor % geometry_.channels) * geometry_.dies_per_channel +
                   (cursor / geometry_.channels) % geometry_.dies_per_channel;
    cursor_[stream] = (cursor_[stream] + 1) % die_count;
    WritePoint& wp = points_[stream][die];
    if (wp.block_index == kUnmapped) {
      if (free_per_die_[die].empty()) continue;
      if (stream != kGcStream && free_count_ <= gc_reserve_) continue;
      wp.block_index = free_per_die_[die].front();
      free_per_die_[die].pop_front();
      --free_count_;
      wp.next_page = 0;
    }
    flash::Address addr = flash::AddressOfBlock(geometry_, wp.block_index);
    addr.page = wp.next_page++;
    if (wp.next_page == geometry_.pages_per_block) {
      sealed_.push_back(wp.block_index);
      wp.block_index = kUnmapped;
      wp.next_page = 0;
    }
    return addr;
  }
  return Status::ResourceExhausted("no erased blocks available");
}

void BlockAllocator::Release(uint64_t block_index) {
  free_per_die_[DieOfBlock(block_index)].push_back(block_index);
  ++free_count_;
}

void BlockAllocator::MarkBad(uint64_t block_index) {
  ++bad_count_;
  Unseal(block_index);
  for (auto& stream_points : points_) {
    for (WritePoint& wp : stream_points) {
      if (wp.block_index == block_index) {
        wp.block_index = kUnmapped;
        wp.next_page = 0;
      }
    }
  }
  auto& free_list = free_per_die_[DieOfBlock(block_index)];
  auto it = std::find(free_list.begin(), free_list.end(), block_index);
  if (it != free_list.end()) {
    free_list.erase(it);
    --free_count_;
  }
}

void BlockAllocator::Unseal(uint64_t block_index) {
  auto it = std::find(sealed_.begin(), sealed_.end(), block_index);
  if (it != sealed_.end()) sealed_.erase(it);
}

}  // namespace xssd::ftl
