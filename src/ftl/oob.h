#ifndef XSSD_FTL_OOB_H_
#define XSSD_FTL_OOB_H_

#include <cstdint>

#include "flash/array.h"

namespace xssd::ftl {

/// \brief Per-page out-of-band mapping metadata, programmed atomically with
/// the page's data area (the ftl-sim `rebuild_from_oob` idiom).
///
/// `seq` is the *logical* version of the lpn — assigned when the host write
/// is accepted, preserved verbatim when GC relocates the page, so a stale
/// GC copy can never outrank a newer host write during recovery. `stamp` is
/// the *physical* program counter — fresh on every NAND program — and
/// breaks the equal-seq tie a crash between a relocation program and the
/// victim erase leaves behind (the relocated copy always carries the higher
/// stamp).
struct OobMeta {
  uint64_t lpn = 0;
  uint64_t seq = 0;    ///< logical write sequence (host-write order)
  uint64_t stamp = 0;  ///< physical program sequence (NAND program order)

  friend bool operator==(const OobMeta& a, const OobMeta& b) {
    return a.lpn == b.lpn && a.seq == b.seq && a.stamp == b.stamp;
  }
};

/// Encoded OOB record size: three little-endian u64 fields plus a CRC-32C.
inline constexpr uint32_t kOobRecordBytes = 3 * 8 + 4;
static_assert(kOobRecordBytes <= flash::kOobBytes);

/// Serialize `meta` into the wire form stored in a page's spare area.
flash::Oob EncodeOob(const OobMeta& meta);

/// Parse an OOB record; false on short buffers or CRC mismatch (a torn or
/// garbage spare area — recovery skips the page).
bool DecodeOob(const flash::Oob& raw, OobMeta* out);

}  // namespace xssd::ftl

#endif  // XSSD_FTL_OOB_H_
