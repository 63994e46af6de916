#ifndef XSSD_FLASH_GEOMETRY_H_
#define XSSD_FLASH_GEOMETRY_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace xssd::flash {

/// \brief Physical organization of a NAND flash subsystem.
///
/// Defaults approximate the Cosmos+ OpenSSD board the paper builds Villars
/// on (§6): 8 channels × 8 ways of MLC NAND with 16 KiB pages. Capacities
/// are scaled down from the board's 2 TB so simulations stay light; all
/// behaviours under test (parallelism, channel contention, GC) depend on
/// the *shape*, not the total capacity.
struct Geometry {
  uint32_t channels = 8;
  uint32_t dies_per_channel = 8;
  uint32_t planes_per_die = 1;
  uint32_t blocks_per_plane = 64;
  uint32_t pages_per_block = 256;
  uint32_t page_bytes = 16 * kKiB;
  /// Out-of-band (spare) bytes per page, programmed atomically with the
  /// page's data area. The FTL stores its mapping metadata (lpn + write
  /// seq) here; recovery rebuilds the page map from an OOB scan.
  uint32_t oob_bytes = 64;

  uint32_t dies() const { return channels * dies_per_channel; }
  uint64_t blocks() const {
    return static_cast<uint64_t>(dies()) * planes_per_die * blocks_per_plane;
  }
  uint64_t pages() const { return blocks() * pages_per_block; }
  uint64_t capacity_bytes() const { return pages() * page_bytes; }
};

/// \brief Physical address of one flash page (or block, with page ignored).
struct Address {
  uint32_t channel = 0;
  uint32_t die = 0;    ///< die (way) within the channel
  uint32_t plane = 0;
  uint32_t block = 0;  ///< block within the plane
  uint32_t page = 0;   ///< page within the block

  friend bool operator==(const Address& a, const Address& b) {
    return a.channel == b.channel && a.die == b.die && a.plane == b.plane &&
           a.block == b.block && a.page == b.page;
  }

  std::string ToString() const;
};

/// Dense index of a page within the whole array, for mapping tables.
uint64_t PageIndex(const Geometry& g, const Address& a);
Address AddressOfPage(const Geometry& g, uint64_t page_index);

/// Dense index of a block within the whole array.
uint64_t BlockIndex(const Geometry& g, const Address& a);
Address AddressOfBlock(const Geometry& g, uint64_t block_index);

/// Validates that `a` addresses a page inside `g`.
bool Contains(const Geometry& g, const Address& a);

}  // namespace xssd::flash

#endif  // XSSD_FLASH_GEOMETRY_H_
