#ifndef XSSD_PCIE_STORE_ENGINE_H_
#define XSSD_PCIE_STORE_ENGINE_H_

#include <cstdint>

#include "pcie/fabric.h"

namespace xssd::pcie {

/// CPU store-ordering mode for an MMIO mapping (paper §4.1 / Intel SDM
/// ch. 11). Write-combining lets the CPU coalesce consecutive stores into
/// cache-line-sized (64 B) TLPs; uncached issues each store as its own TLP
/// of at most 8 bytes.
enum class MmioMode {
  kWriteCombining,
  kUncached,
};

/// \brief Models how CPU stores to an MMIO region become TLPs.
///
/// Each Store() covers one application-level write (e.g. one chunk of an
/// x_pwrite) and ends with the fence that the logging protocol requires, so
/// a trailing partial write-combining line is flushed rather than merged
/// with the next operation. This is exactly the knob Figure 10 sweeps.
class StoreEngine {
 public:
  StoreEngine(PcieFabric* fabric, MmioMode mode)
      : fabric_(fabric), mode_(mode) {}

  /// Store `data` at bus address `addr`; `posted` fires when the last TLP
  /// has been accepted onto the link (the point a fenced CPU store sequence
  /// retires).
  void Store(uint64_t addr, Bytes data,
             sim::Simulator::Callback posted = nullptr) {
    fabric_->HostWrite(addr, std::move(data), ChunkBytes(), std::move(posted));
  }

  /// TLP payload granularity implied by the mode.
  uint32_t ChunkBytes() const {
    return mode_ == MmioMode::kWriteCombining ? kWcLineBytes : kUcStoreBytes;
  }

  /// Wire bytes a Store of `len` occupies, for analytic checks.
  uint64_t WireBytes(size_t len) const {
    return WireBytesFor(len, ChunkBytes());
  }

  MmioMode mode() const { return mode_; }

  static constexpr uint32_t kWcLineBytes = 64;
  static constexpr uint32_t kUcStoreBytes = 8;

 private:
  PcieFabric* fabric_;
  MmioMode mode_;
};

}  // namespace xssd::pcie

#endif  // XSSD_PCIE_STORE_ENGINE_H_
