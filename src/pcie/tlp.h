#ifndef XSSD_PCIE_TLP_H_
#define XSSD_PCIE_TLP_H_

#include <cstdint>

namespace xssd::pcie {

/// Transaction Layer Packet accounting. The fabric, the store engine and
/// the NTB bridge move payload bytes, not packets; they charge each link
/// the wire bytes a real link would carry for that payload split into TLPs.

/// Framing + DLL + TL header bytes added to every TLP on the wire:
/// STP(1) + sequence(2) + 4-DW header(16) + LCRC(4) + END(1) ≈ 24, plus
/// per-packet ACK DLLP amortization (2).
inline constexpr uint32_t kTlpOverheadBytes = 26;

/// Largest payload a single memory-write TLP may carry (Max_Payload_Size).
inline constexpr uint32_t kMaxPayloadBytes = 256;

/// Number of TLPs needed for `len` payload bytes at `chunk` bytes each.
inline uint64_t TlpCountFor(uint64_t len, uint32_t chunk) {
  return (len + chunk - 1) / chunk;
}

/// Wire bytes to move `len` payload bytes when split into `chunk`-byte TLPs.
inline uint64_t WireBytesFor(uint64_t len, uint32_t chunk) {
  return len + TlpCountFor(len, chunk) * kTlpOverheadBytes;
}

}  // namespace xssd::pcie

#endif  // XSSD_PCIE_TLP_H_
