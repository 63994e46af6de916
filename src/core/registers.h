#ifndef XSSD_CORE_REGISTERS_H_
#define XSSD_CORE_REGISTERS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace xssd::core {

/// CMB BAR layout: a 4 KiB control page, the byte-addressable PM ring
/// window the host writes, then one ring-sized intake alias per peer slot
/// (see CmbBarBytes). The control page is the "log control interface" of
/// the paper (§4.1/§4.3): the credit counter, ring geometry, destage
/// progress, transport status, and the shadow-counter mailboxes that
/// secondaries write over NTB.
inline constexpr uint64_t kCtrlPageBytes = 4096;
inline constexpr uint64_t kRingWindowOffset = kCtrlPageBytes;

// --- Control-page register offsets (all 8-byte) ---------------------------

/// Protocol-visible credit counter: bytes persisted according to the active
/// replication protocol (read-only; the x_fsync loop polls this).
inline constexpr uint64_t kRegCredit = 0x00;
/// Local persistence counter (bytes contiguous in the PM ring).
inline constexpr uint64_t kRegLocalCredit = 0x08;
/// Staging-queue size negotiated with the database.
inline constexpr uint64_t kRegQueueBytes = 0x10;
/// PM ring capacity.
inline constexpr uint64_t kRegRingBytes = 0x18;
/// Stream bytes destaged to the conventional side so far.
inline constexpr uint64_t kRegDestaged = 0x20;
/// Destaging-ring geometry on the conventional side.
inline constexpr uint64_t kRegDestageStartLba = 0x28;
inline constexpr uint64_t kRegDestageLbaCount = 0x30;
/// Transport status word (see StatusBits below).
inline constexpr uint64_t kRegTransportStatus = 0x38;
/// Destage barrier for the advanced x_alloc API: stream offsets >= barrier
/// are not destaged (write-only; ~0 disables).
inline constexpr uint64_t kRegDestageBarrier = 0x40;
/// Device epoch: bumped on every reboot so hosts can detect restarts.
inline constexpr uint64_t kRegEpoch = 0x48;
/// Replication term (generation) number: bumped by the supervisor on every
/// promotion (kXssdSetTerm). Unlike the epoch, the term survives only in
/// the transport module — it fences *writers*, not reboots: a ring write
/// arriving through a peer intake window whose writer term is older than
/// the device term is dropped (split-brain fencing, see src/ha/).
inline constexpr uint64_t kRegTerm = 0x50;
/// Count of ring writes rejected by the term fence (read-only telemetry;
/// the ha_campaign asserts this goes nonzero in the partition scenario).
inline constexpr uint64_t kRegFencedWrites = 0x58;

/// Shadow-counter mailboxes: secondary i writes its credit at
/// kRegShadowBase + 8*i (via NTB).
inline constexpr uint64_t kRegShadowBase = 0x80;
inline constexpr uint32_t kMaxPeers = 8;

/// Per-writer term registers: the last term under which member slot i was
/// authorised to push ring bytes into this device (set locally by this
/// node's supervisor agent via kXssdSetTerm). Placed after the shadow
/// mailboxes — kMaxPeers 8-byte slots span [0xC0, 0x100).
inline constexpr uint64_t kRegWriterTermBase = 0xC0;

// --- BAR layout arithmetic -------------------------------------------------

/// Bytes of one fast side's CMB BAR with a `ring_bytes` PM ring: the
/// control page, the host ring window and kMaxPeers intake aliases.
constexpr uint64_t CmbBarBytes(uint64_t ring_bytes) {
  return kCtrlPageBytes + ring_bytes * (1 + kMaxPeers);
}

/// BAR offset of the intake alias through which member slot `slot` pushes
/// mirrored ring bytes. A write there lands in the same ring as the host
/// window but is attributed to `slot` and term-fenced (kRegTerm).
constexpr uint64_t IntakeAliasOffset(uint64_t ring_bytes, uint32_t slot) {
  return kRingWindowOffset + ring_bytes * (1 + slot);
}

/// A BAR offset at or past kRingWindowOffset, decoded.
struct RingWindowAccess {
  /// 0 for the host ring window, s + 1 for member slot s's intake alias.
  uint32_t window;
  uint64_t ring_offset;
};
constexpr RingWindowAccess DecodeRingWindow(uint64_t bar_offset,
                                            uint64_t ring_bytes) {
  uint64_t rel = bar_offset - kRingWindowOffset;
  return RingWindowAccess{static_cast<uint32_t>(rel / ring_bytes),
                          rel % ring_bytes};
}

/// Control-page offset of secondary `index`'s shadow mailbox.
constexpr uint64_t ShadowMailboxOffset(size_t index) {
  return kRegShadowBase + 8ull * index;
}

/// The shadow mailbox whose 8-byte register starts at control-page offset
/// `offset`, or kMaxPeers when `offset` starts none.
constexpr uint32_t ShadowMailboxIndex(uint64_t offset) {
  if (offset < kRegShadowBase || offset % 8 != 0) return kMaxPeers;
  uint64_t index = (offset - kRegShadowBase) / 8;
  return index < kMaxPeers ? static_cast<uint32_t>(index) : kMaxPeers;
}

/// Where stream bytes [stream_offset, stream_offset + len) lie in a ring
/// of `ring_bytes`: the first `head` bytes from ring offset `offset`, and
/// the rest (if any) continuing at ring offset 0.
struct RingSplit {
  uint64_t offset;
  size_t head;
};
constexpr RingSplit SplitRingRange(uint64_t stream_offset, size_t len,
                                   uint64_t ring_bytes) {
  uint64_t offset = stream_offset % ring_bytes;
  return RingSplit{offset, static_cast<size_t>(std::min<uint64_t>(
                               len, ring_bytes - offset))};
}

/// Transport status word bit assignments.
struct StatusBits {
  static constexpr uint64_t kRoleMask = 0x3;            // Role enum
  static constexpr uint64_t kPeerCountShift = 2;        // bits 2..5
  static constexpr uint64_t kPeerCountMask = 0xF << 2;
  static constexpr uint64_t kReplicationStalled = 1ull << 8;
  static constexpr uint64_t kHalted = 1ull << 9;
  /// Primary is logging un-replicated (all lagging peers written off until
  /// they catch up); see TransportConfig::degrade_timeout.
  static constexpr uint64_t kDegraded = 1ull << 10;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_REGISTERS_H_
