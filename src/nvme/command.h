#ifndef XSSD_NVME_COMMAND_H_
#define XSSD_NVME_COMMAND_H_

#include <cstdint>
#include <cstring>
#include <vector>

namespace xssd::nvme {

/// NVM command set opcodes (I/O queue).
enum class IoOpcode : uint8_t {
  kFlush = 0x00,
  kWrite = 0x01,
  kRead = 0x02,
};

/// Admin opcodes. Opcodes >= 0xC0 are vendor specific; the Villars device
/// ships its Transport/Destage/CMB configuration there (paper §4.2: "the
/// commands we added are sent using vendor-specific features of the regular
/// NVMe drivers").
enum class AdminOpcode : uint8_t {
  kIdentify = 0x06,
  // --- Villars vendor-specific extensions ---
  kXssdSetRole = 0xC0,        ///< cdw10: 0 standalone, 1 primary, 2 secondary
  kXssdAddPeer = 0xC1,        ///< cdw10: peer id (NTB window index)
  kXssdSetUpdatePeriod = 0xC2,///< cdw10: shadow-counter period in ns
  kXssdSetDestagePolicy = 0xC3,///< cdw10: ftl::SchedulingPolicy
  kXssdSetReplication = 0xC4, ///< cdw10: ReplicationProtocol
  kXssdClearPeers = 0xC6,
  kXssdSetTerm = 0xC7,        ///< cdw10: term, cdw11: authorised writer slot
  kXssdRemovePeer = 0xC8,     ///< cdw10: member slot to drop from the group
  kXssdTruncate = 0xC9,       ///< cdw11:cdw10: keep stream bytes [0, offset)
};

/// \brief One 64-byte submission-queue entry.
///
/// Field layout follows the spirit of the spec (command dword 0, nsid,
/// PRP1/2, cdw10-15); SLBA and length live in cdw10..12 as in the NVM
/// command set. PRP1 points at a physically contiguous host buffer in this
/// model.
struct Command {
  uint8_t opcode = 0;
  uint16_t cid = 0;
  uint32_t nsid = 1;
  uint64_t prp1 = 0;  ///< host buffer address
  uint64_t prp2 = 0;
  uint32_t cdw10 = 0;
  uint32_t cdw11 = 0;
  uint32_t cdw12 = 0;
  uint32_t cdw13 = 0;
  uint32_t cdw14 = 0;
  uint32_t cdw15 = 0;

  uint64_t slba() const {
    return (static_cast<uint64_t>(cdw11) << 32) | cdw10;
  }
  void set_slba(uint64_t lba) {
    cdw10 = static_cast<uint32_t>(lba);
    cdw11 = static_cast<uint32_t>(lba >> 32);
  }
  /// Number of logical blocks, 0-based per spec (0 == 1 block).
  uint32_t nlb0() const { return cdw12 & 0xFFFF; }
  void set_nlb(uint32_t blocks) { cdw12 = (blocks - 1) & 0xFFFF; }
};

inline constexpr size_t kSqeBytes = 64;
inline constexpr size_t kCqeBytes = 16;

/// Serialize a command into the 64-byte SQE image placed in host memory.
void EncodeCommand(const Command& cmd, uint8_t out[kSqeBytes]);
Command DecodeCommand(const uint8_t in[kSqeBytes]);

/// NVMe status codes (subset).
enum class CmdStatus : uint16_t {
  kSuccess = 0x0,
  kInvalidOpcode = 0x1,
  kInvalidField = 0x2,
  kLbaOutOfRange = 0x80,
  kInternalError = 0x6,
  kMediaWriteFault = 0x280,
  kMediaUnrecoveredRead = 0x281,
};

/// \brief One 16-byte completion-queue entry.
struct Completion {
  uint32_t result = 0;  ///< command-specific dword 0
  uint16_t sq_id = 0;
  uint16_t sq_head = 0;
  uint16_t cid = 0;
  CmdStatus status = CmdStatus::kSuccess;
  bool phase = false;

  bool ok() const { return status == CmdStatus::kSuccess; }
};

void EncodeCompletion(const Completion& cpl, uint8_t out[kCqeBytes]);
Completion DecodeCompletion(const uint8_t in[kCqeBytes]);

}  // namespace xssd::nvme

#endif  // XSSD_NVME_COMMAND_H_
