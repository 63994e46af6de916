#include "core/fast_side.h"

#include <cstring>

#include "common/logging.h"

namespace xssd::core {

FastSide::FastSide(sim::Simulator* sim, pcie::PcieFabric* fabric,
                   ftl::Ftl* ftl, const CmbConfig& cmb,
                   const DestageConfig& destage,
                   const TransportConfig& transport, std::string name)
    : name_(std::move(name)),
      bar_bytes_(CmbBarBytes(cmb.ring_bytes)),
      cmb_(sim, cmb),
      destage_(sim, ftl, &cmb_, destage),
      transport_(sim, fabric, transport) {
  transport_.set_ring_bytes(cmb.ring_bytes);
  // Destage before transport: the hook order fixes the FIFO order of the
  // events the two modules schedule for the same credit advance.
  cmb_.SetCreditHook([this](uint64_t credit) {
    destage_.OnCreditAdvance(credit);
    transport_.OnLocalCredit(credit);
  });
  cmb_.SetArrivalHook([this](uint64_t stream_offset, const Bytes& data) {
    transport_.OnCmbArrival(stream_offset, data);
  });
  transport_.SetRingReader(
      [this](uint64_t stream_offset, uint8_t* out, size_t len) {
        cmb_.CopyOut(stream_offset, out, len);
      });
}

void FastSide::OnMmioWrite(uint64_t offset, const Bytes& data) {
  if (halted_) return;
  if (offset >= kRingWindowOffset) {
    // Ring region: the direct host window first, then one intake alias per
    // peer slot (same ring, but writes are attributed to a member slot and
    // term-fenced — a deposed primary's stale pushes die here).
    RingWindowAccess access = DecodeRingWindow(offset, cmb_.ring_bytes());
    if (access.window > 0 && !transport_.AdmitRingWrite(access.window - 1)) {
      return;
    }
    cmb_.OnRingWrite(access.ring_offset, data);
    return;
  }
  // Control-page writes.
  uint32_t mailbox = ShadowMailboxIndex(offset);
  if (mailbox < kMaxPeers && data.size() == 8) {
    uint64_t value = 0;
    std::memcpy(&value, data.data(), 8);
    transport_.OnShadowWrite(mailbox, value);
    return;
  }
  if (offset == kRegDestageBarrier && data.size() == 8) {
    uint64_t value = 0;
    std::memcpy(&value, data.data(), 8);
    destage_.SetBarrier(value);
    return;
  }
  XSSD_LOG(kDebug) << name_ << ": ignored control write at offset "
                   << offset;
}

uint64_t FastSide::ReadRegister(uint64_t offset) const {
  switch (offset) {
    case kRegCredit:
      return EffectiveCredit();
    case kRegLocalCredit:
      return cmb_.local_credit();
    case kRegQueueBytes:
      return cmb_.queue_bytes();
    case kRegRingBytes:
      return cmb_.ring_bytes();
    case kRegDestaged:
      return destage_.destaged();
    case kRegDestageStartLba:
      return destage_.ring_start_lba();
    case kRegDestageLbaCount:
      return destage_.ring_lba_count();
    case kRegTransportStatus: {
      uint64_t word = transport_.StatusWord(cmb_.local_credit());
      if (halted_) word |= StatusBits::kHalted;
      return word;
    }
    case kRegDestageBarrier:
      return destage_.barrier();
    case kRegEpoch:
      return destage_.epoch();
    case kRegTerm:
      return transport_.term();
    case kRegFencedWrites:
      return transport_.fenced_writes();
    default: {
      uint32_t mailbox = ShadowMailboxIndex(offset);
      if (mailbox < kMaxPeers) return transport_.shadow_counter(mailbox);
      if (offset >= kRegWriterTermBase &&
          offset < kRegWriterTermBase + 8 * kMaxPeers) {
        return transport_.writer_term(
            static_cast<uint32_t>((offset - kRegWriterTermBase) / 8));
      }
      return 0;
    }
  }
}

void FastSide::OnMmioRead(uint64_t offset, uint8_t* out, size_t len) {
  if (offset >= kRingWindowOffset) {
    if (halted_) {
      std::memset(out, 0, len);
      return;
    }
    cmb_.ReadRing(DecodeRingWindow(offset, cmb_.ring_bytes()).ring_offset,
                  out, len);
    return;
  }
  // Control registers are 8-byte aligned; serve any aligned span.
  std::memset(out, 0, len);
  uint64_t reg = offset & ~7ull;
  uint64_t value = ReadRegister(reg);
  size_t shift = offset - reg;
  for (size_t i = 0; i < len && shift + i < 8; ++i) {
    out[i] = static_cast<uint8_t>(value >> (8 * (shift + i)));
  }
}

void FastSide::HandleAdmin(const nvme::Command& cmd, nvme::Completion* cpl) {
  switch (static_cast<nvme::AdminOpcode>(cmd.opcode)) {
    case nvme::AdminOpcode::kXssdSetRole: {
      if (cmd.cdw10 > static_cast<uint32_t>(Role::kSecondary)) {
        cpl->status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_.SetRole(static_cast<Role>(cmd.cdw10));
      // cdw11/cdw12: secondary's shadow mailbox address through NTB
      // (64-bit split across the dwords).
      if (static_cast<Role>(cmd.cdw10) == Role::kSecondary) {
        uint64_t addr =
            (static_cast<uint64_t>(cmd.cdw12) << 32) | cmd.cdw11;
        transport_.ConfigureSecondary(addr);
      }
      break;
    }
    case nvme::AdminOpcode::kXssdAddPeer: {
      uint64_t addr = (static_cast<uint64_t>(cmd.cdw12) << 32) | cmd.cdw11;
      Status status = transport_.AddPeerAt(cmd.cdw10, addr);
      if (!status.ok()) cpl->status = nvme::CmdStatus::kInvalidField;
      break;
    }
    case nvme::AdminOpcode::kXssdRemovePeer: {
      Status status = transport_.RemovePeer(cmd.cdw10);
      if (!status.ok()) cpl->status = nvme::CmdStatus::kInvalidField;
      break;
    }
    case nvme::AdminOpcode::kXssdClearPeers:
      transport_.ClearPeers();
      break;
    case nvme::AdminOpcode::kXssdSetTerm: {
      if (cmd.cdw11 >= kMaxPeers) {
        cpl->status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_.SetTerm(cmd.cdw10, cmd.cdw11);
      break;
    }
    case nvme::AdminOpcode::kXssdSetUpdatePeriod:
      if (cmd.cdw10 == 0) {
        cpl->status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_.set_update_period(sim::Ns(cmd.cdw10));
      break;
    case nvme::AdminOpcode::kXssdSetReplication: {
      if (cmd.cdw10 > static_cast<uint32_t>(ReplicationProtocol::kChain)) {
        cpl->status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_.set_protocol(static_cast<ReplicationProtocol>(cmd.cdw10));
      break;
    }
    default:
      cpl->status = nvme::CmdStatus::kInvalidOpcode;
      break;
  }
}

nvme::CmdStatus SetDestagePolicy(ftl::Ftl& ftl, uint32_t policy) {
  if (policy >
      static_cast<uint32_t>(ftl::SchedulingPolicy::kConventionalPriority)) {
    return nvme::CmdStatus::kInvalidField;
  }
  ftl.scheduler().set_policy(static_cast<ftl::SchedulingPolicy>(policy));
  return nvme::CmdStatus::kSuccess;
}

nvme::Command SetRoleCmd(Role role, uint64_t mailbox_addr) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetRole);
  cmd.cdw10 = static_cast<uint32_t>(role);
  cmd.cdw11 = static_cast<uint32_t>(mailbox_addr);
  cmd.cdw12 = static_cast<uint32_t>(mailbox_addr >> 32);
  return cmd;
}

nvme::Command AddPeerCmd(size_t slot, uint64_t window) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdAddPeer);
  cmd.cdw10 = static_cast<uint32_t>(slot);
  cmd.cdw11 = static_cast<uint32_t>(window);
  cmd.cdw12 = static_cast<uint32_t>(window >> 32);
  return cmd;
}

nvme::Command RemovePeerCmd(size_t slot) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdRemovePeer);
  cmd.cdw10 = static_cast<uint32_t>(slot);
  return cmd;
}

nvme::Command ClearPeersCmd() {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdClearPeers);
  return cmd;
}

nvme::Command SetTermCmd(uint64_t term, size_t writer_slot) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetTerm);
  cmd.cdw10 = static_cast<uint32_t>(term);
  cmd.cdw11 = static_cast<uint32_t>(writer_slot);
  return cmd;
}

nvme::Command SetUpdatePeriodCmd(sim::SimTime period) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetUpdatePeriod);
  cmd.cdw10 = static_cast<uint32_t>(period);
  return cmd;
}

Status CheckUpdatePeriod(sim::SimTime period) {
  if (period == 0 || period > UINT32_MAX) {
    return Status::InvalidArgument(
        "update period " + std::to_string(period) +
        " ns is not in [1, 2^32) ns");
  }
  return Status::OK();
}

nvme::Command SetReplicationCmd(ReplicationProtocol protocol) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdSetReplication);
  cmd.cdw10 = static_cast<uint32_t>(protocol);
  return cmd;
}

nvme::Command TruncateCmd(uint64_t offset) {
  nvme::Command cmd;
  cmd.opcode = static_cast<uint8_t>(nvme::AdminOpcode::kXssdTruncate);
  cmd.cdw10 = static_cast<uint32_t>(offset);
  cmd.cdw11 = static_cast<uint32_t>(offset >> 32);
  return cmd;
}

}  // namespace xssd::core
