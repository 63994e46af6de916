#ifndef XSSD_CORE_FAST_SIDE_H_
#define XSSD_CORE_FAST_SIDE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/cmb_module.h"
#include "core/config.h"
#include "core/destage_module.h"
#include "core/registers.h"
#include "core/transport_module.h"
#include "ftl/ftl.h"
#include "nvme/command.h"
#include "pcie/fabric.h"

namespace xssd::core {

/// \brief One fast side (paper §4.1–4.3, Figure 4): the CMB, Destage and
/// Transport modules behind one log control page.
///
/// It is the MMIO device for its own CMB BAR range — the control page, the
/// direct ring window, and one ring-sized intake alias per peer slot (a
/// write into alias s is attributed to member slot s and term-fenced) —
/// and it serves the vendor admin commands that configure its modules. The
/// owning VillarsDevice holds one fast side per CMB partition, supplies the
/// conventional side their destage rings land on, and drives the power
/// events.
class FastSide : public pcie::MmioDevice {
 public:
  FastSide(sim::Simulator* sim, pcie::PcieFabric* fabric, ftl::Ftl* ftl,
           const CmbConfig& cmb, const DestageConfig& destage,
           const TransportConfig& transport, std::string name);

  FastSide(const FastSide&) = delete;
  FastSide& operator=(const FastSide&) = delete;

  /// Control page + direct ring window + kMaxPeers ring-sized intake
  /// aliases (CmbBarBytes).
  uint64_t bar_bytes() const { return bar_bytes_; }
  const std::string& name() const { return name_; }

  // pcie::MmioDevice — this fast side's BAR range.
  void OnMmioWrite(uint64_t offset, const Bytes& data) override;
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override;

  /// Serve a vendor admin command addressed to this fast side, filling the
  /// status (and result) of `cpl`. Unknown opcodes are kInvalidOpcode.
  void HandleAdmin(const nvme::Command& cmd, nvme::Completion* cpl);

  /// A halted fast side drops MMIO writes, reads its ring as zeros, and
  /// reports StatusBits::kHalted.
  void set_halted(bool halted) { halted_ = halted; }
  bool halted() const { return halted_; }

  CmbModule& cmb() { return cmb_; }
  DestageModule& destage() { return destage_; }
  TransportModule& transport() { return transport_; }

  /// Credit the host sees (protocol-dependent on a primary).
  uint64_t EffectiveCredit() const {
    return transport_.EffectiveCredit(cmb_.local_credit());
  }

 private:
  uint64_t ReadRegister(uint64_t offset) const;

  std::string name_;
  uint64_t bar_bytes_;
  bool halted_ = false;
  CmbModule cmb_;
  DestageModule destage_;
  TransportModule transport_;
};

/// kXssdSetDestagePolicy, a device-level command: set the channel
/// scheduling policy of the conventional side `ftl` to `policy`.
nvme::CmdStatus SetDestagePolicy(ftl::Ftl& ftl, uint32_t policy);

// Vendor admin command builders: the one encoder of the wire format that
// FastSide::HandleAdmin (and VillarsDevice, for kXssdTruncate) decodes. A
// slot or scalar goes in cdw10, a 64-bit bus address is split low/high
// over cdw11/cdw12, and the truncate offset low/high over cdw10/cdw11.
// Every command addresses partition 0; set cdw13 to pick another.

nvme::Command SetRoleCmd(Role role, uint64_t mailbox_addr);
/// Mirror into the peer reachable at bus address `window`, as member slot
/// `slot`.
nvme::Command AddPeerCmd(size_t slot, uint64_t window);
nvme::Command RemovePeerCmd(size_t slot);
nvme::Command ClearPeersCmd();
nvme::Command SetTermCmd(uint64_t term, size_t writer_slot);
nvme::Command SetUpdatePeriodCmd(sim::SimTime period);
/// OK when SetUpdatePeriodCmd can carry `period`: cdw10 holds it in ns, and
/// the device refuses 0, a credit tick that never advances the clock.
Status CheckUpdatePeriod(sim::SimTime period);
nvme::Command SetReplicationCmd(ReplicationProtocol protocol);
nvme::Command TruncateCmd(uint64_t offset);

}  // namespace xssd::core

#endif  // XSSD_CORE_FAST_SIDE_H_
