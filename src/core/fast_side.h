#ifndef XSSD_CORE_FAST_SIDE_H_
#define XSSD_CORE_FAST_SIDE_H_

#include <cstdint>
#include <string>

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
/// owning device supplies the conventional side its destage ring lands on
/// and drives the power events: VillarsDevice holds one fast side,
/// PartitionedVillars one per partition.
class FastSide : public pcie::MmioDevice {
 public:
  FastSide(sim::Simulator* sim, pcie::PcieFabric* fabric, ftl::Ftl* ftl,
           const CmbConfig& cmb, const DestageConfig& destage,
           const TransportConfig& transport, std::string name);

  FastSide(const FastSide&) = delete;
  FastSide& operator=(const FastSide&) = delete;

  /// Control page + direct ring window + one ring-sized intake alias per
  /// configured peer slot (CmbConfig::peer_intake_slots; 0 = legacy BAR).
  uint64_t bar_bytes() const { return bar_bytes_; }

  // pcie::MmioDevice — this fast side's BAR range.
  void OnMmioWrite(uint64_t offset, const uint8_t* data, size_t len) override;
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

}  // namespace xssd::core

#endif  // XSSD_CORE_FAST_SIDE_H_
