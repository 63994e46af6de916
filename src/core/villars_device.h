#ifndef XSSD_CORE_VILLARS_DEVICE_H_
#define XSSD_CORE_VILLARS_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/config.h"
#include "core/fast_side.h"
#include "flash/array.h"
#include "ftl/ftl.h"
#include "ftl/scrub.h"
#include "nvme/controller.h"
#include "pcie/fabric.h"

namespace xssd::core {

/// \brief The Villars device: the reference X-SSD design (paper §4).
///
/// One object assembles the whole of Figure 4:
///  - the *conventional side*: flash array + FTL + NVMe controller (BAR0);
///  - the *fast side* (FastSide): CMB module (PM ring behind a
///    byte-addressable BAR), Destage module, and Transport module.
///
/// The device registers two MMIO regions on its host's PCIe fabric: BAR0
/// (NVMe registers/doorbells) and the CMB BAR (control page + ring window),
/// served by the fast side. Vendor-specific NVMe admin commands switch
/// roles, add peers, and tune destage/replication policy — "changing the
/// networking mode ... is done via software" (§4.2). The device itself
/// decides when the epoch advances, and owns the power events and the
/// device-level commands (kXssdSetDestagePolicy, kXssdTruncate).
class VillarsDevice {
 public:
  VillarsDevice(sim::Simulator* sim, pcie::PcieFabric* fabric,
                const VillarsConfig& config, std::string name);
  ~VillarsDevice();

  VillarsDevice(const VillarsDevice&) = delete;
  VillarsDevice& operator=(const VillarsDevice&) = delete;

  /// Map BAR0 and the CMB BAR onto the fabric.
  Status Attach(uint64_t bar0_base, uint64_t cmb_base);

  uint64_t bar0_base() const { return bar0_base_; }
  uint64_t cmb_base() const { return cmb_base_; }
  /// Bus address of the ring window (cmb_base + control page).
  uint64_t ring_window_base() const { return cmb_base_ + kRingWindowOffset; }
  /// Control page + direct ring window + one ring-sized intake alias per
  /// configured peer slot (CmbConfig::peer_intake_slots; 0 = legacy BAR).
  uint64_t cmb_bar_bytes() const { return fast_side_->bar_bytes(); }

  // -- Power events ---------------------------------------------------------

  /// Sudden power interruption: drain the staging queue, destage the PM
  /// ring (bounded by the supercap budget), then halt. `done` fires when
  /// the emergency destage finishes.
  void PowerFail(std::function<void()> done);

  /// Hard crash (firmware wedge / supercap failure): the device halts with
  /// NO staging drain and NO emergency destage. Only bytes that already
  /// reached the PM ring (and pages already durable in flash) survive into
  /// recovery — the worst case the recovery chain walk must handle.
  void CrashHard();

  /// Bring the device back: fast side restarts empty in a new epoch; the
  /// conventional side (flash) retains everything destaged.
  void Reboot();

  /// HA resync: discard stream bytes at or above `offset` (the rejoining
  /// secondary's unreplicated suffix). If pages beyond the cut were already
  /// issued to flash, the destage stream restarts in a fresh epoch so the
  /// recovery chain walk ignores them; otherwise the cursor simply stops
  /// short of the cut. Exposed over admin as kXssdTruncate.
  void TruncateLog(uint64_t offset);

  bool halted() const { return fast_side_->halted(); }
  uint32_t epoch() const { return fast_side_->destage().epoch(); }

  // -- Component access -----------------------------------------------------

  CmbModule& cmb() { return fast_side_->cmb(); }
  DestageModule& destage() { return fast_side_->destage(); }
  TransportModule& transport() { return fast_side_->transport(); }
  ftl::Ftl& ftl() { return *ftl_; }
  /// Patrol scrubber over this device's FTL (running only when
  /// config.scrub.enabled; halted with the device, re-armed on Reboot).
  ftl::PatrolScrubber& scrubber() { return *scrubber_; }
  flash::Array& flash_array() { return *array_; }
  nvme::Controller& controller() { return *controller_; }
  const VillarsConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  /// Credit the host sees (protocol-dependent on a primary).
  uint64_t EffectiveCredit() const { return fast_side_->EffectiveCredit(); }

  /// Register metrics for every component under `prefix` (e.g. "cmb.*",
  /// "destage.*", "flash.*").
  void EnableMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix = "");

  /// Attach span tracing to every component under node tag `node_tag`
  /// (nullptr detaches).
  void EnableSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a flight recorder to every component of this device (nullptr
  /// detaches). Components record their rare, load-bearing events (ring
  /// wraps, fenced writes, uncorrectable-read escalations, GC collects)
  /// tagged with this device's name; the device itself records power
  /// fails, hard crashes, reboots, and log truncations, and AutoDumps the
  /// ring at both crash flavours.
  void EnableFlightRecorder(obs::FlightRecorder* recorder);

  /// Attach a fault injector to every component of this device (nullptr
  /// detaches). Crash sites are namespaced `name() + "/"` (a plan site
  /// "destage.emit_page" matches any device; "pri/destage.emit_page" only
  /// this one). With `install_crash_handler`, a firing crash clause drives
  /// this device: graceful → PowerFail (supercap flush + emergency
  /// destage), otherwise → CrashHard.
  void ArmFaults(fault::FaultInjector* injector,
                 bool install_crash_handler = true);

 private:
  /// Vendor-specific admin command dispatch.
  void HandleVendorAdmin(const nvme::Command& cmd,
                         std::function<void(nvme::Completion)> done);

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  VillarsConfig config_;
  std::string name_;

  std::unique_ptr<flash::Array> array_;
  std::unique_ptr<ftl::Ftl> ftl_;
  std::unique_ptr<ftl::PatrolScrubber> scrubber_;
  std::unique_ptr<nvme::Controller> controller_;
  std::unique_ptr<FastSide> fast_side_;

  uint64_t bar0_base_ = 0;
  uint64_t cmb_base_ = 0;

  // Flight recorder (set by EnableFlightRecorder).
  obs::FlightRecorder* flightrec_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_VILLARS_DEVICE_H_
