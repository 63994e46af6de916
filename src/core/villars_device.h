#ifndef XSSD_CORE_VILLARS_DEVICE_H_
#define XSSD_CORE_VILLARS_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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
///  - one *fast side* (FastSide) per partition: CMB module (PM ring behind
///    a byte-addressable BAR), Destage module, and Transport module.
///
/// A single-tenant device has one partition. A multi-tenant one
/// (VillarsConfig::extra_partitions) segments the CMB SR-IOV style (paper
/// §7.2, which also subsumes the per-writer counters of §7.1): every
/// partition has its own credit counter, destage ring (a disjoint LBA
/// range on the shared conventional side) and replication configuration.
///
/// The device registers BAR0 (NVMe registers/doorbells) and the CMB BAR on
/// its host's PCIe fabric. The CMB BAR lays the partitions out back to
/// back, each with the standard control page + ring window served by its
/// fast side, so an unmodified host::XLogClient pointed at partition_base()
/// works as-is. Vendor-specific NVMe admin commands switch roles, add
/// peers, and tune destage/replication policy — "changing the networking
/// mode ... is done via software" (§4.2); cdw13 picks the partition. The
/// device itself decides when the epoch advances, and owns the power
/// events (which reach every partition) and the device-level commands
/// (kXssdSetDestagePolicy, kXssdTruncate).
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
  /// Bus address of partition 0's ring window (cmb_base + control page).
  uint64_t ring_window_base() const { return cmb_base_ + kRingWindowOffset; }
  /// Whole CMB BAR: the sum of every partition's FastSide::bar_bytes().
  uint64_t cmb_bar_bytes() const;

  size_t partition_count() const { return partitions_.size(); }
  /// Bus address of partition `index`'s control page (give this to an
  /// XLogClient as its cmb_base): cmb_base plus the BAR bytes of every
  /// partition below `index`.
  uint64_t partition_base(size_t index) const;
  FastSide& partition(size_t index) { return *partitions_[index]; }

  // -- Power events ---------------------------------------------------------

  /// Sudden power interruption: halt, then in every partition drain the
  /// staging queue and destage the PM ring (each bounded by the supercap
  /// budget). `done` fires when the last emergency destage finishes.
  void PowerFail(std::function<void()> done);

  /// Hard crash (firmware wedge / supercap failure): the device halts with
  /// NO staging drain and NO emergency destage. Only bytes that already
  /// reached the PM ring (and pages already durable in flash) survive into
  /// recovery — the worst case the recovery chain walk must handle.
  void CrashHard();

  /// Bring the device back: every partition restarts empty in its next
  /// epoch; the conventional side (flash) retains everything destaged.
  void Reboot();

  /// HA resync: discard stream bytes at or above `offset` (the rejoining
  /// secondary's unreplicated suffix). If pages beyond the cut were already
  /// issued to flash, the destage stream restarts in a fresh epoch so the
  /// recovery chain walk ignores them; otherwise the cursor simply stops
  /// short of the cut. Exposed over admin as kXssdTruncate, which applies
  /// to the partition cdw13 names.
  void TruncateLog(uint64_t offset, size_t partition = 0);

  /// All partitions halt and restart together.
  bool halted() const { return partitions_[0]->halted(); }
  /// Partition 0's destage epoch.
  uint32_t epoch() const { return partitions_[0]->destage().epoch(); }

  // -- Component access -----------------------------------------------------

  /// Partition 0's modules (use partition(i) for the others).
  CmbModule& cmb() { return partitions_[0]->cmb(); }
  DestageModule& destage() { return partitions_[0]->destage(); }
  TransportModule& transport() { return partitions_[0]->transport(); }
  ftl::Ftl& ftl() { return *ftl_; }
  /// Patrol scrubber over this device's FTL (running only when
  /// config.scrub.enabled; halted with the device, re-armed on Reboot).
  ftl::PatrolScrubber& scrubber() { return *scrubber_; }
  flash::Array& flash_array() { return *array_; }
  nvme::Controller& controller() { return *controller_; }
  const VillarsConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

  /// Credit the host sees on partition 0 (protocol-dependent on a primary).
  uint64_t EffectiveCredit() const {
    return partitions_[0]->EffectiveCredit();
  }

  // Instrumentation. Partition 0 uses the names given; partition i >= 1
  // adds "p<i>." to the metric prefix and "/p<i>" to the span node tag,
  // the flight-recorder tag and the fault-site namespace.

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
  /// One fast side per partition, partition 0 first.
  std::vector<std::unique_ptr<FastSide>> partitions_;

  uint64_t bar0_base_ = 0;
  uint64_t cmb_base_ = 0;

  // Flight recorder (set by EnableFlightRecorder).
  obs::FlightRecorder* flightrec_ = nullptr;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_VILLARS_DEVICE_H_
