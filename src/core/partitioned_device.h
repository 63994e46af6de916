#ifndef XSSD_CORE_PARTITIONED_DEVICE_H_
#define XSSD_CORE_PARTITIONED_DEVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/fast_side.h"
#include "flash/array.h"
#include "ftl/ftl.h"
#include "nvme/controller.h"
#include "pcie/fabric.h"

namespace xssd::core {

/// One tenant's slice of the fast side.
struct PartitionConfig {
  CmbConfig cmb;
  DestageConfig destage;
  TransportConfig transport;
};

/// \brief Multi-tenant X-SSD configuration (paper §7.2).
struct PartitionedConfig {
  flash::Geometry geometry;
  flash::Timing flash_timing;
  flash::Reliability reliability;
  ftl::FtlConfig ftl;
  std::vector<PartitionConfig> partitions;
  ftl::SchedulingPolicy scheduling = ftl::SchedulingPolicy::kNeutral;
  uint64_t seed = 42;
};

/// \brief An X-SSD whose CMB is segmented into independent regions — the
/// SR-IOV-style virtualization sketched in the paper's §7.2, which also
/// subsumes the per-writer-counter extension of §7.1 (one partition per
/// pinned writer behaves exactly like one credit counter per core).
///
/// Each partition is a complete fast side (FastSide): its own staging
/// queue, PM ring, credit counter, destage ring (a disjoint LBA range on
/// the shared conventional side), and its own replication configuration.
/// The conventional side — flash array, FTL, NVMe controller — is shared,
/// as a single physical function would be; vendor admin commands pick
/// their partition by cdw13.
///
/// The CMB BAR lays partitions out back to back, each with the standard
/// control page + ring window, so an unmodified host::XLogClient pointed
/// at a partition's base address works as-is — tenants need no special
/// client.
class PartitionedVillars {
 public:
  PartitionedVillars(sim::Simulator* sim, pcie::PcieFabric* fabric,
                     const PartitionedConfig& config, std::string name);
  ~PartitionedVillars();

  PartitionedVillars(const PartitionedVillars&) = delete;
  PartitionedVillars& operator=(const PartitionedVillars&) = delete;

  /// Map BAR0 (shared NVMe) and the partitioned CMB BAR.
  Status Attach(uint64_t bar0_base, uint64_t cmb_base);

  size_t partition_count() const { return partitions_.size(); }

  /// Bus address of partition `index`'s control page (give this to an
  /// XLogClient as its cmb_base).
  uint64_t partition_base(size_t index) const {
    return cmb_base_ + partition_offset_[index];
  }
  /// Whole-BAR size.
  uint64_t cmb_bar_bytes() const { return bar_bytes_; }

  CmbModule& cmb(size_t index) { return partitions_[index]->cmb(); }
  DestageModule& destage(size_t index) {
    return partitions_[index]->destage();
  }
  TransportModule& transport(size_t index) {
    return partitions_[index]->transport();
  }
  ftl::Ftl& ftl() { return *ftl_; }
  flash::Array& flash_array() { return *array_; }
  nvme::Controller& controller() { return *controller_; }

  uint64_t EffectiveCredit(size_t index) const {
    return partitions_[index]->EffectiveCredit();
  }

 private:
  void HandleVendorAdmin(const nvme::Command& cmd,
                         std::function<void(nvme::Completion)> done);

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  std::string name_;

  std::unique_ptr<flash::Array> array_;
  std::unique_ptr<ftl::Ftl> ftl_;
  std::unique_ptr<nvme::Controller> controller_;
  std::vector<std::unique_ptr<FastSide>> partitions_;
  /// Offset of each partition's control page within the CMB BAR.
  std::vector<uint64_t> partition_offset_;
  uint64_t bar_bytes_ = 0;
  uint64_t cmb_base_ = 0;
};

}  // namespace xssd::core

#endif  // XSSD_CORE_PARTITIONED_DEVICE_H_
