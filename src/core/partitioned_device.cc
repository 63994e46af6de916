#include "core/partitioned_device.h"

#include "common/logging.h"

namespace xssd::core {

PartitionedVillars::PartitionedVillars(sim::Simulator* sim,
                                       pcie::PcieFabric* fabric,
                                       const PartitionedConfig& config,
                                       std::string name)
    : sim_(sim), fabric_(fabric), name_(std::move(name)) {
  XSSD_CHECK(!config.partitions.empty());
  array_ = std::make_unique<flash::Array>(sim_, config.geometry,
                                          config.flash_timing,
                                          config.reliability, config.seed);
  ftl_ = std::make_unique<ftl::Ftl>(sim_, array_.get(), config.ftl);
  ftl_->scheduler().set_policy(config.scheduling);
  controller_ = std::make_unique<nvme::Controller>(sim_, fabric_, ftl_.get(),
                                                   name_ + "/nvme");
  controller_->SetVendorHandler(
      [this](const nvme::Command& cmd,
             std::function<void(nvme::Completion)> done) {
        HandleVendorAdmin(cmd, std::move(done));
      });

  for (const PartitionConfig& pc : config.partitions) {
    partitions_.push_back(std::make_unique<FastSide>(
        sim_, fabric_, ftl_.get(), pc.cmb, pc.destage, pc.transport,
        name_ + "/p" + std::to_string(partitions_.size())));
    partition_offset_.push_back(bar_bytes_);
    bar_bytes_ += partitions_.back()->bar_bytes();
  }

  // Destage rings of different tenants must not overlap on the shared
  // conventional side.
  for (size_t i = 0; i < partitions_.size(); ++i) {
    for (size_t j = i + 1; j < partitions_.size(); ++j) {
      const DestageConfig& a = config.partitions[i].destage;
      const DestageConfig& b = config.partitions[j].destage;
      bool disjoint =
          a.ring_start_lba + a.ring_lba_count <= b.ring_start_lba ||
          b.ring_start_lba + b.ring_lba_count <= a.ring_start_lba;
      XSSD_CHECK(disjoint);
    }
  }
}

PartitionedVillars::~PartitionedVillars() = default;

Status PartitionedVillars::Attach(uint64_t bar0_base, uint64_t cmb_base) {
  XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(
      bar0_base, nvme::kBar0Bytes, controller_.get(), name_ + "/bar0"));
  for (size_t i = 0; i < partitions_.size(); ++i) {
    XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(
        cmb_base + partition_offset_[i], partitions_[i]->bar_bytes(),
        partitions_[i].get(), name_ + "/cmb/p" + std::to_string(i)));
  }
  cmb_base_ = cmb_base;
  return Status::OK();
}

void PartitionedVillars::HandleVendorAdmin(
    const nvme::Command& cmd, std::function<void(nvme::Completion)> done) {
  nvme::Completion cpl;
  cpl.cid = cmd.cid;
  cpl.status = nvme::CmdStatus::kSuccess;
  // cdw13 selects the partition (a virtual function in SR-IOV terms).
  if (cmd.cdw13 >= partitions_.size()) {
    cpl.status = nvme::CmdStatus::kInvalidField;
  } else if (static_cast<nvme::AdminOpcode>(cmd.opcode) ==
             nvme::AdminOpcode::kXssdSetDestagePolicy) {
    cpl.status = SetDestagePolicy(*ftl_, cmd.cdw10);
  } else {
    partitions_[cmd.cdw13]->HandleAdmin(cmd, &cpl);
  }
  done(cpl);
}

}  // namespace xssd::core
