#include "core/villars_device.h"

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/flightrec.h"
#include "fault/fault_plan.h"

namespace xssd::core {

namespace {

/// Partition 0 keeps the device's own names, so a single-partition device
/// is named exactly as a device without partitions; partition i adds
/// "/p<i>".
std::string PartitionSuffix(size_t index) {
  return index == 0 ? "" : "/p" + std::to_string(index);
}

}  // namespace

VillarsDevice::VillarsDevice(sim::Simulator* sim, pcie::PcieFabric* fabric,
                             const VillarsConfig& config, std::string name)
    : sim_(sim), fabric_(fabric), config_(config), name_(std::move(name)) {
  array_ = std::make_unique<flash::Array>(sim_, config_.geometry,
                                          flash::Timing{},
                                          config_.reliability, config_.seed);
  ftl_ = std::make_unique<ftl::Ftl>(sim_, array_.get(), config_.ftl);
  ftl_->scheduler().set_policy(config_.scheduling);
  scrubber_ = std::make_unique<ftl::PatrolScrubber>(sim_, ftl_.get(),
                                                    array_.get(),
                                                    config_.scrub);
  scrubber_->Start();  // no-op unless config_.scrub.enabled
  controller_ = std::make_unique<nvme::Controller>(sim_, fabric_, ftl_.get(),
                                                   name_ + "/nvme");
  controller_->SetVendorHandler(
      [this](const nvme::Command& cmd,
             std::function<void(nvme::Completion)> done) {
        HandleVendorAdmin(cmd, std::move(done));
      });
  std::vector<PartitionConfig> partitions = Partitions(config_);
  for (size_t i = 0; i < partitions.size(); ++i) {
    partitions_.push_back(std::make_unique<FastSide>(
        sim_, fabric_, ftl_.get(), partitions[i].cmb, partitions[i].destage,
        partitions[i].transport, name_ + PartitionSuffix(i)));
  }
  // Destage rings of different partitions must not overlap on the shared
  // conventional side.
  for (size_t i = 0; i < partitions.size(); ++i) {
    for (size_t j = i + 1; j < partitions.size(); ++j) {
      XSSD_CHECK(!DestageRingsOverlap(partitions[i].destage,
                                      partitions[j].destage));
    }
  }
}

VillarsDevice::~VillarsDevice() = default;

uint64_t VillarsDevice::cmb_bar_bytes() const {
  uint64_t bytes = 0;
  for (const auto& partition : partitions_) bytes += partition->bar_bytes();
  return bytes;
}

uint64_t VillarsDevice::partition_base(size_t index) const {
  uint64_t base = cmb_base_;
  for (size_t i = 0; i < index; ++i) base += partitions_[i]->bar_bytes();
  return base;
}

void VillarsDevice::EnableMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  array_->SetMetrics(registry, prefix);
  ftl_->SetMetrics(registry, prefix);
  scrubber_->SetMetrics(registry, prefix);
  controller_->SetMetrics(registry, prefix);
  for (size_t i = 0; i < partitions_.size(); ++i) {
    std::string partition_prefix =
        i == 0 ? prefix : prefix + "p" + std::to_string(i) + ".";
    partitions_[i]->cmb().SetMetrics(registry, partition_prefix);
    partitions_[i]->destage().SetMetrics(registry, partition_prefix);
    partitions_[i]->transport().SetMetrics(registry, partition_prefix);
  }
}

void VillarsDevice::EnableSpans(obs::SpanRecorder* spans,
                                const std::string& node_tag) {
  for (size_t i = 0; i < partitions_.size(); ++i) {
    std::string partition_tag = node_tag + PartitionSuffix(i);
    partitions_[i]->cmb().SetSpans(spans, partition_tag);
    partitions_[i]->destage().SetSpans(spans, partition_tag);
    partitions_[i]->transport().SetSpans(spans, partition_tag);
  }
  ftl_->SetSpans(spans, node_tag);
}

void VillarsDevice::EnableFlightRecorder(obs::FlightRecorder* recorder) {
  flightrec_ = recorder;
  ftl_->SetFlightRecorder(recorder, name_);
  for (const auto& partition : partitions_) {
    partition->destage().SetFlightRecorder(recorder, partition->name());
    partition->transport().SetFlightRecorder(recorder, partition->name());
  }
}

void VillarsDevice::ArmFaults(fault::FaultInjector* injector,
                              bool install_crash_handler) {
  array_->set_fault_injector(injector);
  controller_->set_fault_injector(injector);
  for (const auto& partition : partitions_) {
    partition->cmb().SetFaultInjector(injector, partition->name() + "/");
    partition->destage().SetFaultInjector(injector, partition->name() + "/");
  }
  ftl_->SetFaultInjector(injector, name_ + "/");
  if (injector != nullptr && install_crash_handler) {
    injector->SetCrashHandler([this](const fault::FaultSpec& spec) {
      if (spec.graceful) {
        PowerFail([] {});
      } else {
        CrashHard();
      }
    });
  }
}

Status VillarsDevice::Attach(uint64_t bar0_base, uint64_t cmb_base) {
  XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(
      bar0_base, nvme::kBar0Bytes, controller_.get(), name_ + "/bar0"));
  uint64_t base = cmb_base;
  for (size_t i = 0; i < partitions_.size(); ++i) {
    XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(
        base, partitions_[i]->bar_bytes(), partitions_[i].get(),
        name_ + "/cmb" + PartitionSuffix(i)));
    base += partitions_[i]->bar_bytes();
  }
  bar0_base_ = bar0_base;
  cmb_base_ = cmb_base;
  return Status::OK();
}

void VillarsDevice::HandleVendorAdmin(
    const nvme::Command& cmd, std::function<void(nvme::Completion)> done) {
  nvme::Completion cpl;
  cpl.cid = cmd.cid;
  cpl.status = nvme::CmdStatus::kSuccess;
  if (halted()) {
    // A halted device answers nothing; the error completion models the
    // driver-side timeout a dead peer would produce mid-setup.
    cpl.status = nvme::CmdStatus::kInternalError;
    done(cpl);
    return;
  }
  // cdw13 selects the partition (a virtual function in SR-IOV terms).
  if (cmd.cdw13 >= partitions_.size()) {
    cpl.status = nvme::CmdStatus::kInvalidField;
    done(cpl);
    return;
  }
  switch (static_cast<nvme::AdminOpcode>(cmd.opcode)) {
    case nvme::AdminOpcode::kXssdSetDestagePolicy:
      cpl.status = SetDestagePolicy(*ftl_, cmd.cdw10);
      break;
    case nvme::AdminOpcode::kXssdTruncate:
      TruncateLog((static_cast<uint64_t>(cmd.cdw11) << 32) | cmd.cdw10,
                  cmd.cdw13);
      break;
    default:
      partitions_[cmd.cdw13]->HandleAdmin(cmd, &cpl);
      break;
  }
  done(cpl);
}

void VillarsDevice::PowerFail(std::function<void()> done) {
  XSSD_LOG(kInfo) << name_ << ": POWER FAIL — emergency destage";
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " power fail, emergency destage (supercap "
                               "budget " +
                           std::to_string(config_.power.supercap_page_budget) +
                           " pages)");
  }
  // Reject further host traffic immediately.
  for (const auto& partition : partitions_) partition->set_halted(true);
  scrubber_->Stop();
  // `done` fires once the last partition's emergency destage finishes.
  struct Countdown {
    size_t remaining;
    std::function<void()> done;
  };
  auto countdown = std::make_shared<Countdown>(
      Countdown{partitions_.size(), std::move(done)});
  for (const auto& partition : partitions_) {
    // Freeze the background pump first so the emergency destage (below)
    // accounts every page against the supercap energy budget.
    partition->destage().set_frozen(true);
    partition->cmb().DrainStagingForPowerLoss();
    partition->destage().DestageAllForPowerLoss(
        config_.power.supercap_page_budget, [countdown] {
          if (--countdown->remaining == 0) countdown->done();
        });
  }
  if (flightrec_ != nullptr) {
    flightrec_->AutoDump(name_ + " power fail");
  }
}

void VillarsDevice::CrashHard() {
  XSSD_LOG(kWarning) << name_ << ": HARD CRASH — no supercap flush";
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " hard crash, staged data abandoned");
  }
  for (const auto& partition : partitions_) partition->set_halted(true);
  scrubber_->Stop();
  // Order matters: halt the destage pipeline (cancelling any backed-off
  // write retries) before dropping staged chunks, so nothing schedules new
  // flash traffic against the dead device.
  for (const auto& partition : partitions_) {
    partition->destage().HaltForCrash();
    partition->cmb().AbandonStagingForCrash();
  }
  if (flightrec_ != nullptr) {
    flightrec_->AutoDump(name_ + " hard crash");
  }
}

void VillarsDevice::TruncateLog(uint64_t offset, size_t partition) {
  FastSide& side = *partitions_[partition];
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       side.name() + " log truncate to offset " +
                           std::to_string(offset));
  }
  side.cmb().TruncateTo(offset);
  if (side.destage().destage_cursor() > offset) {
    // Pages beyond the cut already went to flash and cannot be unwritten;
    // rolling the cursor back would break the sequence-chain law. Restart
    // the destage stream in a fresh epoch instead — recovery keeps only
    // the newest epoch, so the stale pages are ignored, and [0, offset)
    // re-destages under the new epoch stamp.
    side.destage().Reset(side.destage().epoch() + 1);
    side.cmb().set_destaged_floor(0);
  }
  side.destage().OnCreditAdvance(side.cmb().local_credit());
  side.transport().OnLocalCredit(side.cmb().local_credit());
}

void VillarsDevice::Reboot() {
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " reboot into epoch " +
                           std::to_string(epoch() + 1));
  }
  for (const auto& partition : partitions_) {
    partition->set_halted(false);
    partition->cmb().ResetForReboot();
    // The destage module restarts with a fresh cursor in the partition's
    // next epoch; the conventional side keeps all destaged pages (recovery
    // reads them).
    partition->destage().Reset(partition->destage().epoch() + 1);
  }
  // The scrubber survives the reboot (its per-block risk inputs live in
  // the flash array, which persists); only the tick needs re-arming.
  scrubber_->Start();
  // The transport modules survive the reboot (term fence, role, peers),
  // but their credit view must follow the reset CMB: a rebooted secondary
  // advertising its pre-crash counter would make the primary skip the
  // catch-up prefix during resync.
  for (const auto& partition : partitions_) {
    partition->transport().OnLocalCredit(partition->cmb().local_credit());
  }
}

}  // namespace xssd::core
