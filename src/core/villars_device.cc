#include "core/villars_device.h"

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "obs/flightrec.h"
#include "fault/fault_plan.h"

namespace xssd::core {

VillarsDevice::VillarsDevice(sim::Simulator* sim, pcie::PcieFabric* fabric,
                             const VillarsConfig& config, std::string name)
    : sim_(sim), fabric_(fabric), config_(config), name_(std::move(name)) {
  array_ = std::make_unique<flash::Array>(sim_, config_.geometry,
                                          config_.flash_timing,
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
  fast_side_ = std::make_unique<FastSide>(sim_, fabric_, ftl_.get(),
                                          config_.cmb, config_.destage,
                                          config_.transport, name_);
}

VillarsDevice::~VillarsDevice() = default;

void VillarsDevice::EnableMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  array_->SetMetrics(registry, prefix);
  ftl_->SetMetrics(registry, prefix);
  scrubber_->SetMetrics(registry, prefix);
  controller_->SetMetrics(registry, prefix);
  cmb().SetMetrics(registry, prefix);
  destage().SetMetrics(registry, prefix);
  transport().SetMetrics(registry, prefix);
}

void VillarsDevice::EnableSpans(obs::SpanRecorder* spans,
                                const std::string& node_tag) {
  cmb().SetSpans(spans, node_tag);
  destage().SetSpans(spans, node_tag);
  transport().SetSpans(spans, node_tag);
  ftl_->SetSpans(spans, node_tag);
}

void VillarsDevice::EnableFlightRecorder(obs::FlightRecorder* recorder) {
  flightrec_ = recorder;
  ftl_->SetFlightRecorder(recorder, name_);
  destage().SetFlightRecorder(recorder, name_);
  transport().SetFlightRecorder(recorder, name_);
}

void VillarsDevice::ArmFaults(fault::FaultInjector* injector,
                              bool install_crash_handler) {
  array_->set_fault_injector(injector);
  controller_->set_fault_injector(injector);
  cmb().SetFaultInjector(injector, name_ + "/");
  destage().SetFaultInjector(injector, name_ + "/");
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
  XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(
      cmb_base, cmb_bar_bytes(), fast_side_.get(), name_ + "/cmb"));
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
  switch (static_cast<nvme::AdminOpcode>(cmd.opcode)) {
    case nvme::AdminOpcode::kXssdSetDestagePolicy:
      cpl.status = SetDestagePolicy(*ftl_, cmd.cdw10);
      break;
    case nvme::AdminOpcode::kXssdTruncate:
      TruncateLog((static_cast<uint64_t>(cmd.cdw11) << 32) | cmd.cdw10);
      break;
    default:
      fast_side_->HandleAdmin(cmd, &cpl);
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
  fast_side_->set_halted(true);  // reject further host traffic immediately
  scrubber_->Stop();
  // Freeze the background pump first so the emergency destage (below)
  // accounts every page against the supercap energy budget.
  destage().set_frozen(true);
  cmb().DrainStagingForPowerLoss();
  destage().DestageAllForPowerLoss(config_.power.supercap_page_budget,
                                   std::move(done));
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
  fast_side_->set_halted(true);
  scrubber_->Stop();
  // Order matters: halt the destage pipeline (cancelling any backed-off
  // write retries) before dropping staged chunks, so nothing schedules new
  // flash traffic against the dead device.
  destage().HaltForCrash();
  cmb().AbandonStagingForCrash();
  if (flightrec_ != nullptr) {
    flightrec_->AutoDump(name_ + " hard crash");
  }
}

void VillarsDevice::TruncateLog(uint64_t offset) {
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " log truncate to offset " +
                           std::to_string(offset));
  }
  cmb().TruncateTo(offset);
  if (destage().destage_cursor() > offset) {
    // Pages beyond the cut already went to flash and cannot be unwritten;
    // rolling the cursor back would break the sequence-chain law. Restart
    // the destage stream in a fresh epoch instead — recovery keeps only
    // the newest epoch, so the stale pages are ignored, and [0, offset)
    // re-destages under the new epoch stamp.
    destage().Reset(epoch() + 1);
    cmb().set_destaged_floor(0);
  }
  destage().OnCreditAdvance(cmb().local_credit());
  transport().OnLocalCredit(cmb().local_credit());
}

void VillarsDevice::Reboot() {
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " reboot into epoch " +
                           std::to_string(epoch() + 1));
  }
  fast_side_->set_halted(false);
  cmb().ResetForReboot();
  // The destage module restarts with a fresh cursor in the new epoch; the
  // conventional side keeps all destaged pages (recovery reads them).
  destage().Reset(epoch() + 1);
  // The scrubber survives the reboot (its per-block risk inputs live in
  // the flash array, which persists); only the tick needs re-arming.
  scrubber_->Start();
  // The transport module survives the reboot (term fence, role, peers),
  // but its credit view must follow the reset CMB: a rebooted secondary
  // advertising its pre-crash counter would make the primary skip the
  // catch-up prefix during resync.
  transport().OnLocalCredit(cmb().local_credit());
}

}  // namespace xssd::core
