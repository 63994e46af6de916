#include "core/villars_device.h"

#include <cstring>

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
  cmb_ = std::make_unique<CmbModule>(sim_, config_.cmb);
  destage_ = std::make_unique<DestageModule>(sim_, ftl_.get(), cmb_.get(),
                                             config_.destage, epoch_);
  transport_ =
      std::make_unique<TransportModule>(sim_, fabric_, config_.transport);
  transport_->set_ring_bytes(config_.cmb.ring_bytes);
  WireHooks();
}

VillarsDevice::~VillarsDevice() = default;

void VillarsDevice::WireHooks() {
  cmb_->SetCreditHook([this](uint64_t credit) {
    destage_->OnCreditAdvance(credit);
    transport_->OnLocalCredit(credit);
  });
  cmb_->SetArrivalHook(
      [this](uint64_t stream_offset, const uint8_t* data, size_t len) {
        transport_->OnCmbArrival(stream_offset, data, len);
      });
  transport_->SetRingReader(
      [this](uint64_t stream_offset, uint8_t* out, size_t len) {
        cmb_->CopyOut(stream_offset, out, len);
      });
  controller_->SetVendorHandler(
      [this](const nvme::Command& cmd,
             std::function<void(nvme::Completion)> done) {
        HandleVendorAdmin(cmd, std::move(done));
      });
}

void VillarsDevice::EnableMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  metrics_registry_ = registry;
  metrics_prefix_ = prefix;
  array_->SetMetrics(registry, prefix);
  ftl_->SetMetrics(registry, prefix);
  scrubber_->SetMetrics(registry, prefix);
  controller_->SetMetrics(registry, prefix);
  cmb_->SetMetrics(registry, prefix);
  destage_->SetMetrics(registry, prefix);
  transport_->SetMetrics(registry, prefix);
}

void VillarsDevice::EnableSpans(obs::SpanRecorder* spans,
                                const std::string& node_tag) {
  spans_ = spans;
  span_node_tag_ = node_tag;
  cmb_->SetSpans(spans, node_tag);
  destage_->SetSpans(spans, node_tag);
  transport_->SetSpans(spans, node_tag);
  ftl_->SetSpans(spans, node_tag);
}

void VillarsDevice::EnableFlightRecorder(obs::FlightRecorder* recorder) {
  flightrec_ = recorder;
  ftl_->SetFlightRecorder(recorder, name_);
  destage_->SetFlightRecorder(recorder, name_);
  transport_->SetFlightRecorder(recorder, name_);
}

void VillarsDevice::ArmFaults(fault::FaultInjector* injector,
                              bool install_crash_handler) {
  injector_ = injector;
  array_->set_fault_injector(injector);
  controller_->set_fault_injector(injector);
  cmb_->SetFaultInjector(injector, name_ + "/");
  destage_->SetFaultInjector(injector, name_ + "/");
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
  XSSD_RETURN_IF_ERROR(fabric_->AddMmioRegion(cmb_base, cmb_bar_bytes(), this,
                                              name_ + "/cmb"));
  bar0_base_ = bar0_base;
  cmb_base_ = cmb_base;
  return Status::OK();
}

void VillarsDevice::OnMmioWrite(uint64_t offset, const uint8_t* data,
                                size_t len) {
  if (halted_) return;
  if (offset >= kRingWindowOffset) {
    // Ring region: the direct host window first, then one intake alias per
    // peer slot (same ring, but writes are attributed to a member slot and
    // term-fenced — a deposed primary's stale pushes die here).
    uint64_t rel = offset - kRingWindowOffset;
    uint64_t window = rel / config_.cmb.ring_bytes;
    uint64_t ring_offset = rel % config_.cmb.ring_bytes;
    if (window > 0 &&
        !transport_->AdmitRingWrite(static_cast<uint32_t>(window - 1))) {
      return;
    }
    cmb_->OnRingWrite(ring_offset, data, len);
    return;
  }
  // Control-page writes.
  if (offset >= kRegShadowBase &&
      offset + len <= kRegShadowBase + 8 * kMaxPeers && len == 8) {
    uint64_t value = 0;
    std::memcpy(&value, data, 8);
    uint32_t index = static_cast<uint32_t>((offset - kRegShadowBase) / 8);
    transport_->OnShadowWrite(index, value);
    return;
  }
  if (offset == kRegDestageBarrier && len == 8) {
    uint64_t value = 0;
    std::memcpy(&value, data, 8);
    destage_->SetBarrier(value);
    return;
  }
  XSSD_LOG(kDebug) << name_ << ": ignored control write at offset "
                   << offset;
}

uint64_t VillarsDevice::ReadRegister(uint64_t offset) const {
  switch (offset) {
    case kRegCredit:
      return transport_->EffectiveCredit(cmb_->local_credit());
    case kRegLocalCredit:
      return cmb_->local_credit();
    case kRegQueueBytes:
      return cmb_->queue_bytes();
    case kRegRingBytes:
      return cmb_->ring_bytes();
    case kRegDestaged:
      return destage_->destaged();
    case kRegDestageStartLba:
      return destage_->ring_start_lba();
    case kRegDestageLbaCount:
      return destage_->ring_lba_count();
    case kRegTransportStatus: {
      uint64_t word = transport_->StatusWord(cmb_->local_credit());
      if (halted_) word |= StatusBits::kHalted;
      return word;
    }
    case kRegDestageBarrier:
      return destage_->barrier();
    case kRegEpoch:
      return epoch_;
    case kRegTerm:
      return transport_->term();
    case kRegFencedWrites:
      return transport_->fenced_writes();
    default:
      if (offset >= kRegShadowBase && offset < kRegShadowBase + 8 * kMaxPeers) {
        return transport_->shadow_counter(
            static_cast<uint32_t>((offset - kRegShadowBase) / 8));
      }
      if (offset >= kRegWriterTermBase &&
          offset < kRegWriterTermBase + 8 * kMaxPeers) {
        return transport_->writer_term(
            static_cast<uint32_t>((offset - kRegWriterTermBase) / 8));
      }
      return 0;
  }
}

void VillarsDevice::OnMmioRead(uint64_t offset, uint8_t* out, size_t len) {
  if (offset >= kRingWindowOffset) {
    if (halted_) {
      std::memset(out, 0, len);
      return;
    }
    cmb_->ReadRing((offset - kRingWindowOffset) % config_.cmb.ring_bytes, out,
                   len);
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

void VillarsDevice::HandleVendorAdmin(
    const nvme::Command& cmd, std::function<void(nvme::Completion)> done) {
  nvme::Completion cpl;
  cpl.cid = cmd.cid;
  cpl.status = nvme::CmdStatus::kSuccess;
  if (halted_) {
    // A halted device answers nothing; the error completion models the
    // driver-side timeout a dead peer would produce mid-setup.
    cpl.status = nvme::CmdStatus::kInternalError;
    done(cpl);
    return;
  }
  switch (static_cast<nvme::AdminOpcode>(cmd.opcode)) {
    case nvme::AdminOpcode::kXssdSetRole: {
      if (cmd.cdw10 > static_cast<uint32_t>(Role::kSecondary)) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_->SetRole(static_cast<Role>(cmd.cdw10));
      // cdw11/cdw12: secondary's shadow mailbox address through NTB
      // (64-bit split across the dwords).
      if (static_cast<Role>(cmd.cdw10) == Role::kSecondary) {
        uint64_t addr =
            (static_cast<uint64_t>(cmd.cdw12) << 32) | cmd.cdw11;
        transport_->ConfigureSecondary(addr);
      }
      break;
    }
    case nvme::AdminOpcode::kXssdAddPeer: {
      uint64_t addr = (static_cast<uint64_t>(cmd.cdw12) << 32) | cmd.cdw11;
      Status status = transport_->AddPeerAt(cmd.cdw10, addr);
      if (!status.ok()) cpl.status = nvme::CmdStatus::kInvalidField;
      break;
    }
    case nvme::AdminOpcode::kXssdRemovePeer: {
      Status status = transport_->RemovePeer(cmd.cdw10);
      if (!status.ok()) cpl.status = nvme::CmdStatus::kInvalidField;
      break;
    }
    case nvme::AdminOpcode::kXssdClearPeers:
      transport_->ClearPeers();
      break;
    case nvme::AdminOpcode::kXssdSetTerm: {
      if (cmd.cdw11 >= kMaxPeers) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_->SetTerm(cmd.cdw10, cmd.cdw11);
      break;
    }
    case nvme::AdminOpcode::kXssdTruncate: {
      uint64_t cut = (static_cast<uint64_t>(cmd.cdw11) << 32) | cmd.cdw10;
      TruncateLog(cut);
      break;
    }
    case nvme::AdminOpcode::kXssdSetUpdatePeriod:
      transport_->set_update_period(sim::Ns(cmd.cdw10));
      break;
    case nvme::AdminOpcode::kXssdSetDestagePolicy: {
      if (cmd.cdw10 >
          static_cast<uint32_t>(ftl::SchedulingPolicy::kConventionalPriority)) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      ftl_->scheduler().set_policy(
          static_cast<ftl::SchedulingPolicy>(cmd.cdw10));
      break;
    }
    case nvme::AdminOpcode::kXssdSetReplication: {
      if (cmd.cdw10 > static_cast<uint32_t>(ReplicationProtocol::kChain)) {
        cpl.status = nvme::CmdStatus::kInvalidField;
        break;
      }
      transport_->set_protocol(static_cast<ReplicationProtocol>(cmd.cdw10));
      break;
    }
    case nvme::AdminOpcode::kXssdGetLogRing:
      cpl.result = static_cast<uint32_t>(destage_->next_sequence());
      break;
    default:
      cpl.status = nvme::CmdStatus::kInvalidOpcode;
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
  halted_ = true;  // reject further host traffic immediately
  scrubber_->Stop();
  // Freeze the background pump first so the emergency destage (below)
  // accounts every page against the supercap energy budget.
  destage_->set_frozen(true);
  cmb_->DrainStagingForPowerLoss();
  destage_->DestageAllForPowerLoss(config_.power.supercap_page_budget,
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
  halted_ = true;
  scrubber_->Stop();
  // Order matters: halt the destage pipeline (cancelling any backed-off
  // write retries) before dropping staged chunks, so nothing schedules new
  // flash traffic against the dead device.
  destage_->HaltForCrash();
  cmb_->AbandonStagingForCrash();
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
  cmb_->TruncateTo(offset);
  if (destage_->destage_cursor() > offset) {
    // Pages beyond the cut already went to flash and cannot be unwritten;
    // rolling the cursor back would break the sequence-chain law. Restart
    // the destage stream in a fresh epoch instead — recovery keeps only
    // the newest epoch, so the stale pages are ignored, and [0, offset)
    // re-destages under the new epoch stamp.
    ++epoch_;
    retired_destage_.push_back(std::move(destage_));
    destage_ = std::make_unique<DestageModule>(sim_, ftl_.get(), cmb_.get(),
                                               config_.destage, epoch_);
    if (metrics_registry_ != nullptr) {
      destage_->SetMetrics(metrics_registry_, metrics_prefix_);
    }
    if (injector_ != nullptr) {
      destage_->SetFaultInjector(injector_, name_ + "/");
    }
    if (spans_ != nullptr) {
      destage_->SetSpans(spans_, span_node_tag_);
    }
    if (flightrec_ != nullptr) {
      destage_->SetFlightRecorder(flightrec_, name_);
    }
    cmb_->set_destaged_floor(0);
    WireHooks();
  }
  destage_->OnCreditAdvance(cmb_->local_credit());
  transport_->OnLocalCredit(cmb_->local_credit());
}

void VillarsDevice::Reboot() {
  if (flightrec_ != nullptr) {
    flightrec_->Record(sim_->Now(), "device",
                       name_ + " reboot into epoch " +
                           std::to_string(epoch_ + 1));
  }
  ++epoch_;
  halted_ = false;
  cmb_->ResetForReboot();
  // The destage module restarts with a fresh cursor in the new epoch; the
  // conventional side keeps all destaged pages (recovery reads them).
  retired_destage_.push_back(std::move(destage_));
  destage_ = std::make_unique<DestageModule>(sim_, ftl_.get(), cmb_.get(),
                                             config_.destage, epoch_);
  if (metrics_registry_ != nullptr) {
    destage_->SetMetrics(metrics_registry_, metrics_prefix_);
  }
  if (injector_ != nullptr) {
    destage_->SetFaultInjector(injector_, name_ + "/");
  }
  if (spans_ != nullptr) {
    destage_->SetSpans(spans_, span_node_tag_);
  }
  if (flightrec_ != nullptr) {
    destage_->SetFlightRecorder(flightrec_, name_);
  }
  // Advance the destage ring cursor past the previous epoch's pages so new
  // destages do not immediately overwrite recovery data. Recovery tooling
  // reads the ring before writing resumes.
  WireHooks();
  // The scrubber survives the reboot (its per-block risk inputs live in
  // the flash array, which persists); only the tick needs re-arming.
  scrubber_->Start();
  // The transport module survives the reboot (term fence, role, peers),
  // but its credit view must follow the reset CMB: a rebooted secondary
  // advertising its pre-crash counter would make the primary skip the
  // catch-up prefix during resync.
  transport_->OnLocalCredit(cmb_->local_credit());
}

}  // namespace xssd::core
