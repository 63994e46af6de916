#include "nvme/controller.h"

#include <cstring>

#include "common/logging.h"
#include "fault/fault_injector.h"

namespace xssd::nvme {

Controller::Controller(sim::Simulator* sim, pcie::PcieFabric* fabric,
                       ftl::Ftl* ftl, std::string name)
    : sim_(sim), fabric_(fabric), ftl_(ftl), name_(std::move(name)) {}

void Controller::SetMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  m_doorbells_ = registry->GetCounter(prefix + "nvme.doorbells");
  m_commands_ = registry->GetCounter(prefix + "nvme.commands");
  m_completions_ = registry->GetCounter(prefix + "nvme.completions");
  m_flushes_ = registry->GetCounter(prefix + "nvme.flushes");
  m_writes_ = registry->GetCounter(prefix + "nvme.writes");
  m_reads_ = registry->GetCounter(prefix + "nvme.reads");
  m_cmd_latency_us_ = registry->GetLatency(prefix + "nvme.cmd_latency_us");
}

Status Controller::ConfigureQueue(uint16_t qid, const QueueConfig& config) {
  if (qid >= kMaxQueues) return Status::InvalidArgument("queue id too large");
  if (config.entries == 0) return Status::InvalidArgument("empty queue");
  queues_[qid] = QueueState{};
  queues_[qid].config = config;
  return Status::OK();
}

void Controller::OnMmioWrite(uint64_t offset, const Bytes& data) {
  const size_t len = data.size();
  if (offset >= kDoorbellBase &&
      offset < kDoorbellBase + kMaxQueues * kDoorbellStride) {
    uint64_t rel = offset - kDoorbellBase;
    uint16_t qid = static_cast<uint16_t>(rel / kDoorbellStride);
    bool is_sq_tail = (rel % kDoorbellStride) < 4;
    uint32_t value = 0;
    std::memcpy(&value, data.data(), std::min<size_t>(len, 4));
    if (is_sq_tail) {
      OnDoorbell(qid, value);
    }
    // CQ head doorbells only free CQE slots; the model's queues are deep
    // enough that we track but do not throttle on them.
    return;
  }
  if (offset == kRegCc && len >= 4) {
    std::memcpy(&cc_, data.data(), 4);
    return;
  }
  // Other register writes (AQA/ASQ/ACQ) are accepted but queue setup goes
  // through ConfigureQueue() in this model.
}

void Controller::OnMmioRead(uint64_t offset, uint8_t* out, size_t len) {
  std::memset(out, 0, len);
  if (offset == kRegCap && len >= 8) {
    uint64_t cap = 0x1ull;  // minimal: MQES
    std::memcpy(out, &cap, std::min<size_t>(len, 8));
  } else if (offset == kRegCsts && len >= 4) {
    uint32_t csts = (cc_ & 1) ? 1u : 0u;  // RDY mirrors CC.EN
    std::memcpy(out, &csts, 4);
  }
}

void Controller::OnDoorbell(uint16_t qid, uint32_t value) {
  if (qid >= kMaxQueues || queues_[qid].config.entries == 0) {
    XSSD_LOG(kWarning) << name_ << ": doorbell for unconfigured queue "
                       << qid;
    return;
  }
  if (m_doorbells_) m_doorbells_->Add();
  QueueState& q = queues_[qid];
  q.sq_tail_shadow = static_cast<uint16_t>(value % q.config.entries);
  FetchNext(qid);
}

void Controller::FetchNext(uint16_t qid) {
  QueueState& q = queues_[qid];
  if (q.fetching || q.sq_head == q.sq_tail_shadow) return;
  q.fetching = true;
  uint64_t sqe_addr = q.config.sq_base + q.sq_head * kSqeBytes;
  // DMA-fetch the submission entry from host memory.
  fabric_->DmaFromHost(sqe_addr, kSqeBytes,
                       [this, qid](Bytes bytes) {
                         QueueState& queue = queues_[qid];
                         queue.fetching = false;
                         queue.sq_head = static_cast<uint16_t>(
                             (queue.sq_head + 1) % queue.config.entries);
                         Command cmd = DecodeCommand(bytes.data());
                         Execute(qid, cmd);
                         FetchNext(qid);  // pipeline further entries
                       });
}

void Controller::Execute(uint16_t qid, const Command& cmd) {
  if (m_commands_) m_commands_->Add();
  sim::SimTime started_at = sim_->Now();
  auto done = [this, qid, started_at](Completion cpl) {
    if (m_cmd_latency_us_) {
      m_cmd_latency_us_->Add(sim::ToUs(sim_->Now() - started_at));
    }
    PostCompletion(qid, cpl);
  };
  if (qid == 0) {
    ExecuteAdmin(qid, cmd, done);
    return;
  }
  if (injector_ != nullptr) {
    auto decision = injector_->InjectNvmeTimeout();
    if (decision.timeout) {
      // The command is swallowed and surfaces only as a late error
      // completion — the shape a host-side timeout + abort would take.
      Completion cpl;
      cpl.cid = cmd.cid;
      cpl.status = CmdStatus::kInternalError;
      sim_->Schedule(decision.delay,
                     [done = std::move(done), cpl]() { done(cpl); });
      return;
    }
  }
  ExecuteIo(qid, cmd, done);
}

void Controller::ExecuteIo(uint16_t qid, const Command& cmd,
                           std::function<void(Completion)> done) {
  (void)qid;
  Completion cpl;
  cpl.cid = cmd.cid;
  switch (static_cast<IoOpcode>(cmd.opcode)) {
    case IoOpcode::kFlush: {
      if (m_flushes_) m_flushes_->Add();
      ftl_->Flush([cpl, done = std::move(done)](Status status) mutable {
        cpl.status =
            status.ok() ? CmdStatus::kSuccess : CmdStatus::kInternalError;
        done(cpl);
      });
      return;
    }
    case IoOpcode::kWrite: {
      if (m_writes_) m_writes_->Add();
      uint64_t lba = cmd.slba();
      uint32_t blocks = cmd.nlb0() + 1;
      if (!InNamespace(lba, blocks)) {
        cpl.status = CmdStatus::kLbaOutOfRange;
        done(cpl);
        return;
      }
      // DMA the data in, then write page-per-LBA through the data buffer:
      // each block is a slice of the one DMA buffer.
      uint64_t bytes = static_cast<uint64_t>(blocks) * block_bytes();
      fabric_->DmaFromHost(
          cmd.prp1, bytes,
          [this, lba, blocks, cpl, done = std::move(done)](Bytes data) mutable {
            auto remaining = std::make_shared<uint32_t>(blocks);
            auto failed = std::make_shared<bool>(false);
            for (uint32_t i = 0; i < blocks; ++i) {
              ftl_->WriteBuffered(
                  lba + i,
                  data.Slice(static_cast<size_t>(i) * block_bytes(),
                             block_bytes()),
                  [remaining, failed, cpl, done](Status status) mutable {
                    if (!status.ok()) *failed = true;
                    if (--*remaining == 0) {
                      cpl.status = *failed ? CmdStatus::kMediaWriteFault
                                           : CmdStatus::kSuccess;
                      done(cpl);
                    }
                  });
            }
          });
      return;
    }
    case IoOpcode::kRead: {
      if (m_reads_) m_reads_->Add();
      uint64_t lba = cmd.slba();
      uint32_t blocks = cmd.nlb0() + 1;
      if (!InNamespace(lba, blocks)) {
        cpl.status = CmdStatus::kLbaOutOfRange;
        done(cpl);
        return;
      }
      auto buffer = std::make_shared<std::vector<uint8_t>>(
          static_cast<size_t>(blocks) * block_bytes());
      auto remaining = std::make_shared<uint32_t>(blocks);
      auto failed = std::make_shared<bool>(false);
      for (uint32_t i = 0; i < blocks; ++i) {
        ftl_->ReadPage(
            ftl::IoClass::kConventional, lba + i,
            [this, i, buffer, remaining, failed, cpl, prp = cmd.prp1,
             done](Status status, std::vector<uint8_t> page) mutable {
              if (!status.ok()) {
                *failed = true;
              } else {
                std::memcpy(buffer->data() +
                                static_cast<size_t>(i) * block_bytes(),
                            page.data(),
                            std::min<size_t>(page.size(), block_bytes()));
              }
              if (--*remaining == 0) {
                if (*failed) {
                  cpl.status = CmdStatus::kMediaUnrecoveredRead;
                  done(cpl);
                  return;
                }
                fabric_->DmaToHost(prp, buffer->data(), buffer->size(),
                                   [cpl, done]() mutable {
                                     cpl.status = CmdStatus::kSuccess;
                                     done(cpl);
                                   });
              }
            });
      }
      return;
    }
  }
  cpl.status = CmdStatus::kInvalidOpcode;
  done(cpl);
}

void Controller::ExecuteAdmin(uint16_t qid, const Command& cmd,
                              std::function<void(Completion)> done) {
  (void)qid;
  Completion cpl;
  cpl.cid = cmd.cid;
  if (cmd.opcode >= 0xC0) {
    if (vendor_) {
      Command copy = cmd;
      vendor_(copy, std::move(done));
      return;
    }
    cpl.status = CmdStatus::kInvalidOpcode;
    done(cpl);
    return;
  }
  switch (static_cast<AdminOpcode>(cmd.opcode)) {
    case AdminOpcode::kIdentify: {
      // Return namespace size in result (compact identify).
      cpl.result = static_cast<uint32_t>(namespace_blocks());
      cpl.status = CmdStatus::kSuccess;
      done(cpl);
      return;
    }
    default:
      break;
  }
  cpl.status = CmdStatus::kInvalidOpcode;
  done(cpl);
}

void Controller::PostCompletion(uint16_t qid, Completion cpl) {
  if (m_completions_) m_completions_->Add();
  QueueState& q = queues_[qid];
  cpl.sq_id = qid;
  cpl.sq_head = q.sq_head;
  cpl.phase = q.cq_phase;
  uint8_t cqe[kCqeBytes];
  EncodeCompletion(cpl, cqe);
  uint64_t cqe_addr = q.config.cq_base + q.cq_tail * kCqeBytes;
  q.cq_tail = static_cast<uint16_t>((q.cq_tail + 1) % q.config.entries);
  if (q.cq_tail == 0) q.cq_phase = !q.cq_phase;
  fabric_->DmaToHost(cqe_addr, cqe, kCqeBytes, [this, qid]() {
    if (interrupt_) interrupt_(qid);
  });
}

}  // namespace xssd::nvme
