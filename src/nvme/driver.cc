#include "nvme/driver.h"

#include <cstring>

#include "common/logging.h"

namespace xssd::nvme {

constexpr uint16_t kQueueEntries = 256;
/// CPU cost of an I/O submission syscall (pwrite into the kernel).
constexpr sim::SimTime kSubmitOverhead = sim::Us(2);
/// CPU cost of interrupt + completion processing.
constexpr sim::SimTime kCompletionOverhead = sim::Us(3);

Driver::Driver(sim::Simulator* sim, pcie::PcieFabric* fabric,
               Controller* controller, uint64_t bar0_base)
    : sim_(sim),
      fabric_(fabric),
      controller_(controller),
      bar0_base_(bar0_base) {}

void Driver::SetSpans(obs::SpanRecorder* spans, const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
}

uint64_t Driver::AllocHostBuffer(uint64_t bytes) {
  // 64-byte align every allocation.
  bump_ = (bump_ + 63) & ~63ull;
  XSSD_CHECK(bump_ + bytes <= pcie::kHostMemoryBytes);
  uint64_t addr = bump_;
  bump_ += bytes;
  return addr;
}

Status Driver::Initialize() {
  for (int q = 0; q < 2; ++q) {
    sq_base_[q] = AllocHostBuffer(kQueueEntries * kSqeBytes);
    cq_base_[q] = AllocHostBuffer(kQueueEntries * kCqeBytes);
    QueueConfig config;
    config.sq_base = sq_base_[q];
    config.cq_base = cq_base_[q];
    config.entries = kQueueEntries;
    XSSD_RETURN_IF_ERROR(
        controller_->ConfigureQueue(static_cast<uint16_t>(q), config));
  }
  controller_->SetInterruptHandler(
      [this](uint16_t qid) { OnInterrupt(qid); });
  return Status::OK();
}

void Driver::Submit(uint16_t qid, Command cmd, Pending pending) {
  XSSD_CHECK(qid < 2);
  cmd.cid = next_cid_++;
  if (next_cid_ == 0) next_cid_ = 1;
  uint32_t key = (static_cast<uint32_t>(qid) << 16) | cmd.cid;
  outstanding_.emplace(key, std::move(pending));

  // The host CPU writes the SQE into its own memory (functional) and rings
  // the doorbell after the submission-path overhead.
  uint8_t sqe[kSqeBytes];
  EncodeCommand(cmd, sqe);
  std::memcpy(fabric_->host_memory() + sq_base_[qid] +
                  sq_tail_[qid] * kSqeBytes,
              sqe, kSqeBytes);
  sq_tail_[qid] = static_cast<uint16_t>((sq_tail_[qid] + 1) % kQueueEntries);
  uint32_t tail = sq_tail_[qid];

  sim_->Schedule(kSubmitOverhead, [this, qid, tail]() {
    uint64_t db = bar0_base_ + kDoorbellBase + qid * kDoorbellStride;
    uint8_t value[4];
    std::memcpy(value, &tail, 4);
    fabric_->HostWrite(db, Bytes::Copy(value, 4), 4);
  });
}

void Driver::OnInterrupt(uint16_t qid) {
  XSSD_CHECK(qid < 2);
  // Drain all new completions; each costs the completion-path overhead.
  while (true) {
    const uint8_t* cqe = fabric_->host_memory() + cq_base_[qid] +
                         cq_head_[qid] * kCqeBytes;
    Completion cpl = DecodeCompletion(cqe);
    if (cpl.phase != cq_phase_[qid]) break;  // no new entry
    cq_head_[qid] = static_cast<uint16_t>((cq_head_[qid] + 1) % kQueueEntries);
    if (cq_head_[qid] == 0) cq_phase_[qid] = !cq_phase_[qid];

    uint32_t key = (static_cast<uint32_t>(qid) << 16) | cpl.cid;
    auto it = outstanding_.find(key);
    if (it == outstanding_.end()) {
      XSSD_LOG(kWarning) << "completion for unknown cid " << cpl.cid;
      continue;
    }
    Pending pending = std::move(it->second);
    outstanding_.erase(it);
    sim_->Schedule(kCompletionOverhead,
                   [cpl, pending = std::move(pending)]() mutable {
                     pending.done(cpl);
                   });
  }
}

uint64_t Driver::AcquireBuffer(uint64_t bytes) {
  auto& pool = buffer_pool_[bytes];
  if (!pool.empty()) {
    uint64_t addr = pool.back();
    pool.pop_back();
    return addr;
  }
  return AllocHostBuffer(bytes);
}

void Driver::ReleaseBuffer(uint64_t addr, uint64_t bytes) {
  buffer_pool_[bytes].push_back(addr);
}

void Driver::Write(uint64_t lba, const uint8_t* data, uint32_t blocks,
                   IoCallback done) {
  uint64_t bytes = static_cast<uint64_t>(blocks) * block_bytes();
  uint64_t buf = AcquireBuffer(bytes);
  std::memcpy(fabric_->host_memory() + buf, data, bytes);

  Command cmd;
  cmd.opcode = static_cast<uint8_t>(IoOpcode::kWrite);
  cmd.prp1 = buf;
  cmd.set_slba(lba);
  cmd.set_nlb(blocks);

  Pending pending;
  pending.done = [this, buf, bytes, done = std::move(done)](Completion cpl) {
    ReleaseBuffer(buf, bytes);
    done(cpl.ok() ? Status::OK()
                  : Status::IoError("NVMe write failed"));
  };
  Submit(1, cmd, std::move(pending));
}

void Driver::Read(uint64_t lba, uint32_t blocks, ReadCallback done) {
  uint64_t bytes = static_cast<uint64_t>(blocks) * block_bytes();
  uint64_t buf = AcquireBuffer(bytes);

  Command cmd;
  cmd.opcode = static_cast<uint8_t>(IoOpcode::kRead);
  cmd.prp1 = buf;
  cmd.set_slba(lba);
  cmd.set_nlb(blocks);

  // Span covers the whole command round trip: submission syscall, doorbell,
  // device work, interrupt, completion processing.
  obs::SpanContext read_span;
  if (spans_) {
    read_span = spans_->StartSpan(obs::Stage::kNvmeRead, span_node_,
                                  spans_->current());
  }

  Pending pending;
  pending.read_buffer = buf;
  pending.read_bytes = static_cast<uint32_t>(bytes);
  pending.done = [this, buf, bytes, read_span,
                  done = std::move(done)](Completion cpl) {
    if (spans_) spans_->EndSpan(read_span);
    if (!cpl.ok()) {
      ReleaseBuffer(buf, bytes);
      // Preserve the media-error class: an uncorrectable read is the HA
      // client's cue to re-fetch from a replica, unlike a plain IO error.
      done(cpl.status == CmdStatus::kMediaUnrecoveredRead
               ? Status::Corruption("NVMe read: unrecovered media error")
               : Status::IoError("NVMe read failed"),
           {});
      return;
    }
    std::vector<uint8_t> data(fabric_->host_memory() + buf,
                              fabric_->host_memory() + buf + bytes);
    ReleaseBuffer(buf, bytes);
    done(Status::OK(), std::move(data));
  };
  Submit(1, cmd, std::move(pending));
}

void Driver::Flush(IoCallback done) {
  Command cmd;
  cmd.opcode = static_cast<uint8_t>(IoOpcode::kFlush);
  Pending pending;
  pending.done = [done = std::move(done)](Completion cpl) {
    done(cpl.ok() ? Status::OK() : Status::IoError("NVMe flush failed"));
  };
  Submit(1, cmd, std::move(pending));
}

void Driver::Admin(Command cmd, AdminCallback done) {
  Pending pending;
  pending.done = std::move(done);
  Submit(0, cmd, std::move(pending));
}

}  // namespace xssd::nvme
