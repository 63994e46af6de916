#ifndef XSSD_NVME_DRIVER_H_
#define XSSD_NVME_DRIVER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "nvme/command.h"
#include "nvme/controller.h"
#include "obs/span.h"
#include "pcie/fabric.h"

namespace xssd::nvme {

/// \brief Host-side NVMe driver: owns queue rings in host memory, rings
/// doorbells, consumes completions off interrupts.
///
/// The conventional-path costs a database pays — submission syscall,
/// doorbell MMIO, interrupt handling — are charged here. The x_* drop-in
/// API (host/) bypasses exactly these costs, which is the asymmetry the
/// paper's Figure 9 exposes.
class Driver {
 public:
  Driver(sim::Simulator* sim, pcie::PcieFabric* fabric,
         Controller* controller, uint64_t bar0_base);

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  /// Set up admin + one I/O queue pair and register the interrupt handler.
  /// Functional (models boot-time initialization).
  Status Initialize();

  /// Carve a buffer out of the host-memory image (bump allocation).
  uint64_t AllocHostBuffer(uint64_t bytes);

  // -- Asynchronous block I/O ----------------------------------------------

  using IoCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using AdminCallback = std::function<void(Completion)>;

  /// Write `blocks` logical blocks starting at `lba`. `data` must hold
  /// blocks * block_bytes() bytes; it is copied into a host DMA buffer.
  void Write(uint64_t lba, const uint8_t* data, uint32_t blocks,
             IoCallback done);

  void Read(uint64_t lba, uint32_t blocks, ReadCallback done);

  /// Durability barrier (NVMe Flush).
  void Flush(IoCallback done);

  /// Vendor/admin command on the admin queue.
  void Admin(Command cmd, AdminCallback done);

  uint32_t block_bytes() const { return controller_->block_bytes(); }
  uint64_t namespace_blocks() const { return controller_->namespace_blocks(); }

  /// Outstanding commands on the I/O queue.
  uint32_t inflight() const {
    return static_cast<uint32_t>(outstanding_.size());
  }

  /// Attach span tracing (nullptr detaches). Each I/O-queue read opens an
  /// nvme.read span (submission → completion delivered) under the ambient
  /// context.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

 private:
  struct Pending {
    std::function<void(Completion)> done;
    uint64_t read_buffer = 0;  // host address to collect read data from
    uint32_t read_bytes = 0;
  };

  /// Place the SQE in host memory, ring the doorbell.
  void Submit(uint16_t qid, Command cmd, Pending pending);
  void OnInterrupt(uint16_t qid);

  /// Reusable DMA buffers (size-class pooled over the bump arena).
  uint64_t AcquireBuffer(uint64_t bytes);
  void ReleaseBuffer(uint64_t addr, uint64_t bytes);

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  Controller* controller_;
  uint64_t bar0_base_;

  uint64_t bump_ = 0;       // host-memory bump allocator cursor
  uint64_t sq_base_[2] = {0, 0};
  uint64_t cq_base_[2] = {0, 0};
  uint16_t sq_tail_[2] = {0, 0};
  uint16_t cq_head_[2] = {0, 0};
  bool cq_phase_[2] = {true, true};
  uint16_t next_cid_ = 1;

  std::unordered_map<uint32_t, Pending> outstanding_;  // (qid<<16)|cid
  std::unordered_map<uint64_t, std::vector<uint64_t>> buffer_pool_;

  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;
};

}  // namespace xssd::nvme

#endif  // XSSD_NVME_DRIVER_H_
