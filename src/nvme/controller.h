#ifndef XSSD_NVME_CONTROLLER_H_
#define XSSD_NVME_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "ftl/ftl.h"
#include "nvme/command.h"
#include "obs/metrics.h"
#include "pcie/fabric.h"
#include "sim/simulator.h"

namespace xssd::fault {
class FaultInjector;
}  // namespace xssd::fault

namespace xssd::nvme {

/// BAR0 register offsets (subset of the spec layout).
inline constexpr uint64_t kRegCap = 0x00;
inline constexpr uint64_t kRegCc = 0x14;
inline constexpr uint64_t kRegCsts = 0x1C;
inline constexpr uint64_t kRegAqa = 0x24;
inline constexpr uint64_t kRegAsq = 0x28;
inline constexpr uint64_t kRegAcq = 0x30;
inline constexpr uint64_t kDoorbellBase = 0x1000;
inline constexpr uint64_t kDoorbellStride = 8;  // SQ tail at +0, CQ head at +4
inline constexpr uint64_t kBar0Bytes = 0x2000;
inline constexpr uint32_t kMaxQueues = 4;  // admin + 3 I/O queues

/// Queue registration supplied by the host driver during setup.
struct QueueConfig {
  uint64_t sq_base = 0;  ///< host memory address of the SQ ring
  uint64_t cq_base = 0;
  uint16_t entries = 64;
};

/// \brief The Host Interface Controller of Figure 2: fetches SQEs over DMA,
/// executes NVM commands against the FTL, posts CQEs, raises interrupts.
///
/// The controller is an MmioDevice mapped at BAR0. Doorbell writes trigger
/// command fetches; admin vendor-specific commands are forwarded to a hook
/// so the Villars device can layer its extensions without subclassing.
class Controller : public pcie::MmioDevice {
 public:
  using InterruptHandler = std::function<void(uint16_t queue_id)>;
  using VendorHandler =
      std::function<void(const Command&, std::function<void(Completion)>)>;

  Controller(sim::Simulator* sim, pcie::PcieFabric* fabric, ftl::Ftl* ftl,
             std::string name);

  /// Logical-block size exposed by the namespace. Matches the FTL page so
  /// one LBA == one flash page (16 KiB by default, the paper's group-commit
  /// unit).
  uint32_t block_bytes() const { return ftl_->page_bytes(); }
  uint64_t namespace_blocks() const { return ftl_->lpn_count(); }

  /// Host driver setup (functional, untimed — models the boot-time init).
  Status ConfigureQueue(uint16_t qid, const QueueConfig& config);
  void SetInterruptHandler(InterruptHandler handler) {
    interrupt_ = std::move(handler);
  }
  void SetVendorHandler(VendorHandler handler) {
    vendor_ = std::move(handler);
  }

  // pcie::MmioDevice
  void OnMmioWrite(uint64_t offset, const Bytes& data) override;
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override;

  ftl::Ftl* ftl() { return ftl_; }
  const std::string& name() const { return name_; }

  /// Register this controller's metrics under `prefix` + "nvme.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach a fault injector (nullptr detaches). Affects I/O queues only;
  /// admin commands are exempt so setup/recovery tooling stays usable.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

 private:
  struct QueueState {
    QueueConfig config;
    uint16_t sq_tail_shadow = 0;  // last doorbell value written by host
    uint16_t sq_head = 0;         // controller consumption point
    uint16_t cq_tail = 0;
    bool cq_phase = true;
    bool fetching = false;
  };

  /// [lba, lba + blocks) lies in the namespace. Written so that an slba
  /// near 2^64 from the host cannot wrap past the check.
  bool InNamespace(uint64_t lba, uint64_t blocks) const {
    return lba < namespace_blocks() && blocks <= namespace_blocks() - lba;
  }

  void OnDoorbell(uint16_t qid, uint32_t value);
  /// Fetch and launch the next command if the SQ is non-empty.
  void FetchNext(uint16_t qid);
  void Execute(uint16_t qid, const Command& cmd);
  void ExecuteIo(uint16_t qid, const Command& cmd,
                 std::function<void(Completion)> done);
  void ExecuteAdmin(uint16_t qid, const Command& cmd,
                    std::function<void(Completion)> done);
  void PostCompletion(uint16_t qid, Completion cpl);

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  ftl::Ftl* ftl_;
  std::string name_;
  fault::FaultInjector* injector_ = nullptr;

  QueueState queues_[kMaxQueues];
  InterruptHandler interrupt_;
  VendorHandler vendor_;
  uint32_t cc_ = 0;  // controller configuration register

  // Observability (null until SetMetrics).
  obs::Counter* m_doorbells_ = nullptr;
  obs::Counter* m_commands_ = nullptr;
  obs::Counter* m_completions_ = nullptr;
  obs::Counter* m_flushes_ = nullptr;
  obs::Counter* m_writes_ = nullptr;
  obs::Counter* m_reads_ = nullptr;
  obs::LatencyRecorder* m_cmd_latency_us_ = nullptr;
};

}  // namespace xssd::nvme

#endif  // XSSD_NVME_CONTROLLER_H_
