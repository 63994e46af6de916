#ifndef XSSD_FTL_SCHEDULER_H_
#define XSSD_FTL_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "flash/array.h"
#include "ftl/slot_table.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace xssd::ftl {

/// Source class of a flash operation. Conventional traffic comes from the
/// block interface / data buffer; destage traffic is the fast side's ring
/// being moved into NAND (paper §4.3).
enum class IoClass {
  kConventional = 0,
  kDestage = 1,
};

/// Destage scheduling modes (paper §4.3): Neutral serves the two classes
/// in arrival order (a traditional device); the priority modes implement
/// *Opportunistic Destaging* — low-priority requests are only placed in
/// the "gaps" where a channel has nothing schedulable from the
/// high-priority class.
enum class SchedulingPolicy {
  kNeutral = 0,
  kDestagePriority = 1,
  kConventionalPriority = 2,
};

const char* SchedulingPolicyName(SchedulingPolicy policy);

/// \brief Low-level channel scheduler: the only component that talks to
/// the flash array. It arbitrates the per-channel bus — the contended
/// resource on a write-heavy device — and respects die busy times, so a
/// page transfer for one die overlaps another die's program.
///
/// Implementing the Villars priorities here and nowhere else mirrors the
/// paper's claim that "other than in the scheduler, practically no
/// additional change is necessary to the Storage Controller".
class Scheduler {
 public:
  Scheduler(sim::Simulator* sim, flash::Array* array,
            SchedulingPolicy policy = SchedulingPolicy::kNeutral);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  void set_policy(SchedulingPolicy policy) { policy_ = policy; }
  SchedulingPolicy policy() const { return policy_; }

  /// Enqueue operations; completion callbacks fire when the array finishes.
  /// `oob` rides along with the page data and is stored in the spare area.
  void Program(IoClass io_class, const flash::Address& addr, Bytes data,
               const flash::Oob& oob, flash::Array::ProgramCallback done);
  void Read(IoClass io_class, const flash::Address& addr,
            flash::Array::ReadCallback done);
  void Erase(IoClass io_class, const flash::Address& addr,
             flash::Array::EraseCallback done);

  /// Operations admitted but not yet completed.
  uint64_t inflight() const { return inflight_; }
  uint64_t queued(IoClass io_class) const {
    return queued_[static_cast<int>(io_class)];
  }

  /// Bytes completed per class (the bandwidth accounting of Figure 12).
  uint64_t completed_bytes(IoClass io_class) const {
    return completed_bytes_[static_cast<int>(io_class)];
  }

  /// Cumulative queue-wait (enqueue → issue) per class, in sim ns. The
  /// per-class skew is the channel-contention signal: GC relocation
  /// traffic rides the conventional queue, so a GC storm shows up as
  /// destage wait growing while conventional stays flat (or vice versa,
  /// depending on policy).
  uint64_t wait_ns(IoClass io_class) const {
    return wait_ns_[static_cast<int>(io_class)];
  }
  uint64_t issued(IoClass io_class) const {
    return issued_[static_cast<int>(io_class)];
  }
  void ResetStats() {
    completed_bytes_[0] = completed_bytes_[1] = 0;
    wait_ns_[0] = wait_ns_[1] = 0;
    issued_[0] = issued_[1] = 0;
  }

  /// Register this scheduler's metrics under `prefix` + "ftl.sched.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

 private:
  enum class OpKind : uint8_t { kProgram, kRead, kErase };
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// One flash operation from Enqueue until its completion returns. A
  /// queued op waits in its (class, die) FIFO, linked through `next`; an
  /// issued one keeps only its completion here.
  struct Op {
    OpKind kind = OpKind::kProgram;
    IoClass io_class = IoClass::kConventional;
    flash::Address addr;
    uint64_t seq = 0;           ///< global arrival order (Neutral policy)
    sim::SimTime enqueued = 0;  ///< arrival time, for wait accounting
    uint32_t next = kNoSlot;    ///< later op of the same (class, die) FIFO
    Bytes data;                 ///< the page a program writes
    flash::Oob oob;
    flash::Array::ProgramCallback done;  ///< a program's or erase's
    flash::Array::ReadCallback read_done;
  };
  /// Slot ids of one (class, die) pair's queued ops, oldest first.
  struct Fifo {
    uint32_t head = kNoSlot;
    uint32_t tail = kNoSlot;
  };
  struct ChannelState {
    std::vector<Fifo> fifos[2];  // [IoClass][die within the channel]
    bool bus_busy = false;
  };

  void Enqueue(Op&& op);

  /// Issue as much as the channel allows right now.
  void Dispatch(uint32_t channel);

  /// The die whose `io_class` FIFO head arrived first among the dies that
  /// can start now, or -1. Each FIFO is in arrival order, so that head is
  /// the first op of the class, in arrival order, whose die is idle.
  int EarliestIdleHead(uint32_t channel, int io_class) const;
  uint64_t HeadSeq(uint32_t channel, int io_class, int die) const {
    return ops_[channels_[channel].fifos[io_class][die].head].seq;
  }

  /// Pop the head of (io_class, die)'s FIFO and start it on the array; a
  /// program holds the channel bus until its transfer ends.
  void Issue(uint32_t channel, int io_class, int die);

  /// The array finished the op in `slot`: account for it, refill the
  /// channel, then hand `status` (and a read's page) to the caller.
  void Complete(uint32_t slot, const Status& status, Bytes data);

  sim::Simulator* sim_;
  flash::Array* array_;
  SchedulingPolicy policy_;
  std::vector<ChannelState> channels_;
  SlotTable<Op> ops_;
  uint64_t next_seq_ = 0;
  uint64_t inflight_ = 0;
  uint64_t queued_[2] = {0, 0};
  uint64_t completed_bytes_[2] = {0, 0};
  uint64_t wait_ns_[2] = {0, 0};
  uint64_t issued_[2] = {0, 0};

  // Observability (null until SetMetrics; indexed by IoClass).
  obs::Counter* m_issued_[2] = {nullptr, nullptr};
  obs::Counter* m_completed_bytes_[2] = {nullptr, nullptr};
  obs::Counter* m_wait_ns_[2] = {nullptr, nullptr};
  obs::Gauge* m_queued_[2] = {nullptr, nullptr};
  obs::Gauge* m_inflight_ = nullptr;
};

}  // namespace xssd::ftl

#endif  // XSSD_FTL_SCHEDULER_H_
