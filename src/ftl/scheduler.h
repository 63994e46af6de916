#ifndef XSSD_FTL_SCHEDULER_H_
#define XSSD_FTL_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "flash/array.h"
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
  void Program(IoClass io_class, const flash::Address& addr,
               std::vector<uint8_t> data, std::vector<uint8_t> oob,
               flash::Array::ProgramCallback done);
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
  struct Op {
    IoClass io_class;
    uint32_t die;        ///< die index within the channel
    uint64_t seq;        ///< global arrival order (Neutral policy)
    uint64_t bytes;
    sim::SimTime enqueued = 0;  ///< arrival time, for wait accounting
    bool uses_bus;       ///< programs hold the bus for their transfer
    /// run(bus_released, completed)
    std::function<void(std::function<void()>, std::function<void()>)> run;
  };
  struct ChannelState {
    std::deque<Op> queue[2];  // indexed by IoClass
    bool bus_busy = false;
    bool neutral_toggle = false;
  };

  void Enqueue(uint32_t channel, Op op);

  /// Issue as much as the channel allows right now.
  void Dispatch(uint32_t channel);

  /// Index into the class queue of the first op whose die can start now,
  /// or -1.
  int FindEligible(uint32_t channel, const std::deque<Op>& queue) const;

  /// Pop & issue queue[k][index]; returns false if the bus is held.
  void Issue(uint32_t channel, int io_class, size_t index);

  sim::Simulator* sim_;
  flash::Array* array_;
  SchedulingPolicy policy_;
  std::vector<ChannelState> channels_;
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
