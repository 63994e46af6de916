#include "ftl/scheduler.h"

#include "common/logging.h"

namespace xssd::ftl {

const char* SchedulingPolicyName(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kNeutral:
      return "neutral";
    case SchedulingPolicy::kDestagePriority:
      return "destage-priority";
    case SchedulingPolicy::kConventionalPriority:
      return "conventional-priority";
  }
  return "?";
}

Scheduler::Scheduler(sim::Simulator* sim, flash::Array* array,
                     SchedulingPolicy policy)
    : sim_(sim), array_(array), policy_(policy) {
  channels_.resize(array_->geometry().channels);
}

void Scheduler::SetMetrics(obs::MetricsRegistry* registry,
                           const std::string& prefix) {
  m_issued_[0] = registry->GetCounter(prefix + "ftl.sched.conv.issued");
  m_issued_[1] = registry->GetCounter(prefix + "ftl.sched.destage.issued");
  m_completed_bytes_[0] =
      registry->GetCounter(prefix + "ftl.sched.conv.completed_bytes");
  m_completed_bytes_[1] =
      registry->GetCounter(prefix + "ftl.sched.destage.completed_bytes");
  m_queued_[0] = registry->GetGauge(prefix + "ftl.sched.conv.queued");
  m_queued_[1] = registry->GetGauge(prefix + "ftl.sched.destage.queued");
  m_wait_ns_[0] = registry->GetCounter(prefix + "ftl.sched.conv.wait_ns");
  m_wait_ns_[1] = registry->GetCounter(prefix + "ftl.sched.destage.wait_ns");
  m_inflight_ = registry->GetGauge(prefix + "ftl.sched.inflight");
}

void Scheduler::Enqueue(uint32_t channel, Op op) {
  op.seq = next_seq_++;
  op.enqueued = sim_->Now();
  int k = static_cast<int>(op.io_class);
  queued_[k]++;
  if (m_queued_[k]) m_queued_[k]->Set(static_cast<double>(queued_[k]));
  channels_[channel].queue[k].push_back(std::move(op));
  Dispatch(channel);
}

int Scheduler::FindEligible(uint32_t channel,
                            const std::deque<Op>& queue) const {
  for (size_t i = 0; i < queue.size(); ++i) {
    if (array_->DieIdle(channel, queue[i].die)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void Scheduler::Dispatch(uint32_t channel) {
  ChannelState& state = channels_[channel];
  while (!state.bus_busy) {
    const std::deque<Op>& conv = state.queue[0];
    const std::deque<Op>& dest = state.queue[1];
    int conv_idx = FindEligible(channel, conv);
    int dest_idx = FindEligible(channel, dest);
    if (conv_idx < 0 && dest_idx < 0) return;

    int pick_class = 0;
    switch (policy_) {
      case SchedulingPolicy::kNeutral:
        // A traditional device: arrival order, no class awareness. Under
        // overload each class degrades in proportion to its demand.
        if (conv_idx >= 0 && dest_idx >= 0) {
          pick_class = conv[conv_idx].seq < dest[dest_idx].seq ? 0 : 1;
        } else {
          pick_class = conv_idx >= 0 ? 0 : 1;
        }
        break;
      case SchedulingPolicy::kDestagePriority:
        // Conventional ops ride only in the gaps (Opportunistic Destaging).
        pick_class = dest_idx >= 0 ? 1 : 0;
        break;
      case SchedulingPolicy::kConventionalPriority:
        pick_class = conv_idx >= 0 ? 0 : 1;
        break;
    }
    Issue(channel, pick_class, pick_class == 0 ? conv_idx : dest_idx);
  }
}

void Scheduler::Issue(uint32_t channel, int io_class, size_t index) {
  ChannelState& state = channels_[channel];
  Op op = std::move(state.queue[io_class][index]);
  state.queue[io_class].erase(state.queue[io_class].begin() + index);
  queued_[io_class]--;
  ++inflight_;
  ++issued_[io_class];
  uint64_t waited = static_cast<uint64_t>(sim_->Now() - op.enqueued);
  wait_ns_[io_class] += waited;
  if (m_queued_[io_class]) {
    m_queued_[io_class]->Set(static_cast<double>(queued_[io_class]));
  }
  if (m_wait_ns_[io_class]) m_wait_ns_[io_class]->Add(waited);
  if (m_issued_[io_class]) m_issued_[io_class]->Add();
  if (m_inflight_) m_inflight_->Set(static_cast<double>(inflight_));
  if (op.uses_bus) state.bus_busy = true;

  auto bus_released = [this, channel, uses_bus = op.uses_bus]() {
    if (uses_bus) {
      channels_[channel].bus_busy = false;
      Dispatch(channel);
    }
  };
  auto completed = [this, channel, io_class, bytes = op.bytes]() {
    --inflight_;
    completed_bytes_[io_class] += bytes;
    if (m_inflight_) m_inflight_->Set(static_cast<double>(inflight_));
    if (m_completed_bytes_[io_class]) {
      m_completed_bytes_[io_class]->Add(bytes);
    }
    Dispatch(channel);
  };
  op.run(std::move(bus_released), std::move(completed));
}

void Scheduler::Program(IoClass io_class, const flash::Address& addr,
                        Bytes data, const flash::Oob& oob,
                        flash::Array::ProgramCallback done) {
  Op op;
  op.io_class = io_class;
  op.die = addr.die;
  op.bytes = array_->geometry().page_bytes;
  op.uses_bus = true;
  op.run = [this, addr, data = std::move(data), oob,
            done = std::move(done)](std::function<void()> bus_released,
                                    std::function<void()> completed) mutable {
    array_->Program(addr, std::move(data), oob,
                    [completed = std::move(completed),
                     done = std::move(done)](Status status) mutable {
                      completed();
                      done(status);
                    },
                    std::move(bus_released));
  };
  Enqueue(addr.channel, std::move(op));
}

void Scheduler::Read(IoClass io_class, const flash::Address& addr,
                     flash::Array::ReadCallback done) {
  Op op;
  op.io_class = io_class;
  op.die = addr.die;
  op.bytes = array_->geometry().page_bytes;
  // Reads sense first and stream out afterwards; the array serializes the
  // outbound transfer on the bus internally. Gate on the die only.
  op.uses_bus = false;
  op.run = [this, addr, done = std::move(done)](
               std::function<void()> bus_released,
               std::function<void()> completed) mutable {
    bus_released();
    array_->Read(addr, [completed = std::move(completed),
                        done = std::move(done)](Status status,
                                                Bytes data) mutable {
      completed();
      done(status, std::move(data));
    });
  };
  Enqueue(addr.channel, std::move(op));
}

void Scheduler::Erase(IoClass io_class, const flash::Address& addr,
                      flash::Array::EraseCallback done) {
  Op op;
  op.io_class = io_class;
  op.die = addr.die;
  op.bytes = 0;
  op.uses_bus = false;
  op.run = [this, addr, done = std::move(done)](
               std::function<void()> bus_released,
               std::function<void()> completed) mutable {
    bus_released();
    array_->Erase(addr, [completed = std::move(completed),
                         done = std::move(done)](Status status) mutable {
      completed();
      done(status);
    });
  };
  Enqueue(addr.channel, std::move(op));
}

}  // namespace xssd::ftl
