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
  const flash::Geometry& geom = array_->geometry();
  channels_.resize(geom.channels);
  for (ChannelState& state : channels_) {
    for (std::vector<Fifo>& fifos : state.fifos) {
      fifos.resize(geom.dies_per_channel);
    }
  }
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

void Scheduler::Enqueue(Op&& op) {
  op.seq = next_seq_++;
  op.enqueued = sim_->Now();
  const int k = static_cast<int>(op.io_class);
  const uint32_t channel = op.addr.channel;
  const uint32_t die = op.addr.die;
  queued_[k]++;
  if (m_queued_[k]) m_queued_[k]->Set(static_cast<double>(queued_[k]));
  const uint32_t slot = ops_.Add(std::move(op));
  Fifo& fifo = channels_[channel].fifos[k][die];
  if (fifo.tail == kNoSlot) {
    fifo.head = slot;
  } else {
    ops_[fifo.tail].next = slot;
  }
  fifo.tail = slot;
  Dispatch(channel);
}

int Scheduler::EarliestIdleHead(uint32_t channel, int io_class) const {
  const std::vector<Fifo>& fifos = channels_[channel].fifos[io_class];
  int best = -1;
  uint64_t best_seq = 0;
  for (uint32_t die = 0; die < fifos.size(); ++die) {
    const uint32_t head = fifos[die].head;
    if (head == kNoSlot || !array_->DieIdle(channel, die)) continue;
    if (best < 0 || ops_[head].seq < best_seq) {
      best = static_cast<int>(die);
      best_seq = ops_[head].seq;
    }
  }
  return best;
}

void Scheduler::Dispatch(uint32_t channel) {
  while (!channels_[channel].bus_busy) {
    const int conv_die = EarliestIdleHead(channel, 0);
    const int dest_die = EarliestIdleHead(channel, 1);
    if (conv_die < 0 && dest_die < 0) return;

    int pick_class = 0;
    switch (policy_) {
      case SchedulingPolicy::kNeutral:
        // A traditional device: arrival order, no class awareness. Under
        // overload each class degrades in proportion to its demand.
        if (conv_die >= 0 && dest_die >= 0) {
          const bool conv_first =
              HeadSeq(channel, 0, conv_die) < HeadSeq(channel, 1, dest_die);
          pick_class = conv_first ? 0 : 1;
        } else {
          pick_class = conv_die >= 0 ? 0 : 1;
        }
        break;
      case SchedulingPolicy::kDestagePriority:
        // Conventional ops ride only in the gaps (Opportunistic Destaging).
        pick_class = dest_die >= 0 ? 1 : 0;
        break;
      case SchedulingPolicy::kConventionalPriority:
        pick_class = conv_die >= 0 ? 0 : 1;
        break;
    }
    Issue(channel, pick_class, pick_class == 0 ? conv_die : dest_die);
  }
}

void Scheduler::Issue(uint32_t channel, int io_class, int die) {
  Fifo& fifo = channels_[channel].fifos[io_class][die];
  const uint32_t slot = fifo.head;
  Op& op = ops_[slot];
  fifo.head = op.next;
  if (fifo.head == kNoSlot) fifo.tail = kNoSlot;
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

  // The array calls back only from scheduled events, so `op` stays valid
  // through each call below.
  switch (op.kind) {
    case OpKind::kProgram:
      channels_[channel].bus_busy = true;
      array_->Program(
          op.addr, std::move(op.data), op.oob,
          [this, slot](Status status) { Complete(slot, status, Bytes()); },
          [this, channel]() {
            channels_[channel].bus_busy = false;
            Dispatch(channel);
          });
      break;
    case OpKind::kRead:
      // Reads sense first and stream out afterwards; the array serializes
      // the outbound transfer on the bus internally. Gate on the die only.
      array_->Read(op.addr, [this, slot](Status status, Bytes data) {
        Complete(slot, status, std::move(data));
      });
      break;
    case OpKind::kErase:
      array_->Erase(op.addr, [this, slot](Status status) {
        Complete(slot, status, Bytes());
      });
      break;
  }
}

void Scheduler::Complete(uint32_t slot, const Status& status, Bytes data) {
  Op op = ops_.Take(slot);
  const int k = static_cast<int>(op.io_class);
  const uint64_t bytes =
      op.kind == OpKind::kErase ? 0 : array_->geometry().page_bytes;
  --inflight_;
  completed_bytes_[k] += bytes;
  if (m_inflight_) m_inflight_->Set(static_cast<double>(inflight_));
  if (m_completed_bytes_[k]) m_completed_bytes_[k]->Add(bytes);
  Dispatch(op.addr.channel);
  if (op.kind == OpKind::kRead) {
    op.read_done(status, std::move(data));
  } else {
    op.done(status);
  }
}

void Scheduler::Program(IoClass io_class, const flash::Address& addr,
                        Bytes data, const flash::Oob& oob,
                        flash::Array::ProgramCallback done) {
  Op op;
  op.kind = OpKind::kProgram;
  op.io_class = io_class;
  op.addr = addr;
  op.data = std::move(data);
  op.oob = oob;
  op.done = std::move(done);
  Enqueue(std::move(op));
}

void Scheduler::Read(IoClass io_class, const flash::Address& addr,
                     flash::Array::ReadCallback done) {
  Op op;
  op.kind = OpKind::kRead;
  op.io_class = io_class;
  op.addr = addr;
  op.read_done = std::move(done);
  Enqueue(std::move(op));
}

void Scheduler::Erase(IoClass io_class, const flash::Address& addr,
                      flash::Array::EraseCallback done) {
  Op op;
  op.kind = OpKind::kErase;
  op.io_class = io_class;
  op.addr = addr;
  op.done = std::move(done);
  Enqueue(std::move(op));
}

}  // namespace xssd::ftl
