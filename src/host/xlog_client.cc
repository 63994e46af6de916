#include "host/xlog_client.h"

#include <cstring>
#include <memory>
#include <string>

#include "common/logging.h"
#include "core/page_format.h"

namespace xssd::host {

XLogClient::XLogClient(sim::Simulator* sim, pcie::PcieFabric* fabric,
                       uint64_t cmb_base, XLogClientOptions options)
    : sim_(sim),
      fabric_(fabric),
      cmb_base_(cmb_base),
      options_(options),
      store_engine_(fabric, options.mmio_mode) {}

Status XLogClient::Setup() {
  uint8_t value[8];
  auto read_reg = [&](uint64_t reg, uint64_t* out) -> Status {
    XSSD_RETURN_IF_ERROR(fabric_->FunctionalRead(cmb_base_ + reg, value, 8));
    std::memcpy(out, value, 8);
    return Status::OK();
  };
  XSSD_RETURN_IF_ERROR(read_reg(core::kRegQueueBytes, &queue_bytes_));
  XSSD_RETURN_IF_ERROR(read_reg(core::kRegRingBytes, &ring_bytes_));
  XSSD_RETURN_IF_ERROR(
      read_reg(core::kRegDestageStartLba, &destage_start_lba_));
  XSSD_RETURN_IF_ERROR(
      read_reg(core::kRegDestageLbaCount, &destage_lba_count_));
  XSSD_RETURN_IF_ERROR(read_reg(core::kRegEpoch, &epoch_cache_));
  if (queue_bytes_ == 0 || ring_bytes_ == 0) {
    return Status::FailedPrecondition("device reported empty CMB geometry");
  }
  return Status::OK();
}

Status XLogClient::ResumeAtDeviceTail() {
  uint8_t raw[8];
  auto read_reg = [&](uint64_t reg, uint64_t* out) -> Status {
    XSSD_RETURN_IF_ERROR(fabric_->FunctionalRead(cmb_base_ + reg, raw, 8));
    std::memcpy(out, raw, 8);
    return Status::OK();
  };
  uint64_t credit = 0, destaged = 0;
  XSSD_RETURN_IF_ERROR(read_reg(core::kRegLocalCredit, &credit));
  XSSD_RETURN_IF_ERROR(read_reg(core::kRegDestaged, &destaged));
  written_ = credit;
  credit_cache_ = credit;
  destaged_cache_ = destaged;
  return Status::OK();
}

Status XLogClient::Reconnect() {
  uint64_t epoch_before = epoch_cache_;
  XSSD_RETURN_IF_ERROR(Setup());
  XSSD_RETURN_IF_ERROR(ResumeAtDeviceTail());
  if (epoch_cache_ != epoch_before) {
    // A reboot (or HA truncation) started a fresh epoch at stream offset
    // 0; tail reads restart with it. Allocations from the dead session
    // cannot be completed.
    read_cursor_ = 0;
    read_seq_ = 0;
    tail_leftover_.clear();
    allocations_.clear();
    PushBarrier();
  }
  // Epoch unchanged: the local device was promoted with its log intact —
  // keep every cursor and just resume at the adopted tail.
  ++reconnects_;
  return Status::OK();
}

void XLogClient::SetSpans(obs::SpanRecorder* spans,
                          const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
}

void XLogClient::ReadRegister(uint64_t reg,
                              std::function<void(uint64_t)> done) {
  ++credit_polls_;
  // The poll span charges the CPU overhead plus the MMIO read round trip to
  // the host; the caller's ambient context is restored around `done` so
  // continuations (chunk stores, NVMe reads) keep their root request.
  obs::SpanContext caller_ctx;
  obs::SpanContext poll_ctx;
  if (spans_) {
    caller_ctx = spans_->current();
    poll_ctx = spans_->StartSpan(obs::Stage::kHostPoll, span_node_,
                                 caller_ctx);
  }
  sim_->Schedule(options_.poll_cpu_overhead, [this, reg, caller_ctx, poll_ctx,
                                              done = std::move(done)]() {
    fabric_->HostRead(cmb_base_ + reg, 8,
                      [this, caller_ctx, poll_ctx, done = std::move(done)](
                          std::vector<uint8_t> bytes) {
                        if (spans_) spans_->EndSpan(poll_ctx);
                        uint64_t value = 0;
                        std::memcpy(&value, bytes.data(), 8);
                        obs::ScopedContext scope(spans_, caller_ctx);
                        done(value);
                      });
  });
}

void XLogClient::StoreRing(uint64_t stream_offset, const uint8_t* data,
                           size_t len, sim::Simulator::Callback posted) {
  uint64_t base = cmb_base_ + core::kRingWindowOffset;
  core::RingSplit split = core::SplitRingRange(stream_offset, len, ring_bytes_);
  if (split.head < len) {
    // The range wraps: two store sequences, completion on the second.
    store_engine_.Store(base + split.offset, data, split.head, nullptr);
    store_engine_.Store(base, data + split.head, len - split.head,
                        std::move(posted));
  } else {
    store_engine_.Store(base + split.offset, data, len, std::move(posted));
  }
}

void XLogClient::Append(const uint8_t* data, size_t len, DoneCallback done) {
  if (len == 0) {
    done(Status::OK());
    return;
  }
  obs::SpanContext root;
  if (spans_) {
    root = spans_->StartTrace("append", span_node_, written_, written_ + len);
    done = [this, root, done = std::move(done)](Status status) mutable {
      spans_->EndSpan(root);
      done(status);
    };
  }
  auto copy = std::make_shared<std::vector<uint8_t>>(data, data + len);
  AppendLoop(std::move(copy), 0, root, std::move(done));
}

void XLogClient::AppendLoop(std::shared_ptr<std::vector<uint8_t>> data,
                            size_t offset, obs::SpanContext ctx,
                            DoneCallback done) {
  obs::ScopedContext scope(spans_, ctx);
  size_t remaining = data->size() - offset;
  if (remaining == 0) {
    done(Status::OK());
    return;
  }
  // Figure 8: use all credits available without intermediate checks, then
  // pause to read the credit anew.
  uint64_t outstanding = written_ - credit_cache_;
  uint64_t window =
      outstanding >= queue_bytes_ ? 0 : queue_bytes_ - outstanding;
  // Also respect the ring: never run further than ring_bytes ahead of the
  // destage head (only binding for small rings under destage pressure).
  uint64_t ring_room = options_.respect_ring_capacity
                           ? destaged_cache_ + ring_bytes_ - written_
                           : window;
  uint64_t avail = std::min(window, ring_room);

  if (avail == 0) {
    // Back-pressure: poll the credit counter and retry (paper §4.1). When
    // the ring (not the staging window) is what binds, refresh the destage
    // progress register instead.
    bool ring_bound = ring_room < window;
    uint64_t reg = ring_bound ? core::kRegDestaged : core::kRegCredit;
    ReadRegister(reg, [this, ring_bound, data = std::move(data), offset, ctx,
                       done = std::move(done)](uint64_t value) mutable {
      if (ring_bound) {
        destaged_cache_ = std::max(destaged_cache_, value);
      } else {
        credit_cache_ = std::max(credit_cache_, value);
      }
      AppendLoop(std::move(data), offset, ctx, std::move(done));
    });
    return;
  }

  size_t chunk = static_cast<size_t>(
      std::min<uint64_t>(remaining, avail));
  const uint8_t* src = data->data() + offset;  // before the lambda moves data
  StoreRing(written_, src, chunk,
            [this, data = std::move(data), offset = offset + chunk, ctx,
             done = std::move(done)]() mutable {
              AppendLoop(std::move(data), offset, ctx, std::move(done));
            });
  written_ += chunk;
}

void XLogClient::Sync(DoneCallback done) {
  obs::SpanContext root;
  if (spans_) {
    // The fsync covers the unacknowledged window at call time.
    root = spans_->StartTrace("fsync", span_node_, credit_cache_, written_);
    done = [this, root, done = std::move(done)](Status status) mutable {
      spans_->EndSpan(root);
      done(status);
    };
  }
  SyncLoop(root, std::move(done), sim_->Now());
}

void XLogClient::SyncLoop(obs::SpanContext ctx, DoneCallback done,
                          sim::SimTime last_progress) {
  obs::ScopedContext scope(spans_, ctx);
  if (credit_cache_ >= written_) {
    done(Status::OK());
    return;
  }
  if (options_.sync_stall_timeout > 0 &&
      sim_->Now() - last_progress >= options_.sync_stall_timeout) {
    // The counter is stuck. Ask the device whether it is still alive —
    // a degraded or stalled primary will still make (local) progress, but
    // a halted one never will, and the caller must fail over/Reconnect().
    ReadRegister(core::kRegTransportStatus,
                 [this, ctx, done = std::move(done),
                  last_progress](uint64_t word) mutable {
                   if (word & core::StatusBits::kHalted) {
                     ++sync_failures_;
                     done(Status::Unavailable(
                         "device halted with unsynced log bytes"));
                     return;
                   }
                   // Alive (possibly degraded): grant another stall window
                   // of credit polling before checking again.
                   SyncLoop(ctx, std::move(done), sim_->Now());
                 });
    return;
  }
  ReadRegister(core::kRegCredit, [this, ctx, done = std::move(done),
                                  last_progress](uint64_t credit) mutable {
    if (credit > credit_cache_) {
      credit_cache_ = credit;
      last_progress = sim_->Now();
    }
    SyncLoop(ctx, std::move(done), last_progress);
  });
}

void XLogClient::AppendDurable(const uint8_t* data, size_t len,
                               DoneCallback done) {
  Append(data, len, [this, done = std::move(done)](Status status) mutable {
    if (!status.ok()) {
      done(status);
      return;
    }
    Sync(std::move(done));
  });
}

void XLogClient::ReadTail(nvme::Driver* driver, size_t len,
                          ReadCallback done) {
  obs::SpanContext root;
  if (spans_) {
    root = spans_->StartTrace("read", span_node_, read_cursor_,
                              read_cursor_ + len);
    done = [this, root, done = std::move(done)](
               Status status, std::vector<uint8_t> data) mutable {
      spans_->EndSpan(root);
      done(status, std::move(data));
    };
  }
  auto acc = std::make_shared<std::vector<uint8_t>>();
  // Consume bytes left over from the previous call's last page first.
  if (!tail_leftover_.empty()) {
    size_t take = std::min(len, tail_leftover_.size());
    acc->assign(tail_leftover_.begin(), tail_leftover_.begin() + take);
    tail_leftover_.erase(tail_leftover_.begin(),
                         tail_leftover_.begin() + take);
  }
  ReadTailLoop(driver, len, std::move(acc), root, std::move(done));
}

void XLogClient::ReadTailLoop(nvme::Driver* driver, size_t len,
                              std::shared_ptr<std::vector<uint8_t>> acc,
                              obs::SpanContext ctx, ReadCallback done) {
  obs::ScopedContext scope(spans_, ctx);
  if (acc->size() >= len) {
    // Stash any surplus from the last parsed page for the next call.
    tail_leftover_.insert(tail_leftover_.end(), acc->begin() + len,
                          acc->end());
    acc->resize(len);
    done(Status::OK(), std::move(*acc));
    return;
  }
  // Is the next destage page complete? The destaged counter advances in
  // stream order, so any progress past our cursor means page read_seq_ is
  // fully on the conventional side.
  ReadRegister(core::kRegDestaged, [this, driver, len, acc = std::move(acc),
                                    ctx, done = std::move(done)](
                                       uint64_t destaged) mutable {
    destaged_cache_ = std::max(destaged_cache_, destaged);
    if (destaged_cache_ <= read_cursor_) {
      // Nothing new yet — block (fixed-interval poll: the wait is for
      // destage progress, which has no failure mode worth backing off for).
      sim_->Schedule(sim::Us(5), [this, driver, len, acc = std::move(acc),
                                  ctx, done = std::move(done)]() mutable {
        ReadTailLoop(driver, len, std::move(acc), ctx, std::move(done));
      });
      return;
    }
    uint64_t lba =
        destage_start_lba_ + (read_seq_ % destage_lba_count_);
    driver->Read(lba, 1, [this, driver, len, acc = std::move(acc), ctx,
                          done = std::move(done)](
                             Status status,
                             std::vector<uint8_t> page) mutable {
      if (!status.ok()) {
        if (status.IsCorruption() && replica_window_base_ != 0) {
          // Uncorrectable conventional-side read: escalate to the replica
          // over NTB instead of surfacing the error.
          ReplicaFetch(driver, len, std::move(acc), ctx, std::move(done),
                       status);
          return;
        }
        done(status, {});
        return;
      }
      Result<core::ParsedDestagePage> parsed =
          core::ParseDestagePage(page);
      if (!parsed.ok() || parsed->header.sequence != read_seq_) {
        // The destaged counter covers page read_seq_, so its write has
        // landed: any other content in the slot means the ring lapped this
        // reader or the stream restarted under it.
        ++read_deadline_failures_;
        Status lapped = Status::OutOfRange(
            "destage ring no longer holds stream offset " +
            std::to_string(read_cursor_));
        done(lapped, {});
        return;
      }
      const auto& header = parsed->header;
      uint64_t data_begin = header.stream_offset;
      uint64_t data_end = header.stream_offset + header.data_len;
      if (read_cursor_ >= data_begin && read_cursor_ < data_end) {
        size_t skip = static_cast<size_t>(read_cursor_ - data_begin);
        acc->insert(acc->end(), parsed->data.begin() + skip,
                    parsed->data.end());
        read_cursor_ = data_end;
      } else if (read_cursor_ >= data_end) {
        // Fully consumed already (shouldn't normally happen).
      }
      ++read_seq_;
      ReadTailLoop(driver, len, std::move(acc), ctx, std::move(done));
    });
  });
}

void XLogClient::ReplicaFetch(nvme::Driver* driver, size_t len,
                              std::shared_ptr<std::vector<uint8_t>> acc,
                              obs::SpanContext ctx, ReadCallback done,
                              Status local_status) {
  // The conventional-side copy of page read_seq_ is gone, but the same
  // stream bytes were persisted in the replica's PM ring before the destage
  // acked them. Pull the lost extent straight out of that ring over the NTB
  // window and skip the dead slot.
  obs::SpanContext fetch_ctx;
  if (spans_) {
    fetch_ctx =
        spans_->StartSpan(obs::Stage::kReplicaFetch, span_node_, ctx);
  }
  uint64_t capacity = core::DestagePayloadCapacity(driver->block_bytes());
  fabric_->HostRead(
      replica_window_base_ + core::kRegLocalCredit, 8,
      [this, driver, len, acc = std::move(acc), ctx, fetch_ctx,
       done = std::move(done), local_status,
       capacity](std::vector<uint8_t> raw) mutable {
        uint64_t credit = 0;
        std::memcpy(&credit, raw.data(), 8);
        // The lost page started at or before our cursor and carried at most
        // `capacity` payload bytes, and the destaged counter already covers
        // its end — so fetching [cursor, min(cursor + capacity, destaged))
        // covers the whole page and never undershoots into the next slot's
        // range. Overshoot into later (readable) pages is harmless: the
        // normal consume logic skips already-consumed prefixes.
        uint64_t fetch_end =
            std::min(read_cursor_ + capacity, destaged_cache_);
        bool covered = credit >= fetch_end && fetch_end > read_cursor_;
        bool overwritten = credit - read_cursor_ > ring_bytes_;
        if (!covered || overwritten) {
          // Replica cannot supply the extent (not yet replicated, or its
          // ring has already wrapped past it): the loss is real.
          if (spans_) spans_->EndSpan(fetch_ctx);
          done(local_status, {});
          return;
        }
        size_t want = static_cast<size_t>(fetch_end - read_cursor_);
        uint64_t base = replica_window_base_ + core::kRingWindowOffset;
        core::RingSplit split =
            core::SplitRingRange(read_cursor_, want, ring_bytes_);
        auto finish = [this, driver, len, acc = std::move(acc), ctx,
                       fetch_ctx, done = std::move(done),
                       fetch_end](std::vector<uint8_t> bytes) mutable {
          ++replica_fetches_;
          replica_fetched_bytes_ += bytes.size();
          if (spans_) {
            spans_->SetRange(fetch_ctx, read_cursor_, fetch_end);
            spans_->EndSpan(fetch_ctx);
          }
          acc->insert(acc->end(), bytes.begin(), bytes.end());
          read_cursor_ = fetch_end;
          ++read_seq_;  // past the dead slot
          ReadTailLoop(driver, len, std::move(acc), ctx, std::move(done));
        };
        if (split.head < want) {
          // The extent wraps the replica ring: two window reads.
          fabric_->HostRead(
              base + split.offset, split.head,
              [this, base, rest = want - split.head,
               finish = std::move(finish)](std::vector<uint8_t> head) mutable {
                fabric_->HostRead(
                    base, rest,
                    [head = std::move(head), finish = std::move(finish)](
                        std::vector<uint8_t> tail) mutable {
                      head.insert(head.end(), tail.begin(), tail.end());
                      finish(std::move(head));
                    });
              });
        } else {
          fabric_->HostRead(base + split.offset, want, std::move(finish));
        }
      });
}

Result<uint64_t> XLogClient::XAlloc(size_t len) {
  if (len == 0) return Status::InvalidArgument("empty allocation");
  if (len > queue_bytes_) {
    return Status::InvalidArgument(
        "allocation exceeds the staging window; split it");
  }
  uint64_t offset = written_;
  written_ += len;
  allocations_.emplace(offset, Allocation{len, false});
  PushBarrier();
  return offset;
}

void XLogClient::WriteAt(uint64_t stream_offset, const uint8_t* data,
                         size_t len, DoneCallback done) {
  auto it = allocations_.upper_bound(stream_offset);
  if (it == allocations_.begin()) {
    done(Status::InvalidArgument("write outside any allocation"));
    return;
  }
  --it;
  if (stream_offset + len > it->first + it->second.len || it->second.freed) {
    done(Status::InvalidArgument("write outside an active allocation"));
    return;
  }
  obs::SpanContext root;
  if (spans_) {
    root = spans_->StartTrace("writeat", span_node_, stream_offset,
                              stream_offset + len);
  }
  obs::ScopedContext scope(spans_, root);
  StoreRing(stream_offset, data, len, [this, root, done = std::move(done)]() {
    if (spans_) spans_->EndSpan(root);
    done(Status::OK());
  });
}

Status XLogClient::XFree(uint64_t stream_offset) {
  auto it = allocations_.find(stream_offset);
  if (it == allocations_.end()) {
    return Status::NotFound("no allocation at that offset");
  }
  if (it->second.freed) {
    return Status::FailedPrecondition("allocation already freed");
  }
  it->second.freed = true;
  // Drop fully-freed prefix entries.
  while (!allocations_.empty() && allocations_.begin()->second.freed) {
    allocations_.erase(allocations_.begin());
  }
  PushBarrier();
  return Status::OK();
}

void XLogClient::PushBarrier() {
  uint64_t barrier = ~0ull;
  if (!allocations_.empty()) barrier = allocations_.begin()->first;
  uint8_t payload[8];
  std::memcpy(payload, &barrier, 8);
  fabric_->HostWrite(cmb_base_ + core::kRegDestageBarrier, payload, 8, 8);
}

}  // namespace xssd::host
