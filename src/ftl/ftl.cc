#include "ftl/ftl.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "ftl/oob.h"
#include "obs/flightrec.h"

namespace xssd::ftl {

namespace {

// Pause after a writeback fails for good, before writeback runs again.
constexpr sim::SimTime kWritebackRetryDelay = sim::Us(100);

BlockAllocator::Stream StreamFor(IoClass io_class) {
  return io_class == IoClass::kDestage ? BlockAllocator::kDestageStream
                                       : BlockAllocator::kConventionalStream;
}

}  // namespace

Ftl::Ftl(sim::Simulator* sim, flash::Array* array, FtlConfig config)
    : sim_(sim),
      array_(array),
      config_(config),
      scheduler_(sim, array),
      map_(array->geometry(),
           static_cast<uint64_t>(
               static_cast<double>(array->geometry().pages()) *
               (1.0 - config.overprovision))),
      allocator_(array->geometry()),
      wear_(array->geometry().blocks()),
      buffer_port_(sim, config.buffer_bytes_per_sec),
      inflight_programs_(array->geometry().blocks(), 0) {
  allocator_.set_gc_reserve(config_.gc_reserved_blocks);
}

void Ftl::SetFaultInjector(fault::FaultInjector* injector,
                           const std::string& site_prefix) {
  injector_ = injector;
  site_prefix_ = site_prefix;
}

bool Ftl::Halted() const { return injector_ != nullptr && injector_->crashed(); }

void Ftl::SetMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) {
  m_host_writes_ = registry->GetCounter(prefix + "ftl.host_writes");
  m_flash_programs_ = registry->GetCounter(prefix + "ftl.flash_programs");
  m_gc_pages_moved_ = registry->GetCounter(prefix + "ftl.gc.pages_moved");
  m_gc_erases_ = registry->GetCounter(prefix + "ftl.gc.erases");
  m_buffer_hits_ = registry->GetCounter(prefix + "ftl.buffer_hits");
  m_bad_block_retires_ =
      registry->GetCounter(prefix + "ftl.bad_block_retires");
  m_refresh_pages_moved_ =
      registry->GetCounter(prefix + "reliability.refresh_pages_moved");
  m_refresh_erases_ =
      registry->GetCounter(prefix + "reliability.refresh_erases");
  m_uncorrectable_reads_ =
      registry->GetCounter(prefix + "reliability.uncorrectable_reads");
  m_escalations_ = registry->GetCounter(prefix + "reliability.escalations");
  m_reliability_retires_ =
      registry->GetCounter(prefix + "reliability.retired_blocks");
  m_pages_lost_ = registry->GetCounter(prefix + "reliability.pages_lost");
  m_dirty_pages_ = registry->GetGauge(prefix + "ftl.dirty_pages");
  m_free_blocks_ = registry->GetGauge(prefix + "ftl.free_blocks");
  m_write_amp_ = registry->GetGauge(prefix + "ftl.write_amp");
  m_erase_min_ = registry->GetGauge(prefix + "ftl.erase_count_min");
  m_erase_max_ = registry->GetGauge(prefix + "ftl.erase_count_max");
  m_erase_spread_ = registry->GetGauge(prefix + "ftl.erase_count_spread");
  scheduler_.SetMetrics(registry, prefix);
  UpdateGauges();
  UpdateWearGauges();
}

void Ftl::SetSpans(obs::SpanRecorder* spans, const std::string& node_tag) {
  spans_ = spans;
  span_node_ = spans ? spans->InternNode(node_tag) : 0;
}

void Ftl::SetFlightRecorder(obs::FlightRecorder* recorder,
                            const std::string& node_tag) {
  flightrec_ = recorder;
  fr_tag_ = node_tag.empty() ? std::string() : node_tag + " ";
}

void Ftl::UpdateGauges() {
  if (!m_dirty_pages_) return;
  m_dirty_pages_->Set(static_cast<double>(dirty_count_));
  m_free_blocks_->Set(static_cast<double>(allocator_.free_blocks()));
  m_write_amp_->Set(stats_.WriteAmplification());
}

void Ftl::UpdateWearGauges() {
  if (!m_erase_spread_) return;
  uint32_t min = wear_.MinCount();
  uint32_t max = wear_.MaxCount();
  m_erase_min_->Set(static_cast<double>(min));
  m_erase_max_->Set(static_cast<double>(max));
  m_erase_spread_->Set(static_cast<double>(max - min));
}

void Ftl::TouchLru(uint64_t lpn) {
  auto it = buffer_.find(lpn);
  XSSD_CHECK(it != buffer_.end());
  lru_.erase(it->second.lru_pos);
  lru_.push_front(lpn);
  it->second.lru_pos = lru_.begin();
}

void Ftl::EvictIfNeeded() {
  while (buffer_.size() > config_.buffer_pages && !lru_.empty()) {
    // Evict the least-recently-used *clean* page; dirty pages leave the
    // buffer only through writeback.
    bool evicted = false;
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      auto it = buffer_.find(*rit);
      if (!it->second.dirty && !it->second.flushing) {
        lru_.erase(std::next(rit).base());
        buffer_.erase(it);
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // everything dirty; flushing will drain it
  }
}

void Ftl::WriteBuffered(uint64_t lpn, std::vector<uint8_t> data,
                        WriteCallback done) {
  XSSD_CHECK(lpn < map_.lpn_count());
  data.resize(page_bytes(), 0);
  ++stats_.host_writes;
  if (m_host_writes_) m_host_writes_->Add();
  // The logical version is assigned at accept so that writes queued behind
  // back-pressure keep their arrival order relative to later writes.
  uint64_t seq = next_seq_++;

  // Device-side back-pressure: when the data buffer is all dirty, new
  // writes wait for writeback to free a slot (the host sees a slower ack,
  // exactly like a saturated real device).
  if (dirty_count_ + flush_inflight_ >= config_.buffer_pages &&
      buffer_.find(lpn) == buffer_.end()) {
    admission_queue_.push_back(
        AdmissionWaiter{lpn, seq, std::move(data), std::move(done)});
    MaybeScheduleFlush();
    return;
  }
  AdmitWrite(lpn, seq, std::move(data), std::move(done));
}

void Ftl::AdmitWrite(uint64_t lpn, uint64_t seq, std::vector<uint8_t> data,
                     WriteCallback done) {
  auto it = buffer_.find(lpn);
  if (it == buffer_.end()) {
    lru_.push_front(lpn);
    BufferSlot slot;
    slot.data = std::move(data);
    slot.seq = seq;
    slot.dirty = true;
    slot.lru_pos = lru_.begin();
    buffer_.emplace(lpn, std::move(slot));
    ++dirty_count_;
  } else if (seq < it->second.seq) {
    // This write waited in the admission queue while a newer write for the
    // same lpn went straight into the buffer; its data is already
    // superseded. Acknowledge without clobbering the newer copy.
  } else {
    it->second.data = std::move(data);
    it->second.seq = seq;
    if (!it->second.dirty) {
      it->second.dirty = true;
      ++dirty_count_;
    }
    TouchLru(lpn);
  }
  UpdateGauges();
  EvictIfNeeded();
  MaybeScheduleFlush();

  // Acknowledge once the data has crossed the device DRAM port plus a
  // small firmware cost — the device-visible latency of a cached write.
  sim::SimTime ack = buffer_port_.Acquire(page_bytes());
  sim_->ScheduleAt(ack + config_.firmware_latency,
                   [done = std::move(done)]() { done(Status::OK()); });
}

void Ftl::WriteDirect(IoClass io_class, uint64_t lpn,
                      std::vector<uint8_t> data, WriteCallback done) {
  XSSD_CHECK(lpn < map_.lpn_count());
  data.resize(page_bytes(), 0);
  ++stats_.host_writes;
  if (m_host_writes_) m_host_writes_->Add();
  uint64_t seq = next_seq_++;
  // A direct write supersedes any buffered copy.
  auto it = buffer_.find(lpn);
  if (it != buffer_.end()) {
    if (it->second.dirty) --dirty_count_;
    lru_.erase(it->second.lru_pos);
    buffer_.erase(it);
    UpdateGauges();
  }
  if (spans_) {
    // Issue → programmed, including scheduler queueing and bad-block
    // retries. GC's internal WriteDirect calls have no ambient request
    // context and record never-joined orphans.
    obs::SpanContext span = spans_->StartSpan(obs::Stage::kFlashProgram,
                                              span_node_, spans_->current());
    obs::SpanRecorder* spans = spans_;
    done = [spans, span, done = std::move(done)](Status status) {
      spans->EndSpan(span);
      done(status);
    };
  }
  ProgramPage(io_class, StreamFor(io_class), lpn, seq, kUnmapped,
              std::move(data), std::move(done));
}

void Ftl::ProgramPage(IoClass io_class, BlockAllocator::Stream stream,
                      uint64_t lpn, uint64_t seq, uint64_t src_ppn,
                      std::vector<uint8_t> data, WriteCallback done,
                      uint32_t attempts) {
  Result<flash::Address> addr = allocator_.AllocatePage(stream);
  if (!addr.ok()) {
    // Out of erased blocks: force a GC pass, then retry.
    MaybeStartGc();
    if (!gc_running_) {
      done(Status::ResourceExhausted("device full: no erased blocks"));
      return;
    }
    sim_->Schedule(sim::Us(100), [this, io_class, stream, lpn, seq, src_ppn,
                                  data = std::move(data),
                                  done = std::move(done), attempts]() mutable {
      ProgramPage(io_class, stream, lpn, seq, src_ppn, std::move(data),
                  std::move(done), attempts);
    });
    return;
  }
  flash::Address target = *addr;
  uint64_t ppn = flash::PageIndex(array_->geometry(), target);
  // Every physical program carries {lpn, seq, stamp} in the spare area —
  // the recovery record. The stamp is fresh per attempt so a relocated
  // copy always outranks its source under equal seq.
  uint64_t stamp = ++next_stamp_;
  std::vector<uint8_t> oob = EncodeOob(OobMeta{lpn, seq, stamp});
  ++inflight_programs_[flash::BlockIndex(array_->geometry(), target)];
  scheduler_.Program(
      io_class, target, data, std::move(oob),
      [this, io_class, stream, lpn, seq, stamp, src_ppn, ppn, target, data,
       attempts, done = std::move(done)](Status status) mutable {
        --inflight_programs_[flash::BlockIndex(array_->geometry(), target)];
        if (status.IsIoError()) {
          // Grown bad block: retire it and retry elsewhere (paper §7.1:
          // "handled internally by picking a new block to write").
          uint64_t block = flash::BlockIndex(array_->geometry(), target);
          allocator_.MarkBad(block);
          wear_.Retire(block);
          UpdateWearGauges();
          ++stats_.bad_block_retires;
          if (m_bad_block_retires_) m_bad_block_retires_->Add();
          if (attempts + 1 >= config_.max_program_retries) {
            // A fault window is failing every program; stop burning blocks
            // and let the caller apply its own retry/backoff policy.
            done(status);
            return;
          }
          ProgramPage(io_class, stream, lpn, seq, src_ppn, std::move(data),
                      std::move(done), attempts + 1);
          return;
        }
        if (!status.ok()) {
          done(status);
          return;
        }
        ++stats_.flash_programs;
        if (m_flash_programs_) m_flash_programs_->Add();
        if (src_ppn == kUnmapped) {
          // Host/destage write: applies unless a copy outranking it under
          // the (seq, stamp) recovery order completed first (out-of-order
          // die completions, duplicate writebacks of one version).
          map_.Map(lpn, ppn, seq, stamp);
        } else {
          // GC/scrub relocation: applies while the source (or a same-seq,
          // older-stamp duplicate of it) is the live copy; a host rewrite
          // to a newer version mid-flight makes this a dead page.
          map_.MapRelocated(lpn, src_ppn, ppn, seq, stamp);
        }
        UpdateGauges();
        MaybeStartGc();
        done(Status::OK());
      });
}

void Ftl::ReadPage(IoClass io_class, uint64_t lpn, ReadCallback done) {
  XSSD_CHECK(lpn < map_.lpn_count());
  auto it = buffer_.find(lpn);
  if (it != buffer_.end()) {
    ++stats_.buffer_hits;
    if (m_buffer_hits_) m_buffer_hits_->Add();
    TouchLru(lpn);
    std::vector<uint8_t> copy = it->second.data;
    sim::SimTime at = buffer_port_.Acquire(page_bytes());
    sim_->ScheduleAt(
        at + config_.firmware_latency,
        [copy = std::move(copy), done = std::move(done)]() mutable {
          done(Status::OK(), std::move(copy));
        });
    return;
  }
  uint64_t ppn = map_.Lookup(lpn);
  if (ppn == kUnmapped) {
    // Unwritten page reads as zeros, like a fresh namespace.
    sim_->Schedule(config_.firmware_latency,
                   [len = page_bytes(), done = std::move(done)]() {
                     done(Status::OK(), std::vector<uint8_t>(len, 0));
                   });
    return;
  }
  flash::Address addr = flash::AddressOfPage(array_->geometry(), ppn);
  scheduler_.Read(
      io_class, addr,
      [this, ppn, done = std::move(done)](Status status,
                                          std::vector<uint8_t> data) mutable {
        if (status.IsCorruption()) {
          // Retry-ladder exhaustion reached the host path. Start the
          // escalation chain in the background — relocate what still reads,
          // retire the block — while the Corruption propagates so the
          // caller can re-fetch the lost range from a replica.
          ++stats_.uncorrectable_reads;
          if (m_uncorrectable_reads_) m_uncorrectable_reads_->Add();
          uint64_t block = ppn / array_->geometry().pages_per_block;
          if (flightrec_ != nullptr) {
            flightrec_->Record(sim_->Now(), "reliability",
                               fr_tag_ + "uncorrectable host read ppn=" +
                                   std::to_string(ppn) + ", escalating block " +
                                   std::to_string(block));
          }
          if (EscalateBlock(block, [](Status) {})) {
            ++stats_.escalations;
            if (m_escalations_) m_escalations_->Add();
          }
          if (flightrec_ != nullptr) {
            flightrec_->AutoDump("Corruption escalation on host read");
          }
        }
        done(status, std::move(data));
      });
}

void Ftl::MaybeScheduleFlush() {
  if (Halted()) return;
  while (sim_->Now() >= writeback_paused_until_ &&
         flush_inflight_ < config_.max_writeback_inflight &&
         (dirty_count_ > config_.flush_watermark ||
          !admission_queue_.empty() || !flush_waiters_.empty())) {
    if (!FlushOne()) break;
  }
}

bool Ftl::FlushOne() {
  // Oldest dirty page first.
  for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
    auto it = buffer_.find(*rit);
    if (!it->second.dirty || it->second.flushing) continue;
    uint64_t lpn = *rit;
    it->second.flushing = true;
    it->second.dirty = false;
    --dirty_count_;
    ++flush_inflight_;
    UpdateGauges();
    std::vector<uint8_t> data = it->second.data;
    uint64_t seq = it->second.seq;
    ProgramPage(IoClass::kConventional, BlockAllocator::kConventionalStream,
                lpn, seq, kUnmapped, std::move(data),
                [this, lpn](Status status) {
                  auto slot = buffer_.find(lpn);
                  if (slot != buffer_.end()) slot->second.flushing = false;
                  --flush_inflight_;
                  if (!status.ok()) {
                    OnWritebackFailed(lpn, status);
                    return;
                  }
                  ++flushed_generation_;
                  CheckFlushWaiters();
                  EvictIfNeeded();
                  DrainAdmissionQueue();
                  MaybeScheduleFlush();
                });
    return true;
  }
  return false;
}

void Ftl::OnWritebackFailed(uint64_t lpn, const Status& status) {
  XSSD_LOG(kWarning) << "writeback of lpn " << lpn
                     << " failed: " << status.ToString();
  // The page never reached flash: it stays dirty, so it is neither evicted
  // nor reported durable. A newer write already re-dirtied it; a trim or a
  // direct write dropped it from the buffer.
  auto slot = buffer_.find(lpn);
  if (slot != buffer_.end() && !slot->second.dirty) {
    slot->second.dirty = true;
    ++dirty_count_;
    UpdateGauges();
  }
  std::vector<FlushWaiter> waiters = std::move(flush_waiters_);
  flush_waiters_.clear();
  for (FlushWaiter& waiter : waiters) waiter.done(status);
  // Writeback resumes after a pause. Retrying at once would spin: a full
  // device fails the retry before this call returns.
  writeback_paused_until_ = sim_->Now() + kWritebackRetryDelay;
  sim_->Schedule(kWritebackRetryDelay, [this]() { MaybeScheduleFlush(); });
}

void Ftl::DrainAdmissionQueue() {
  while (!admission_queue_.empty() &&
         dirty_count_ + flush_inflight_ < config_.buffer_pages) {
    AdmissionWaiter waiter = std::move(admission_queue_.front());
    admission_queue_.pop_front();
    AdmitWrite(waiter.lpn, waiter.seq, std::move(waiter.data),
               std::move(waiter.done));
  }
}

void Ftl::CheckFlushWaiters() {
  auto it = flush_waiters_.begin();
  while (it != flush_waiters_.end()) {
    if (flushed_generation_ >= it->remaining) {
      FlushCallback done = std::move(it->done);
      it = flush_waiters_.erase(it);
      done(Status::OK());
    } else {
      ++it;
    }
  }
}

void Ftl::Flush(FlushCallback done) {
  if (dirty_count_ == 0 && flush_inflight_ == 0) {
    sim_->Schedule(config_.firmware_latency, [done = std::move(done)]() {
      done(Status::OK());
    });
    return;
  }
  FlushWaiter waiter;
  waiter.remaining = flushed_generation_ + dirty_count_ + flush_inflight_;
  waiter.done = std::move(done);
  flush_waiters_.push_back(std::move(waiter));
  MaybeScheduleFlush();
}

void Ftl::Trim(uint64_t lpn) {
  XSSD_CHECK(lpn < map_.lpn_count());
  auto it = buffer_.find(lpn);
  if (it != buffer_.end()) {
    if (it->second.dirty) --dirty_count_;
    lru_.erase(it->second.lru_pos);
    buffer_.erase(it);
    UpdateGauges();
  }
  map_.Unmap(lpn);
}

void Ftl::MaybeStartGc() {
  if (gc_running_ || Halted()) return;
  if (allocator_.free_blocks() >= config_.gc_low_watermark) return;
  gc_running_ = true;
  GcStep();
}

void Ftl::GcStep() {
  if (Halted()) {
    gc_running_ = false;
    return;
  }
  if (allocator_.free_blocks() >= config_.gc_low_watermark * 2 ||
      allocator_.sealed_blocks().empty()) {
    gc_running_ = false;
    return;
  }
  GcTuning tuning{config_.gc_wear_alpha, config_.gc_max_erase_spread};
  // Only quiesced blocks are candidates: a sealed block with programs
  // still in flight could gain a valid page after GC's walk passed it.
  std::deque<uint64_t> candidates;
  uint32_t min_candidate_erase = std::numeric_limits<uint32_t>::max();
  for (uint64_t b : allocator_.sealed_blocks()) {
    if (inflight_programs_[b] != 0) continue;
    candidates.push_back(b);
    min_candidate_erase = std::min(min_candidate_erase, wear_.count(b));
  }
  // Emergency cold-migration helps only while the least-worn candidate IS
  // the wear floor: erasing it raises the device minimum. Once the floor
  // moves to a free or write-point block, migrating sealed blocks cannot
  // close the spread — it just cycles fully-valid data between blocks,
  // burning erases forever (each migration erase keeps the spread open).
  if (tuning.max_erase_spread > 0 &&
      wear_.Spread() >= tuning.max_erase_spread &&
      min_candidate_erase > wear_.MinCount()) {
    tuning.max_erase_spread = 0;  // fall back to blended-greedy selection
  }
  uint64_t victim = SelectGcVictim(candidates, map_, wear_, tuning);
  if (victim == kUnmapped) {
    // Every sealed block is still quiescing; the pending completions call
    // MaybeStartGc and re-trigger a pass once their blocks settle.
    gc_running_ = false;
    return;
  }
  bool wear_emergency = tuning.max_erase_spread > 0 &&
                        wear_.Spread() >= tuning.max_erase_spread;
  if (!wear_emergency &&
      map_.ValidCount(victim) == array_->geometry().pages_per_block) {
    // The wear-blended pick carries zero garbage. Collecting it would
    // relocate a full block to free a full block — no net space. Retry
    // wear-blind: near 100% utilization the wear penalty can shadow a
    // garbage-bearing block behind a younger fully-valid one, and
    // reclaiming space beats leveling when the pool is empty.
    victim = SelectGcVictim(candidates, map_, wear_,
                            GcTuning{/*wear_alpha=*/0.0,
                                     /*max_erase_spread=*/0});
    if (map_.ValidCount(victim) == array_->geometry().pages_per_block) {
      // Genuinely no garbage anywhere: an endless GC treadmill. Stop;
      // garbage only reappears when the host invalidates something. (A
      // wear emergency is the one reason to move a fully-valid block.)
      gc_running_ = false;
      return;
    }
  }
  allocator_.Unseal(victim);
  CollectBlock(victim, CollectMode::kGc, [this](Status) { GcStep(); });
}

bool Ftl::RefreshBlock(uint64_t block, WriteCallback done) {
  return StartReclaim(block, CollectMode::kRefresh, std::move(done));
}

bool Ftl::EscalateBlock(uint64_t block, WriteCallback done) {
  return StartReclaim(block, CollectMode::kRetire, std::move(done));
}

bool Ftl::StartReclaim(uint64_t block, CollectMode mode, WriteCallback done) {
  if (Halted() || reclaim_busy_) return false;
  if (inflight_programs_[block] != 0) return false;
  // Only sealed blocks qualify: open blocks still take programs, and a
  // block GC (or another collect) already unsealed is being handled.
  const std::deque<uint64_t>& sealed = allocator_.sealed_blocks();
  if (std::find(sealed.begin(), sealed.end(), block) == sealed.end()) {
    return false;
  }
  allocator_.Unseal(block);
  reclaim_busy_ = true;
  CollectBlock(block, mode,
               [this, done = std::move(done)](Status status) {
                 reclaim_busy_ = false;
                 done(status);
               });
  return true;
}

void Ftl::CollectBlock(uint64_t victim, CollectMode mode, WriteCallback done) {
  const bool for_gc = mode == CollectMode::kGc;
  if (flightrec_ != nullptr) {
    const char* why = for_gc                            ? "gc collect"
                      : mode == CollectMode::kRefresh   ? "refresh collect"
                                                        : "retire collect";
    flightrec_->Record(sim_->Now(), "ftl",
                       fr_tag_ + why + " block " + std::to_string(victim) +
                           ", valid=" +
                           std::to_string(map_.ValidCount(victim)));
  }
  auto collect =
      std::make_shared<Collect>(Collect{victim, mode, 0, std::move(done)});
  CollectStep(std::move(collect), 0);
}

void Ftl::CollectStep(std::shared_ptr<Collect> collect, uint32_t page) {
  const flash::Geometry& geom = array_->geometry();
  const bool for_gc = collect->mode == CollectMode::kGc;
  if (Halted()) {
    // Power was cut at some crash site; freeze the mid-collect state.
    // The victim stays unsealed and un-erased — exactly what recovery
    // sees. (GC's continuation is dropped; explicit collects abort.)
    if (for_gc) {
      gc_running_ = false;
      return;
    }
    collect->done(Status::Aborted("ftl halted mid-collect"));
    return;
  }
  // Skip the pages that hold no live lpn.
  uint64_t lpn = kUnmapped;
  for (; page < geom.pages_per_block; ++page) {
    lpn = map_.ReverseLookup(collect->victim * geom.pages_per_block + page);
    if (lpn != kUnmapped) break;
  }
  if (page == geom.pages_per_block) {
    // All valid pages moved; dispose of the victim.
    CollectDispose(std::move(collect));
    return;
  }
  uint64_t ppn = collect->victim * geom.pages_per_block + page;
  scheduler_.Read(
      IoClass::kConventional, flash::AddressOfPage(geom, ppn),
      [this, collect, lpn, ppn, page](Status status,
                                      std::vector<uint8_t> data) {
        const bool for_gc = collect->mode == CollectMode::kGc;
        if (!status.ok()) {
          if (for_gc) {
            XSSD_LOG(kWarning) << "GC read failed: " << status.ToString();
          } else {
            ++collect->lost;
            ++stats_.pages_lost;
            if (m_pages_lost_) m_pages_lost_->Add();
          }
          CollectStep(collect, page + 1);
          return;
        }
        if (map_.Lookup(lpn) != ppn) {
          // Overwritten while the relocation read was in flight; the
          // page is stale now — skip it.
          CollectStep(collect, page + 1);
          return;
        }
        if (for_gc && injector_ != nullptr &&
            injector_->CrashPoint(site_prefix_ + "ftl.gc.relocate")) {
          gc_running_ = false;
          return;
        }
        if (for_gc) {
          ++stats_.gc_relocations;
          if (m_gc_pages_moved_) m_gc_pages_moved_->Add();
        } else {
          ++stats_.refresh_relocations;
          if (m_refresh_pages_moved_) m_refresh_pages_moved_->Add();
        }
        // The copy keeps the victim page's logical version; only the
        // physical stamp (inside ProgramPage) is fresh.
        uint64_t seq = map_.SeqOf(lpn);
        ProgramPage(IoClass::kConventional, BlockAllocator::kGcStream, lpn,
                    seq, /*src_ppn=*/ppn, std::move(data),
                    [this, collect, page](Status) {
                      CollectStep(collect, page + 1);
                    });
      });
}

void Ftl::CollectDispose(std::shared_ptr<Collect> collect) {
  const uint64_t victim = collect->victim;
  if (collect->mode == CollectMode::kGc && injector_ != nullptr &&
      injector_->CrashPoint(site_prefix_ + "ftl.gc.erase")) {
    gc_running_ = false;
    return;
  }
  if (collect->mode == CollectMode::kRetire || collect->lost > 0) {
    // Relocated what still reads; retire the husk through the bad-block
    // path. Unreadable lpns stay mapped into it so reads keep failing
    // loudly and the host can escalate to a replica.
    allocator_.MarkBad(victim);
    wear_.Retire(victim);
    if (flightrec_ != nullptr) {
      flightrec_->Record(sim_->Now(), "reliability",
                         fr_tag_ + "block " + std::to_string(victim) +
                             " retired unerased, " +
                             std::to_string(collect->lost) + " lpns lost");
    }
    ++stats_.bad_block_retires;
    if (m_bad_block_retires_) m_bad_block_retires_->Add();
    ++stats_.reliability_retires;
    if (m_reliability_retires_) m_reliability_retires_->Add();
    UpdateGauges();
    UpdateWearGauges();
    collect->done(Status::OK());
    return;
  }
  scheduler_.Erase(
      IoClass::kConventional, flash::AddressOfBlock(array_->geometry(), victim),
      [this, collect](Status status) {
        const uint64_t victim = collect->victim;
        if (status.ok()) {
          wear_.OnErase(victim);
          map_.OnBlockErased(victim);
          allocator_.Release(victim);
          if (collect->mode == CollectMode::kGc) {
            ++stats_.gc_erases;
            if (m_gc_erases_) m_gc_erases_->Add();
          } else {
            ++stats_.refresh_erases;
            if (m_refresh_erases_) m_refresh_erases_->Add();
          }
        } else {
          allocator_.MarkBad(victim);
          wear_.Retire(victim);
          ++stats_.bad_block_retires;
          if (m_bad_block_retires_) m_bad_block_retires_->Add();
        }
        UpdateGauges();
        UpdateWearGauges();
        collect->done(status);
      });
}

PageMap Ftl::RebuildFromOob(RebuildReport* report) const {
  const flash::Geometry& geom = array_->geometry();
  const uint64_t lpn_count = map_.lpn_count();
  // Winner per lpn: highest seq, then highest stamp. Grown-bad blocks are
  // scanned too — a program that went bad after commit still holds data.
  std::vector<uint64_t> best_ppn(lpn_count, kUnmapped);
  std::vector<uint64_t> best_seq(lpn_count, 0);
  std::vector<uint64_t> best_stamp(lpn_count, 0);
  RebuildReport local;
  for (uint64_t ppn = 0; ppn < geom.pages(); ++ppn) {
    const std::vector<uint8_t>* raw =
        array_->PeekOob(flash::AddressOfPage(geom, ppn));
    if (raw == nullptr) continue;
    ++local.pages_scanned;
    OobMeta meta;
    if (!DecodeOob(*raw, &meta) || meta.lpn >= lpn_count) {
      ++local.oob_decode_failures;
      continue;
    }
    if (best_ppn[meta.lpn] != kUnmapped &&
        (meta.seq < best_seq[meta.lpn] ||
         (meta.seq == best_seq[meta.lpn] &&
          meta.stamp < best_stamp[meta.lpn]))) {
      continue;
    }
    best_ppn[meta.lpn] = ppn;
    best_seq[meta.lpn] = meta.seq;
    best_stamp[meta.lpn] = meta.stamp;
  }
  PageMap rebuilt(geom, lpn_count);
  for (uint64_t lpn = 0; lpn < lpn_count; ++lpn) {
    if (best_ppn[lpn] == kUnmapped) continue;
    rebuilt.Map(lpn, best_ppn[lpn], best_seq[lpn], best_stamp[lpn]);
  }
  local.mapped = rebuilt.mapped_pages();
  local.stale_copies =
      local.pages_scanned - local.oob_decode_failures - local.mapped;
  if (report != nullptr) *report = local;
  return rebuilt;
}

}  // namespace xssd::ftl
