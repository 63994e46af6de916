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

/// Device DRAM bandwidth serving the data buffer (DDR3 on Cosmos+).
constexpr double kBufferBytesPerSec = 2e9;
/// Fixed device firmware latency per buffered-write acknowledgment.
constexpr sim::SimTime kFirmwareLatency = sim::Us(2);
/// Erased blocks held back for GC relocation (BlockAllocator reserve).
/// Prevents host streams from draining the pool GC needs to make
/// progress — see BlockAllocator::set_gc_reserve.
constexpr uint64_t kGcReservedBlocks = 2;

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
      buffer_port_(sim, kBufferBytesPerSec),
      inflight_programs_(array->geometry().blocks(), 0) {
  allocator_.set_gc_reserve(kGcReservedBlocks);
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

void Ftl::WriteBuffered(uint64_t lpn, Bytes data, WriteCallback done) {
  XSSD_CHECK(lpn < map_.lpn_count());
  data = data.Fit(page_bytes());
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

void Ftl::AdmitWrite(uint64_t lpn, uint64_t seq, Bytes data,
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
  sim_->ScheduleAt(ack + kFirmwareLatency,
                   [done = std::move(done)]() { done(Status::OK()); });
}

void Ftl::WriteDirect(IoClass io_class, uint64_t lpn, Bytes data,
                      WriteCallback done) {
  XSSD_CHECK(lpn < map_.lpn_count());
  data = data.Fit(page_bytes());
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
  obs::SpanContext span;
  if (spans_) {
    // Issue → programmed, including scheduler queueing and bad-block
    // retries. GC's internal WriteDirect calls have no ambient request
    // context and record never-joined orphans.
    span = spans_->StartSpan(obs::Stage::kFlashProgram, span_node_,
                             spans_->current());
  }
  ProgramPage(io_class, StreamFor(io_class), lpn, seq, kUnmapped,
              std::move(data), std::move(done), span);
}

void Ftl::ProgramPage(IoClass io_class, BlockAllocator::Stream stream,
                      uint64_t lpn, uint64_t seq, uint64_t src_ppn,
                      Bytes data, WriteCallback done, obs::SpanContext span) {
  PageProgram program;
  program.io_class = io_class;
  program.stream = stream;
  program.lpn = lpn;
  program.seq = seq;
  program.src_ppn = src_ppn;
  program.data = std::move(data);
  program.done = std::move(done);
  if (span.valid()) {
    program.spans = spans_;
    program.span = span;
  }
  StartProgram(programs_.Add(std::move(program)));
}

void Ftl::StartProgram(uint32_t id) {
  Result<flash::Address> addr = allocator_.AllocatePage(programs_[id].stream);
  if (!addr.ok()) {
    // Out of erased blocks: force a GC pass, then retry.
    MaybeStartGc();
    if (!gc_running_) {
      Status full = Status::ResourceExhausted("device full: no erased blocks");
      FinishProgram(id, full);
      return;
    }
    sim_->Schedule(sim::Us(100), [this, id]() { StartProgram(id); });
    return;
  }
  PageProgram& program = programs_[id];
  program.target = *addr;
  // Every physical program carries {lpn, seq, stamp} in the spare area —
  // the recovery record. The stamp is fresh per attempt so a relocated
  // copy always outranks its source under equal seq.
  program.stamp = ++next_stamp_;
  flash::Oob oob = EncodeOob(OobMeta{program.lpn, program.seq, program.stamp});
  ++inflight_programs_[flash::BlockIndex(array_->geometry(), program.target)];
  // The array keeps one handle on the page; the record keeps another for
  // a retry. The scheduler adds no program record, so `program` stays
  // valid through the call.
  scheduler_.Program(program.io_class, program.target, program.data, oob,
                     [this, id](Status status) { OnProgramDone(id, status); });
}

void Ftl::OnProgramDone(uint32_t id, const Status& status) {
  const flash::Geometry& geom = array_->geometry();
  const uint64_t block = flash::BlockIndex(geom, programs_[id].target);
  --inflight_programs_[block];
  if (status.IsIoError()) {
    // Grown bad block: retire it and retry elsewhere (paper §7.1:
    // "handled internally by picking a new block to write").
    allocator_.MarkBad(block);
    wear_.Retire(block);
    UpdateWearGauges();
    ++stats_.bad_block_retires;
    if (m_bad_block_retires_) m_bad_block_retires_->Add();
    if (++programs_[id].attempts >= kMaxProgramRetries) {
      // A fault window is failing every program; stop burning blocks
      // and let the caller apply its own retry/backoff policy.
      FinishProgram(id, status);
      return;
    }
    StartProgram(id);
    return;
  }
  if (!status.ok()) {
    FinishProgram(id, status);
    return;
  }
  ++stats_.flash_programs;
  if (m_flash_programs_) m_flash_programs_->Add();
  const PageProgram& program = programs_[id];
  const uint64_t ppn = flash::PageIndex(geom, program.target);
  if (program.src_ppn == kUnmapped) {
    // Host/destage write: applies unless a copy outranking it under
    // the (seq, stamp) recovery order completed first (out-of-order
    // die completions, duplicate writebacks of one version).
    map_.Map(program.lpn, ppn, program.seq, program.stamp);
  } else {
    // GC/scrub relocation: applies while the source (or a same-seq,
    // older-stamp duplicate of it) is the live copy; a host rewrite
    // to a newer version mid-flight makes this a dead page.
    map_.MapRelocated(program.lpn, program.src_ppn, ppn, program.seq,
                      program.stamp);
  }
  UpdateGauges();
  MaybeStartGc();
  FinishProgram(id, Status::OK());
}

void Ftl::FinishProgram(uint32_t id, const Status& status) {
  PageProgram program = programs_.Take(id);
  if (program.spans != nullptr) program.spans->EndSpan(program.span);
  program.done(status);
}

void Ftl::ReadPage(IoClass io_class, uint64_t lpn, ReadCallback done) {
  XSSD_CHECK(lpn < map_.lpn_count());
  auto it = buffer_.find(lpn);
  if (it != buffer_.end()) {
    ++stats_.buffer_hits;
    if (m_buffer_hits_) m_buffer_hits_->Add();
    TouchLru(lpn);
    // The event holds the page handle (buffered pages are immutable) and
    // makes the caller's copy when it fires.
    sim::SimTime at = buffer_port_.Acquire(page_bytes());
    sim_->ScheduleAt(at + kFirmwareLatency,
                     [data = it->second.data, done = std::move(done)]() {
                       done(Status::OK(), data.ToVector());
                     });
    return;
  }
  uint64_t ppn = map_.Lookup(lpn);
  if (ppn == kUnmapped) {
    // Unwritten page reads as zeros, like a fresh namespace.
    sim_->Schedule(kFirmwareLatency,
                   [len = page_bytes(), done = std::move(done)]() {
                     done(Status::OK(), std::vector<uint8_t>(len, 0));
                   });
    return;
  }
  const uint32_t id = page_reads_.Add(PageRead{ppn, std::move(done)});
  scheduler_.Read(io_class, flash::AddressOfPage(array_->geometry(), ppn),
                  [this, id](Status status, Bytes data) {
                    OnPageRead(id, status, data);
                  });
}

void Ftl::OnPageRead(uint32_t id, const Status& status, const Bytes& data) {
  PageRead read = page_reads_.Take(id);
  if (status.IsCorruption()) {
    // Retry-ladder exhaustion reached the host path. Start the
    // escalation chain in the background — relocate what still reads,
    // retire the block — while the Corruption propagates so the
    // caller can re-fetch the lost range from a replica.
    ++stats_.uncorrectable_reads;
    if (m_uncorrectable_reads_) m_uncorrectable_reads_->Add();
    uint64_t block = read.ppn / array_->geometry().pages_per_block;
    if (flightrec_ != nullptr) {
      flightrec_->Record(sim_->Now(), "reliability",
                         fr_tag_ + "uncorrectable host read ppn=" +
                             std::to_string(read.ppn) +
                             ", escalating block " + std::to_string(block));
    }
    if (EscalateBlock(block, [](Status) {})) {
      ++stats_.escalations;
      if (m_escalations_) m_escalations_->Add();
    }
    if (flightrec_ != nullptr) {
      flightrec_->AutoDump("Corruption escalation on host read");
    }
  }
  read.done(status, data.ToVector());
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
    ProgramPage(IoClass::kConventional, BlockAllocator::kConventionalStream,
                lpn, it->second.seq, kUnmapped, it->second.data,
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
    sim_->Schedule(kFirmwareLatency, [done = std::move(done)]() {
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
  const std::deque<uint64_t>& sealed = allocator_.sealed_blocks();
  uint32_t min_candidate_erase = std::numeric_limits<uint32_t>::max();
  for (uint64_t b : sealed) {
    if (inflight_programs_[b] != 0) continue;
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
  uint64_t victim =
      SelectGcVictim(sealed, map_, wear_, tuning, &inflight_programs_);
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
    victim = SelectGcVictim(sealed, map_, wear_,
                            GcTuning{/*wear_alpha=*/0.0,
                                     /*max_erase_spread=*/0},
                            &inflight_programs_);
    if (map_.ValidCount(victim) == array_->geometry().pages_per_block) {
      // Genuinely no garbage anywhere: an endless GC treadmill. Stop;
      // garbage only reappears when the host invalidates something. (A
      // wear emergency is the one reason to move a fully-valid block.)
      gc_running_ = false;
      return;
    }
  }
  allocator_.Unseal(victim);
  CollectBlock(victim, CollectMode::kGc, nullptr);
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
  CollectBlock(block, mode, std::move(done));
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
  Collect collect;
  collect.victim = victim;
  collect.mode = mode;
  collect.done = std::move(done);
  CollectStep(collects_.Add(std::move(collect)));
}

void Ftl::CollectStep(uint32_t id) {
  const flash::Geometry& geom = array_->geometry();
  if (Halted()) {
    // Power was cut at some crash site; freeze the mid-collect state.
    // The victim stays unsealed and un-erased — exactly what recovery
    // sees. (GC's continuation is dropped; explicit collects abort.)
    if (collects_[id].mode == CollectMode::kGc) {
      AbandonGc(id);
      return;
    }
    FinishCollect(id, Status::Aborted("ftl halted mid-collect"));
    return;
  }
  // Skip the pages that hold no live lpn.
  Collect& collect = collects_[id];
  const uint64_t first_ppn = collect.victim * geom.pages_per_block;
  uint64_t lpn = kUnmapped;
  for (; collect.page < geom.pages_per_block; ++collect.page) {
    lpn = map_.ReverseLookup(first_ppn + collect.page);
    if (lpn != kUnmapped) break;
  }
  if (collect.page == geom.pages_per_block) {
    // All valid pages moved; dispose of the victim.
    CollectDispose(id);
    return;
  }
  collect.lpn = lpn;
  scheduler_.Read(IoClass::kConventional,
                  flash::AddressOfPage(geom, first_ppn + collect.page),
                  [this, id](Status status, Bytes data) {
                    OnCollectRead(id, status, std::move(data));
                  });
}

void Ftl::OnCollectRead(uint32_t id, const Status& status, Bytes data) {
  Collect& collect = collects_[id];
  const bool for_gc = collect.mode == CollectMode::kGc;
  const uint64_t ppn =
      collect.victim * array_->geometry().pages_per_block + collect.page;
  if (!status.ok()) {
    if (for_gc) {
      XSSD_LOG(kWarning) << "GC read failed: " << status.ToString();
    } else {
      ++collect.lost;
      ++stats_.pages_lost;
      if (m_pages_lost_) m_pages_lost_->Add();
    }
    ++collect.page;
    CollectStep(id);
    return;
  }
  if (map_.Lookup(collect.lpn) != ppn) {
    // Overwritten while the relocation read was in flight; the
    // page is stale now — skip it.
    ++collect.page;
    CollectStep(id);
    return;
  }
  if (for_gc && injector_ != nullptr &&
      injector_->CrashPoint(site_prefix_ + "ftl.gc.relocate")) {
    AbandonGc(id);
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
  const uint64_t lpn = collect.lpn;
  ProgramPage(IoClass::kConventional, BlockAllocator::kGcStream, lpn,
              map_.SeqOf(lpn), /*src_ppn=*/ppn, std::move(data),
              [this, id](Status) {
                ++collects_[id].page;
                CollectStep(id);
              });
}

void Ftl::CollectDispose(uint32_t id) {
  const Collect& collect = collects_[id];
  const uint64_t victim = collect.victim;
  if (collect.mode == CollectMode::kGc && injector_ != nullptr &&
      injector_->CrashPoint(site_prefix_ + "ftl.gc.erase")) {
    AbandonGc(id);
    return;
  }
  if (collect.mode == CollectMode::kRetire || collect.lost > 0) {
    // Relocated what still reads; retire the husk through the bad-block
    // path. Unreadable lpns stay mapped into it so reads keep failing
    // loudly and the host can escalate to a replica.
    allocator_.MarkBad(victim);
    wear_.Retire(victim);
    if (flightrec_ != nullptr) {
      flightrec_->Record(sim_->Now(), "reliability",
                         fr_tag_ + "block " + std::to_string(victim) +
                             " retired unerased, " +
                             std::to_string(collect.lost) + " lpns lost");
    }
    ++stats_.bad_block_retires;
    if (m_bad_block_retires_) m_bad_block_retires_->Add();
    ++stats_.reliability_retires;
    if (m_reliability_retires_) m_reliability_retires_->Add();
    UpdateGauges();
    UpdateWearGauges();
    FinishCollect(id, Status::OK());
    return;
  }
  scheduler_.Erase(IoClass::kConventional,
                   flash::AddressOfBlock(array_->geometry(), victim),
                   [this, id](Status status) { OnCollectErased(id, status); });
}

void Ftl::OnCollectErased(uint32_t id, const Status& status) {
  const uint64_t victim = collects_[id].victim;
  if (status.ok()) {
    wear_.OnErase(victim);
    map_.OnBlockErased(victim);
    allocator_.Release(victim);
    if (collects_[id].mode == CollectMode::kGc) {
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
  FinishCollect(id, status);
}

void Ftl::FinishCollect(uint32_t id, const Status& status) {
  Collect collect = collects_.Take(id);
  if (collect.mode == CollectMode::kGc) {
    GcStep();
    return;
  }
  reclaim_busy_ = false;
  collect.done(status);
}

void Ftl::AbandonGc(uint32_t id) {
  collects_.Take(id);
  gc_running_ = false;
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
    const flash::Oob* raw = array_->PeekOob(flash::AddressOfPage(geom, ppn));
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
