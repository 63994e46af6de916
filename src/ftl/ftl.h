#ifndef XSSD_FTL_FTL_H_
#define XSSD_FTL_FTL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "flash/array.h"
#include "ftl/mapping.h"
#include "ftl/scheduler.h"
#include "ftl/slot_table.h"
#include "ftl/wear.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/bandwidth_server.h"

namespace xssd::obs {
class FlightRecorder;
}  // namespace xssd::obs

namespace xssd::fault {
class FaultInjector;
}  // namespace xssd::fault

namespace xssd::ftl {

/// Grown-bad-block program retries before the IoError is surfaced to the
/// caller. Bounds the damage of a fault window that fails every program:
/// past the cap the caller (destage module / host) owns the retry policy.
inline constexpr uint32_t kMaxProgramRetries = 8;

/// \brief FTL configuration.
struct FtlConfig {
  /// Fraction of raw capacity reserved as over-provisioning.
  double overprovision = 0.125;
  /// Data-buffer capacity in pages (the device DRAM write cache).
  uint32_t buffer_pages = 256;
  /// Background flush starts when dirty pages exceed this count.
  uint32_t flush_watermark = 64;
  /// Concurrent background writebacks (spread across dies).
  uint32_t max_writeback_inflight = 32;
  /// GC starts when the erased-block pool falls below this count.
  uint64_t gc_low_watermark = 8;
  /// Wear-leveling blend weight for GC victim selection (GcTuning).
  double gc_wear_alpha = 2.0;
  /// Erase-count-spread bound that triggers cold-data migration (GcTuning).
  uint32_t gc_max_erase_spread = 16;
};

/// Cumulative FTL statistics.
struct FtlStats {
  uint64_t host_writes = 0;       ///< pages written by callers
  uint64_t flash_programs = 0;    ///< pages programmed to NAND
  uint64_t gc_relocations = 0;    ///< valid pages moved by GC
  uint64_t gc_erases = 0;
  uint64_t buffer_hits = 0;       ///< reads served from the data buffer
  uint64_t bad_block_retires = 0;

  // Media-reliability escalation chain (see RefreshBlock/EscalateBlock).
  uint64_t refresh_relocations = 0;  ///< valid pages moved by scrub refresh
  uint64_t refresh_erases = 0;       ///< blocks refreshed (erase + recycle)
  uint64_t uncorrectable_reads = 0;  ///< host reads that surfaced Corruption
  uint64_t escalations = 0;          ///< escalation chains started
  uint64_t reliability_retires = 0;  ///< blocks retired without erase
  uint64_t pages_lost = 0;           ///< pages unreadable during a collect

  /// Write amplification factor observed so far. An idle device has done
  /// no amplification at all — by convention that reads 0.0, not 1.0, so a
  /// dashboard can tell "no traffic yet" from "WA exactly 1".
  double WriteAmplification() const {
    return host_writes == 0
               ? 0.0
               : static_cast<double>(flash_programs) / host_writes;
  }
};

/// What RebuildFromOob saw while scanning the spare areas.
struct RebuildReport {
  uint64_t pages_scanned = 0;        ///< programmed pages with OOB present
  uint64_t oob_decode_failures = 0;  ///< CRC or framing mismatches (skipped)
  uint64_t stale_copies = 0;         ///< candidates that lost a seq/stamp race
  uint64_t mapped = 0;               ///< lpns in the rebuilt map
};

/// \brief The Firmware layer of Figure 2: page-mapped FTL with a DRAM
/// write-back data buffer, greedy garbage collection, bad-block
/// management, and the two-class channel scheduler underneath.
///
/// Conventional writes land in the data buffer and are acknowledged
/// immediately (write-back); Flush() provides the durability barrier the
/// NVMe Flush command maps to. Destage-class writes (the fast side's ring)
/// bypass the buffer — the CMB backing memory *is* their buffer — and go
/// straight to NAND through the scheduler.
class Ftl {
 public:
  using WriteCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, std::vector<uint8_t>)>;
  using FlushCallback = std::function<void(Status)>;

  Ftl(sim::Simulator* sim, flash::Array* array, FtlConfig config);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  /// Logical pages exposed to callers (raw minus over-provisioning).
  uint64_t lpn_count() const { return map_.lpn_count(); }
  uint32_t page_bytes() const { return array_->geometry().page_bytes; }

  /// Buffered page write (conventional class). `done` fires when the data
  /// is accepted into the data buffer, not when it reaches NAND. The buffer
  /// and then the flash array keep the `data` handle; a short page is
  /// zero-padded here, once.
  void WriteBuffered(uint64_t lpn, Bytes data, WriteCallback done);

  /// Direct page write that bypasses the buffer. `done` fires when the
  /// page is programmed. Used by the Destage module (IoClass::kDestage)
  /// and by GC internally. Padded like WriteBuffered.
  void WriteDirect(IoClass io_class, uint64_t lpn, Bytes data,
                   WriteCallback done);

  /// Page read; served from the data buffer when present. The one copy of
  /// the page bytes is made here, into the callback's vector.
  void ReadPage(IoClass io_class, uint64_t lpn, ReadCallback done);

  /// Durability barrier: `done` fires when every page dirty at call time
  /// has been programmed, or with the error of a writeback that fails for
  /// good meanwhile (its page stays dirty for a later Flush to retry).
  void Flush(FlushCallback done);

  /// Invalidate a logical page.
  void Trim(uint64_t lpn);

  /// How a block collection walk disposes of its victim.
  enum class CollectMode {
    kGc,       ///< garbage collection: crash sites + erase + recycle
    kRefresh,  ///< proactive scrub refresh: erase + recycle, dwell resets
    kRetire,   ///< escalation: relocate what reads, retire without erase
  };

  /// Proactively relocate a sealed, quiesced block's valid pages and erase
  /// it — resetting its retention dwell and read-disturb count. Degrades to
  /// retire-without-erase if any page turns out unreadable, so lost lpns
  /// keep signalling Corruption instead of silently reading zeros. Returns
  /// false (and never calls `done`) when the block is open, has programs in
  /// flight, another refresh/escalation is running, or the FTL is halted.
  bool RefreshBlock(uint64_t block, WriteCallback done);

  /// Uncorrectable-read escalation: relocate the block's still-correctable
  /// pages, then retire the block through the bad-block path without
  /// erasing it (the unreadable lpns stay mapped so host reads keep
  /// returning Corruption and can be re-fetched from a replica). Same
  /// refusal conditions as RefreshBlock.
  bool EscalateBlock(uint64_t block, WriteCallback done);

  /// In-flight NAND programs targeting `block` (scrub quiescence probe).
  uint32_t inflight_programs(uint64_t block) const {
    return inflight_programs_[block];
  }

  Scheduler& scheduler() { return scheduler_; }
  const FtlStats& stats() const { return stats_; }
  uint64_t dirty_pages() const { return dirty_count_; }
  uint64_t free_blocks() const { return allocator_.free_blocks(); }
  const PageMap& page_map() const { return map_; }
  const BlockAllocator& allocator() const { return allocator_; }
  const WearTracker& wear() const { return wear_; }

  /// \brief Reconstruct the logical→physical map from the per-page OOB
  /// records alone — the power-loss recovery path.
  ///
  /// Scans every page of every block (grown-bad blocks stay readable) and
  /// keeps, per lpn, the copy with the highest logical version `seq`,
  /// breaking ties on the physical program counter `stamp` (a GC-relocated
  /// copy carries its victim's seq but a fresher stamp, so the relocation
  /// destination wins over the not-yet-erased source). The result equals
  /// the live map (PageMap::operator==) at any quiesced point, with one
  /// documented exception: TRIM is not crash-persistent — an unmapped lpn
  /// whose flash copy still exists is resurrected.
  PageMap RebuildFromOob(RebuildReport* report = nullptr) const;

  /// Arm fault hooks. GC visits crash points `<prefix>ftl.gc.relocate`
  /// (before each relocation program) and `<prefix>ftl.gc.erase` (before
  /// the victim erase); after any crash clause fires the FTL stops
  /// initiating background work (GC, writeback) so the mid-GC state is
  /// frozen for recovery, while already-issued NAND operations complete.
  void SetFaultInjector(fault::FaultInjector* injector,
                        const std::string& site_prefix = "");

  /// Register this FTL's metrics under `prefix` + "ftl." (also wires the
  /// channel scheduler under `prefix` + "ftl.sched.").
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach span tracing (nullptr detaches). Each direct write opens a
  /// flash.program span (issue → programmed, covering scheduler queueing
  /// and bad-block retries) under the ambient context.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a flight recorder (nullptr detaches): block collects
  /// (GC/refresh/retire), block retirements, and uncorrectable host reads
  /// are recorded; a host-read Corruption escalation AutoDumps the ring.
  /// Entries are tagged with `node_tag` so multi-device runs stay legible.
  void SetFlightRecorder(obs::FlightRecorder* recorder,
                         const std::string& node_tag = "");

 private:
  struct BufferSlot {
    Bytes data;
    uint64_t seq = 0;  ///< logical version of the buffered copy
    bool dirty = false;
    bool flushing = false;
    std::list<uint64_t>::iterator lru_pos;
  };

  /// One page program from ProgramPage until its caller hears back: what
  /// a bad-block retry or an out-of-space re-poll needs to start the next
  /// attempt from the record.
  struct PageProgram {
    IoClass io_class = IoClass::kConventional;
    BlockAllocator::Stream stream = BlockAllocator::kConventionalStream;
    uint64_t lpn = 0;
    uint64_t seq = 0;      ///< logical write version carried in the OOB
    uint64_t src_ppn = 0;  ///< kUnmapped, or the page a relocation moves
    Bytes data;            ///< the page; the record keeps it for a retry
    WriteCallback done;
    /// Ended when the caller hears back (null recorder: no span).
    obs::SpanRecorder* spans = nullptr;
    obs::SpanContext span;
    uint32_t attempts = 0;  ///< grown-bad blocks hit so far
    uint64_t stamp = 0;     ///< the current attempt's program counter
    flash::Address target;  ///< the current attempt's page
  };

  /// Program `data` for `lpn` via `stream`, retrying on grown-bad blocks
  /// up to kMaxProgramRetries times. `seq` is the logical write version
  /// carried in the OOB; each physical attempt gets a fresh stamp.
  /// `src_ppn == kUnmapped` maps through PageMap::Map (host/destage write);
  /// otherwise the program is a GC relocation applied via MapRelocated.
  /// A valid `span` on `spans_` ends when `done` is called.
  void ProgramPage(IoClass io_class, BlockAllocator::Stream stream,
                   uint64_t lpn, uint64_t seq, uint64_t src_ppn, Bytes data,
                   WriteCallback done, obs::SpanContext span = {});
  /// Allocate a page for program `id` and queue it on the scheduler, or
  /// re-poll (GC running) or fail (device full) when none is erased.
  void StartProgram(uint32_t id);
  void OnProgramDone(uint32_t id, const Status& status);
  /// Free program `id`'s record, end its span and call its `done`.
  void FinishProgram(uint32_t id, const Status& status);

  /// A flash read of a host ReadPage.
  struct PageRead {
    uint64_t ppn;
    ReadCallback done;
  };
  void OnPageRead(uint32_t id, const Status& status, const Bytes& data);

  /// True after a crash clause fired: stop initiating background work.
  bool Halted() const;

  /// Kick background flushing if the dirty count warrants it.
  void MaybeScheduleFlush();
  /// Write back one dirty page (LRU order). Returns false if nothing
  /// could be started.
  bool FlushOne();
  /// Admit a buffered write or queue it when the buffer is saturated.
  /// `seq` was assigned at accept time; a queued write that gets lapped by
  /// a newer in-buffer write for the same lpn is superseded on admission.
  void AdmitWrite(uint64_t lpn, uint64_t seq, Bytes data, WriteCallback done);
  void DrainAdmissionQueue();
  /// Resolve Flush() waiters whose target has been reached.
  void CheckFlushWaiters();
  /// A writeback of `lpn` failed for good: re-dirty the page unless it was
  /// superseded, fail every waiting Flush() with `status`, and pause
  /// writeback for a retry delay.
  void OnWritebackFailed(uint64_t lpn, const Status& status);

  /// Kick GC if the free pool is low.
  void MaybeStartGc();
  void GcStep();

  /// Shared guard for refresh/escalation: checks the victim is sealed and
  /// quiesced, unseals it, and starts the collection walk.
  bool StartReclaim(uint64_t block, CollectMode mode, WriteCallback done);
  /// Relocate `victim`'s valid pages then dispose of it per `mode`. The
  /// victim must already be unsealed and quiesced. In kGc mode crash sites
  /// fire and a crash freezes the walk; a finished GC walk goes on with
  /// GcStep() and never calls `done`. The other modes call `done`, with
  /// Status::Aborted if the FTL halts mid-walk.
  void CollectBlock(uint64_t victim, CollectMode mode, WriteCallback done);

  /// One CollectBlock walk. It has at most one read, program or erase in
  /// flight, which names the walk by its record.
  struct Collect {
    uint64_t victim = 0;
    CollectMode mode = CollectMode::kGc;
    uint32_t page = 0;         ///< the page the walk is at
    uint64_t lpn = kUnmapped;  ///< that page's lpn when its read was issued
    /// Pages whose relocation read failed. A refresh that hit one must not
    /// erase the victim: erasing would unmap the lost lpns and turn a loud
    /// Corruption into silent zeros. It degrades to a retire instead.
    uint64_t lost = 0;
    WriteCallback done;
  };
  /// Relocate walk `id`'s valid pages from its page on, then dispose of
  /// the victim.
  void CollectStep(uint32_t id);
  void OnCollectRead(uint32_t id, const Status& status, Bytes data);
  /// Erase (or retire) the emptied victim and complete the walk.
  void CollectDispose(uint32_t id);
  void OnCollectErased(uint32_t id, const Status& status);
  /// Free walk `id`'s record: a GC walk goes on with GcStep(), a refresh or
  /// retire clears reclaim_busy_ and reports `status`.
  void FinishCollect(uint32_t id, const Status& status);
  /// A crash froze GC walk `id`: free its record and stop GC.
  void AbandonGc(uint32_t id);

  void TouchLru(uint64_t lpn);
  void EvictIfNeeded();

  /// Refresh the dirty-page / free-block / write-amp gauges (no-op before
  /// SetMetrics).
  void UpdateGauges();
  /// Refresh the erase-count min/max/spread gauges. Linear in block count,
  /// so only called when an erase count actually changed.
  void UpdateWearGauges();

  sim::Simulator* sim_;
  flash::Array* array_;
  FtlConfig config_;
  Scheduler scheduler_;
  PageMap map_;
  BlockAllocator allocator_;
  WearTracker wear_;
  sim::BandwidthServer buffer_port_;

  std::unordered_map<uint64_t, BufferSlot> buffer_;  // lpn -> slot
  std::list<uint64_t> lru_;                          // front = most recent
  uint64_t dirty_count_ = 0;
  uint64_t flush_inflight_ = 0;

  struct FlushWaiter {
    uint64_t remaining;  // dirty+inflight pages to retire before done
    FlushCallback done;
  };
  std::vector<FlushWaiter> flush_waiters_;
  uint64_t flushed_generation_ = 0;  // pages written back so far
  sim::SimTime writeback_paused_until_ = 0;  // set by a failed writeback

  struct AdmissionWaiter {
    uint64_t lpn;
    uint64_t seq;
    Bytes data;
    WriteCallback done;
  };
  std::deque<AdmissionWaiter> admission_queue_;

  SlotTable<PageProgram> programs_;
  SlotTable<PageRead> page_reads_;
  SlotTable<Collect> collects_;

  bool gc_running_ = false;
  /// One refresh/escalation collect at a time (determinism + bounded churn).
  bool reclaim_busy_ = false;
  /// In-flight NAND programs per block. A block is sealed when its last
  /// page is *allocated*, not when it is programmed, so a sealed block can
  /// still have programs in flight; GC must not pick such a block — the
  /// late completion would map a live page into an erased block.
  std::vector<uint32_t> inflight_programs_;
  uint64_t next_seq_ = 1;    ///< logical write versions (0 = never written)
  uint64_t next_stamp_ = 0;  ///< physical program counter (pre-incremented)
  FtlStats stats_;
  fault::FaultInjector* injector_ = nullptr;
  std::string site_prefix_;
  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;
  obs::FlightRecorder* flightrec_ = nullptr;
  std::string fr_tag_;

  // Observability (null until SetMetrics).
  obs::Counter* m_host_writes_ = nullptr;
  obs::Counter* m_flash_programs_ = nullptr;
  obs::Counter* m_gc_pages_moved_ = nullptr;
  obs::Counter* m_gc_erases_ = nullptr;
  obs::Counter* m_buffer_hits_ = nullptr;
  obs::Counter* m_bad_block_retires_ = nullptr;
  obs::Counter* m_refresh_pages_moved_ = nullptr;
  obs::Counter* m_refresh_erases_ = nullptr;
  obs::Counter* m_uncorrectable_reads_ = nullptr;
  obs::Counter* m_escalations_ = nullptr;
  obs::Counter* m_reliability_retires_ = nullptr;
  obs::Counter* m_pages_lost_ = nullptr;
  obs::Gauge* m_dirty_pages_ = nullptr;
  obs::Gauge* m_free_blocks_ = nullptr;
  obs::Gauge* m_write_amp_ = nullptr;
  obs::Gauge* m_erase_min_ = nullptr;
  obs::Gauge* m_erase_max_ = nullptr;
  obs::Gauge* m_erase_spread_ = nullptr;
};

}  // namespace xssd::ftl

#endif  // XSSD_FTL_FTL_H_
