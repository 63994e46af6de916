#ifndef XSSD_HOST_XLOG_CLIENT_H_
#define XSSD_HOST_XLOG_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/registers.h"
#include "nvme/driver.h"
#include "obs/span.h"
#include "pcie/fabric.h"
#include "pcie/store_engine.h"
#include "sim/simulator.h"

namespace xssd::host {

/// \brief Client options.
struct XLogClientOptions {
  /// MMIO mapping mode for the ring window. Write-combining is the fast
  /// configuration (paper §6.2); uncached exists for the Figure 10 sweep.
  pcie::MmioMode mmio_mode = pcie::MmioMode::kWriteCombining;
  /// Fixed CPU cost charged per credit-register poll (call + load).
  sim::SimTime poll_cpu_overhead = sim::Ns(60);
  /// Keep appends within ring capacity of the destage head. The device's
  /// flow control is advisory (paper §4.1); raw-intake microbenchmarks
  /// (Figure 10) turn this off.
  bool respect_ring_capacity = true;
  /// x_fsync gives up when the credit counter makes no progress for this
  /// long and the device reports itself halted (crash/power fail); Sync
  /// then fails with Unavailable so the caller can Reconnect(). 0 waits
  /// forever (the seed behaviour).
  sim::SimTime sync_stall_timeout = 0;
};

/// \brief Host-side fast-path client for one Villars device: the engine
/// under the x_pwrite / x_fsync / x_pread drop-ins (paper §5.1) and the
/// x_alloc / x_free advanced API (§5.2).
///
/// The append protocol follows Figure 8: write chunks into the CMB ring
/// window using all available credits, then pause and re-read the credit
/// counter; x_fsync polls the counter until everything written has retired
/// to PM (and, under eager replication, to every secondary). These are not
/// system calls — no kernel crossing is charged, only MMIO traffic.
class XLogClient {
 public:
  using DoneCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, std::vector<uint8_t>)>;

  XLogClient(sim::Simulator* sim, pcie::PcieFabric* fabric,
             uint64_t cmb_base, XLogClientOptions options = {});

  XLogClient(const XLogClient&) = delete;
  XLogClient& operator=(const XLogClient&) = delete;

  /// Read device geometry (queue size, ring size, destage ring) off the
  /// control page. Functional; models one-time mmap/negotiation.
  Status Setup();

  /// Adopt the device's current log tail as this client's append position.
  /// Required after a failover promotion: a secondary's ring already holds
  /// the replicated stream, and the new primary must continue appending
  /// where it ends rather than at offset 0.
  Status ResumeAtDeviceTail();

  /// Re-establish the session after the device changed underneath the
  /// client: re-reads geometry and adopts the device's current tail as the
  /// append position. If the device's destage epoch changed (crash/power
  /// failure + Reboot(), or an HA truncation), the tail-read cursors reset
  /// to the new epoch's stream and outstanding allocations are discarded —
  /// their bytes died with the fast side. If the epoch is unchanged (the
  /// local device was *promoted*, its log intact), cursors and allocations
  /// are preserved: the client simply resumes appending at the device tail.
  Status Reconnect();

  /// Sessions established (initial Setup excluded).
  uint64_t reconnects() const { return reconnects_; }
  /// Syncs that failed because the device halted underneath them.
  uint64_t sync_failures() const { return sync_failures_; }

  // -- Append path (x_pwrite) ----------------------------------------------

  /// Append `len` bytes to the log. `done` fires when every chunk has been
  /// posted to the device (not necessarily persisted — call Sync for that).
  void Append(const uint8_t* data, size_t len, DoneCallback done);

  /// Wait until the credit counter covers everything appended (x_fsync).
  void Sync(DoneCallback done);

  /// Append+Sync in one call.
  void AppendDurable(const uint8_t* data, size_t len, DoneCallback done);

  /// Total bytes appended (stream offset of the next byte).
  uint64_t written() const { return written_; }
  /// Last credit value observed.
  uint64_t credit_cache() const { return credit_cache_; }
  /// Number of credit-register polls issued (flow-control cost metric).
  uint64_t credit_polls() const { return credit_polls_; }

  // -- Tail-read path (x_pread, §5.1) ---------------------------------------

  /// Read the next `len` bytes of the destaged log tail, blocking (in
  /// virtual time) until the Destage module has moved enough data to the
  /// conventional side. Reads advance an internal cursor; `driver` performs
  /// the conventional-side NVMe reads.
  ///
  /// Once the destaged counter covers the next page, its ring slot must
  /// hold exactly that page. Any other content means the destage ring
  /// lapped the reader or the stream restarted under it: the bytes are gone
  /// from the conventional side, and the read fails at once with
  /// OutOfRange naming the first lost stream offset, where the cursor
  /// stays.
  void ReadTail(nvme::Driver* driver, size_t len, ReadCallback done);

  uint64_t read_cursor() const { return read_cursor_; }
  /// Always 0: a mismatched slot fails the read instead of being reread.
  /// Kept because perfbench/destage_mixed_io.cc reports it.
  uint64_t slot_rereads() const { return 0; }
  /// Tail reads failed with OutOfRange because the ring no longer held the
  /// requested stream bytes.
  uint64_t read_deadline_failures() const { return read_deadline_failures_; }

  // -- Replica re-fetch (uncorrectable-read escalation, §4.2 HA) ------------

  /// Arm the tail-read path to survive an uncorrectable conventional-side
  /// read: `window_base` is the local bus address of an NTB window mapped
  /// onto a replica's CMB BAR (host::StorageNode::ConnectWindowTo). When a
  /// destage-ring read fails with Corruption, the client reads the
  /// replica's persisted credit and pulls the lost page's stream extent
  /// straight out of the replica's PM ring over the window, then resumes
  /// past the dead slot — no client-visible error. 0 disarms (seed
  /// behaviour: Corruption propagates to the caller).
  void SetReplicaWindow(uint64_t window_base) {
    replica_window_base_ = window_base;
  }
  /// Lost extents successfully re-fetched from the replica.
  uint64_t replica_fetches() const { return replica_fetches_; }
  /// Stream bytes recovered over the replica window.
  uint64_t replica_fetched_bytes() const { return replica_fetched_bytes_; }

  // -- Advanced API (x_alloc / x_free, §5.2) --------------------------------

  /// Reserve `len` bytes of the stream for random-order filling. The area
  /// is withheld from destaging until freed. Returns the stream offset.
  Result<uint64_t> XAlloc(size_t len);

  /// Write inside an allocated area (no credit gating; the allocation
  /// discipline bounds outstanding bytes).
  void WriteAt(uint64_t stream_offset, const uint8_t* data, size_t len,
               DoneCallback done);

  /// Mark an allocated area filled; once the lowest active area is freed
  /// the destage barrier advances past it.
  Status XFree(uint64_t stream_offset);

  uint64_t queue_bytes() const { return queue_bytes_; }
  uint64_t ring_bytes() const { return ring_bytes_; }

  /// Attach span tracing (nullptr detaches). Each Append/Sync/ReadTail/
  /// WriteAt call mints a root request span covering its stream range;
  /// device-side spans nest under it through the fabric's context relay.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

 private:
  /// One stage of the Append loop: write what the window allows, then poll.
  /// `ctx` is the root request span, re-established as the ambient context
  /// at every asynchronous re-entry.
  void AppendLoop(std::shared_ptr<std::vector<uint8_t>> data, size_t offset,
                  obs::SpanContext ctx, DoneCallback done);

  /// The one ring store: write stream bytes [stream_offset, +len) into the
  /// CMB ring window, wrapping at the ring end; `posted` fires once the
  /// last store is posted.
  void StoreRing(uint64_t stream_offset, const uint8_t* data, size_t len,
                 sim::Simulator::Callback posted);

  /// Async read of a control register.
  void ReadRegister(uint64_t reg, std::function<void(uint64_t)> done);

  void SyncLoop(obs::SpanContext ctx, DoneCallback done,
                sim::SimTime last_progress);
  void ReadTailLoop(nvme::Driver* driver, size_t len,
                    std::shared_ptr<std::vector<uint8_t>> acc,
                    obs::SpanContext ctx, ReadCallback done);
  /// Recover the lost page's stream extent from the replica ring after an
  /// uncorrectable destage-ring read; falls back to `local_status` when the
  /// replica cannot cover it (not yet replicated, or already overwritten).
  void ReplicaFetch(nvme::Driver* driver, size_t len,
                    std::shared_ptr<std::vector<uint8_t>> acc,
                    obs::SpanContext ctx, ReadCallback done,
                    Status local_status);
  void PushBarrier();

  sim::Simulator* sim_;
  pcie::PcieFabric* fabric_;
  uint64_t cmb_base_;
  XLogClientOptions options_;
  pcie::StoreEngine store_engine_;

  uint64_t queue_bytes_ = 0;
  uint64_t ring_bytes_ = 0;
  uint64_t destage_start_lba_ = 0;
  uint64_t destage_lba_count_ = 0;

  uint64_t written_ = 0;
  uint64_t credit_cache_ = 0;
  uint64_t epoch_cache_ = 0;
  uint64_t destaged_cache_ = 0;
  uint64_t credit_polls_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t sync_failures_ = 0;

  // x_pread cursors.
  uint64_t read_cursor_ = 0;
  uint64_t read_seq_ = 0;  ///< next destage-ring sequence to parse
  std::vector<uint8_t> tail_leftover_;  ///< page bytes past the last read
  uint64_t read_deadline_failures_ = 0;

  // Replica re-fetch (0 = disarmed).
  uint64_t replica_window_base_ = 0;
  uint64_t replica_fetches_ = 0;
  uint64_t replica_fetched_bytes_ = 0;

  // x_alloc state.
  struct Allocation {
    uint64_t len;
    bool freed;
  };
  std::map<uint64_t, Allocation> allocations_;  // offset -> state

  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;
};

}  // namespace xssd::host

#endif  // XSSD_HOST_XLOG_CLIENT_H_
