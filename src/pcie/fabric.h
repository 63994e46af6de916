#ifndef XSSD_PCIE_FABRIC_H_
#define XSSD_PCIE_FABRIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/zeroed_table.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pcie/tlp.h"
#include "sim/bandwidth_server.h"
#include "sim/simulator.h"

namespace xssd::fault {
class FaultInjector;
}  // namespace xssd::fault

namespace xssd::pcie {

/// Receiver of memory-mapped traffic (a BAR region). Offsets are relative to
/// the region base. Writes are posted; reads are served synchronously with
/// respect to functional state — their *timing* is charged by the fabric.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;

  /// A memory-write TLP for [offset, offset + data.size()) landed on this
  /// region. A receiver that keeps the bytes keeps the handle.
  virtual void OnMmioWrite(uint64_t offset, const Bytes& data) = 0;

  /// Serve a memory-read of [offset, offset+len) into `out`.
  virtual void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) = 0;
};

/// Link speeds per PCIe generation, bytes/sec/lane (post-encoding).
double LaneBytesPerSec(int generation);

/// Size of each fabric's simulated host DRAM image.
inline constexpr uint64_t kHostMemoryBytes = 64ull << 20;

/// \brief Configuration of a host's PCIe subsystem.
struct FabricConfig {
  int generation = 2;          ///< Villars is constrained to Gen2 (paper §6)
  int lanes = 4;               ///< ×4 → 2 GB/s, as in the paper's setup
  /// Does nothing: every fabric runs on the simulator's one clock and
  /// queue. It stays only because perfbench/replicated_appends.cc still
  /// sets it, and goes with that assignment.
  uint32_t domain = 0;
};

/// \brief One host's PCIe subsystem: an address map of BAR regions, shared
/// bandwidth in both directions, and a flat host-memory image for DMA.
///
/// This plays the role of the root complex + switch in Figure 2 of the
/// paper. Hosts issue MMIO reads/writes downstream; devices issue DMA
/// upstream and peer-to-peer writes (used by the Transport module to reach
/// the NTB adapter on the same fabric).
class PcieFabric {
 public:
  PcieFabric(sim::Simulator* sim, FabricConfig config, std::string name);

  PcieFabric(const PcieFabric&) = delete;
  PcieFabric& operator=(const PcieFabric&) = delete;

  /// Map `device` at [base, base+size). Regions must not overlap, and the
  /// end must not pass 2^64.
  Status AddMmioRegion(uint64_t base, uint64_t size, MmioDevice* device,
                       std::string region_name);

  // -- Host-initiated traffic (CPU -> device) ------------------------------

  /// Post a memory write of `data` to bus address `addr`, split into TLPs
  /// of at most `chunk` payload bytes (64 for write-combined stores, 8 for
  /// uncached stores, kMaxPayloadBytes for bulk transfers). `posted` fires
  /// when the last TLP has been accepted onto the link (the CPU-visible cost
  /// of a posted write); delivery of the same handle to the device happens
  /// one propagation delay later.
  void HostWrite(uint64_t addr, Bytes data, uint32_t chunk,
                 sim::Simulator::Callback posted = nullptr);

  /// Non-posted memory read; `done` receives the bytes after the round trip.
  void HostRead(uint64_t addr, size_t len,
                std::function<void(std::vector<uint8_t>)> done);

  // -- Device-initiated traffic (device -> host memory, DMA) ---------------

  /// Device writes `len` bytes into host memory at `host_addr`.
  void DmaToHost(uint64_t host_addr, const uint8_t* data, size_t len,
                 sim::Simulator::Callback done);

  /// Device reads `len` bytes of host memory at `host_addr`: the one copy
  /// out of host DRAM, delivered as a Bytes the device passes on.
  void DmaFromHost(uint64_t host_addr, size_t len,
                   std::function<void(Bytes)> done);

  // -- Peer-to-peer (device -> device through the switch) ------------------

  /// A device posts a write to another device's BAR (e.g. Villars Transport
  /// module -> NTB adapter window). Charged on the peer-to-peer server.
  void PeerWrite(uint64_t addr, Bytes data, uint32_t chunk,
                 sim::Simulator::Callback posted = nullptr);

  /// Immediate functional write, bypassing timing. Used for setup/reset
  /// paths, never on measured paths.
  Status FunctionalWrite(uint64_t addr, const uint8_t* data, size_t len);
  Status FunctionalRead(uint64_t addr, uint8_t* out, size_t len);

  // -- Host memory image ----------------------------------------------------

  uint8_t* host_memory() { return host_memory_.data(); }

  sim::Simulator* simulator() { return sim_; }
  const std::string& name() const { return name_; }

  /// Aggregate link bandwidth in bytes/sec (lanes × per-lane rate).
  double link_bytes_per_sec() const { return link_bytes_per_sec_; }

  sim::BandwidthServer& downstream() { return downstream_; }
  sim::BandwidthServer& upstream() { return upstream_; }
  sim::BandwidthServer& peer() { return peer_; }

  /// Register this fabric's metrics under `prefix` + "pcie.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach a fault injector (nullptr detaches). Store-delay faults apply
  /// to every routed write; truncation applies only to the peer path — a
  /// truncated host store would gap the log stream forever (the host never
  /// re-sends), whereas a truncated peer store is healed by the transport
  /// module's retransmit.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Attach span tracing (nullptr detaches). The fabric opens no spans of
  /// its own; it relays the ambient request context across the scheduled
  /// MMIO delivery so device-side spans keep their parent.
  void SetSpans(obs::SpanRecorder* spans) { spans_ = spans; }

 private:
  struct Region {
    uint64_t base;
    uint64_t size;
    MmioDevice* device;
    std::string name;
  };

  /// Region containing `addr`, or nullptr.
  const Region* FindRegion(uint64_t addr) const;

  /// Common write path for HostWrite/PeerWrite.
  void RoutedWrite(sim::BandwidthServer& server, uint64_t addr, Bytes data,
                   uint32_t chunk, sim::Simulator::Callback posted,
                   bool peer_path);

  sim::Simulator* sim_;
  fault::FaultInjector* injector_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  std::string name_;
  double link_bytes_per_sec_;

  sim::BandwidthServer downstream_;
  sim::BandwidthServer upstream_;
  sim::BandwidthServer peer_;
  sim::BandwidthServer host_memory_port_;

  std::vector<Region> regions_;
  /// Reads as zeros (the CQ phase-bit protocol depends on that) without
  /// every page being touched up front.
  ZeroedTable<uint8_t> host_memory_;

  // Observability (null until SetMetrics).
  obs::Counter* m_host_write_bytes_ = nullptr;
  obs::Counter* m_peer_write_bytes_ = nullptr;
  obs::Counter* m_host_read_bytes_ = nullptr;
  obs::Counter* m_dma_to_host_bytes_ = nullptr;
  obs::Counter* m_dma_from_host_bytes_ = nullptr;
};

}  // namespace xssd::pcie

#endif  // XSSD_PCIE_FABRIC_H_
