#ifndef XSSD_NTB_NTB_H_
#define XSSD_NTB_NTB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "pcie/fabric.h"
#include "sim/bandwidth_server.h"

namespace xssd::fault {
class FaultInjector;
}  // namespace xssd::fault

namespace xssd::ntb {

/// \brief NTB adapter/link parameters.
///
/// Defaults approximate the Dolphin PXH830 daisy-chain of the paper's
/// testbed. NTB carries raw TLPs — no protocol conversion (paper §2.3) —
/// so the per-packet overhead is the PCIe TLP overhead, and the hop latency
/// is the adapter's cut-through forwarding time.
struct NtbConfig {
  double bytes_per_sec = 2e9;             ///< cross-link bandwidth
  sim::SimTime hop_latency = sim::Ns(1300);  ///< adapter cut-through latency
  uint32_t forward_chunk = 64;           ///< TLP payload granularity
  /// Doorbell/scratchpad region of the BAR: writes landing here are stored
  /// locally (never forwarded) and served back to reads — the mailbox real
  /// NTB hardware exposes, used by the HA supervisor for heartbeats.
  /// scratchpad_bytes == 0 disables the region.
  uint64_t scratchpad_offset = 0;
  uint64_t scratchpad_bytes = 0;
};

/// \brief A Non-Transparent Bridge adapter: an MMIO window on the local
/// fabric whose writes are forwarded — address-translated — into a remote
/// fabric.
///
/// One NtbAdapter models the local card plus the cable to its peer. Windows
/// are the NTB translation entries: [window_base, +size) on this adapter
/// maps to `remote_base` on the peer fabric. A window may target another
/// adapter's window, which is how the daisy-chained three-server topology
/// of the paper composes.
class NtbAdapter : public pcie::MmioDevice {
 public:
  NtbAdapter(sim::Simulator* sim, NtbConfig config, std::string name);

  /// Map [offset, offset+size) of this adapter's BAR onto
  /// remote_fabric[remote_base ...]. Windows must not overlap.
  Status AddWindow(uint64_t offset, uint64_t size,
                   pcie::PcieFabric* remote_fabric, uint64_t remote_base);

  // pcie::MmioDevice — traffic landing on the local window.
  void OnMmioWrite(uint64_t offset, const uint8_t* data, size_t len) override;
  void OnMmioRead(uint64_t offset, uint8_t* out, size_t len) override;

  /// Bytes forwarded across the cable so far (wire bytes incl. overhead) —
  /// the denominator data for Figure 13's bandwidth-share series.
  uint64_t forwarded_wire_bytes() const { return forwarded_wire_bytes_; }
  uint64_t forwarded_payload_bytes() const {
    return forwarded_payload_bytes_;
  }
  uint64_t forwarded_packets() const { return forwarded_packets_; }
  /// Writes/bytes lost to injected link-down windows (flaps).
  uint64_t dropped_writes() const { return dropped_writes_; }
  uint64_t dropped_payload_bytes() const { return dropped_payload_bytes_; }
  void ResetStats() {
    forwarded_wire_bytes_ = 0;
    forwarded_payload_bytes_ = 0;
    forwarded_packets_ = 0;
    dropped_writes_ = 0;
    dropped_payload_bytes_ = 0;
  }

  const NtbConfig& config() const { return config_; }
  sim::BandwidthServer& link() { return link_; }

  /// Register this adapter's metrics under `prefix` + "ntb.".
  void SetMetrics(obs::MetricsRegistry* registry,
                  const std::string& prefix = "");

  /// Attach span tracing (nullptr detaches). Each forwarded write opens an
  /// ntb.link span (cable acquisition → delivery into the remote fabric)
  /// under the ambient context, and relays that context to the remote side.
  void SetSpans(obs::SpanRecorder* spans, const std::string& node_tag);

  /// Attach a fault injector (nullptr detaches). Link-down windows silently
  /// drop forwarded writes (the sender's posted write cannot tell); stall
  /// windows add the injected delay on top of the hop latency. Also governs
  /// inbound scratchpad stores (see set_scratchpad_fault_injector).
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
    scratchpad_injector_ = injector;
  }

  /// Separate injector for *inbound* scratchpad stores only, so a bench
  /// can partition heartbeat delivery asymmetrically from the data path
  /// (a node whose outbound link heals before its inbound one — the
  /// split-brain shape the fencing test needs). nullptr detaches.
  void set_scratchpad_fault_injector(fault::FaultInjector* injector) {
    scratchpad_injector_ = injector;
  }

 private:
  struct Window {
    uint64_t offset;
    uint64_t size;
    pcie::PcieFabric* remote;
    uint64_t remote_base;
  };

  const Window* FindWindow(uint64_t offset) const;

  sim::Simulator* sim_;
  NtbConfig config_;
  std::string name_;
  sim::BandwidthServer link_;
  std::vector<Window> windows_;
  std::vector<uint8_t> scratchpad_;
  fault::FaultInjector* injector_ = nullptr;
  fault::FaultInjector* scratchpad_injector_ = nullptr;
  obs::SpanRecorder* spans_ = nullptr;
  uint16_t span_node_ = 0;

  uint64_t forwarded_wire_bytes_ = 0;
  uint64_t forwarded_payload_bytes_ = 0;
  uint64_t forwarded_packets_ = 0;
  uint64_t dropped_writes_ = 0;
  uint64_t dropped_payload_bytes_ = 0;

  // Observability (null until SetMetrics).
  obs::Counter* m_wire_bytes_ = nullptr;
  obs::Counter* m_payload_bytes_ = nullptr;
  obs::Counter* m_packets_ = nullptr;
  obs::Counter* m_forwards_ = nullptr;
  obs::Counter* m_dropped_writes_ = nullptr;
  obs::Counter* m_dropped_bytes_ = nullptr;
  obs::Gauge* m_link_busy_us_ = nullptr;
};

}  // namespace xssd::ntb

#endif  // XSSD_NTB_NTB_H_
