#include "pcie/fabric.h"

#include <cstring>

#include "common/logging.h"
#include "fault/fault_injector.h"

namespace xssd::pcie {

/// One-way switch+wire latency.
constexpr sim::SimTime kPropagation = sim::Ns(250);
/// Device read service time.
constexpr sim::SimTime kReadTurnaround = sim::Ns(400);
/// DDR bandwidth for DMA.
constexpr double kHostMemoryBytesPerSec = 12e9;

double LaneBytesPerSec(int generation) {
  // Effective per-lane data rates after encoding overhead.
  switch (generation) {
    case 1:
      return 250e6;  // 2.5 GT/s, 8b/10b
    case 2:
      return 500e6;  // 5.0 GT/s, 8b/10b
    case 3:
      return 985e6;  // 8.0 GT/s, 128b/130b
    case 4:
      return 1969e6;
    default:
      return 500e6;
  }
}

PcieFabric::PcieFabric(sim::Simulator* sim, FabricConfig config,
                       std::string name)
    : sim_(sim),
      name_(std::move(name)),
      link_bytes_per_sec_(LaneBytesPerSec(config.generation) * config.lanes),
      downstream_(sim, link_bytes_per_sec_),
      upstream_(sim, link_bytes_per_sec_),
      peer_(sim, link_bytes_per_sec_),
      host_memory_port_(sim, kHostMemoryBytesPerSec),
      host_memory_(kHostMemoryBytes) {}

void PcieFabric::SetMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  m_host_write_bytes_ =
      registry->GetCounter(prefix + "pcie.host_write_bytes");
  m_peer_write_bytes_ =
      registry->GetCounter(prefix + "pcie.peer_write_bytes");
  m_host_read_bytes_ = registry->GetCounter(prefix + "pcie.host_read_bytes");
  m_dma_to_host_bytes_ =
      registry->GetCounter(prefix + "pcie.dma_to_host_bytes");
  m_dma_from_host_bytes_ =
      registry->GetCounter(prefix + "pcie.dma_from_host_bytes");
}

Status PcieFabric::AddMmioRegion(uint64_t base, uint64_t size,
                                 MmioDevice* device,
                                 std::string region_name) {
  if (device == nullptr || size == 0 || size > UINT64_MAX - base) {
    return Status::InvalidArgument("null device, empty or wrapping region");
  }
  for (const Region& r : regions_) {
    bool disjoint = base + size <= r.base || r.base + r.size <= base;
    if (!disjoint) {
      return Status::InvalidArgument("MMIO region overlaps " + r.name);
    }
  }
  regions_.push_back(Region{base, size, device, std::move(region_name)});
  return Status::OK();
}

const PcieFabric::Region* PcieFabric::FindRegion(uint64_t addr) const {
  for (const Region& r : regions_) {
    if (addr >= r.base && addr < r.base + r.size) return &r;
  }
  return nullptr;
}

void PcieFabric::RoutedWrite(sim::BandwidthServer& server, uint64_t addr,
                             Bytes data, uint32_t chunk,
                             sim::Simulator::Callback posted, bool peer_path) {
  const size_t len = data.size();
  const Region* region = FindRegion(addr);
  XSSD_CHECK(region != nullptr);
  XSSD_CHECK(len <= region->base + region->size - addr);
  XSSD_CHECK(chunk > 0);

  // One Acquire covers all TLPs of this write back-to-back on the link.
  uint64_t wire_bytes = WireBytesFor(len, chunk);
  size_t landed = len;
  sim::SimTime extra_delay = 0;
  if (injector_ != nullptr) {
    extra_delay = injector_->InjectPcieStoreDelay();
    if (peer_path) {
      landed = static_cast<size_t>(injector_->InjectPcieTruncation(len));
    }
  }
  if (landed < len) data = data.Slice(0, landed);
  uint64_t offset = addr - region->base;
  MmioDevice* device = region->device;
  sim::SimTime done_at = server.Acquire(wire_bytes);
  if (landed > 0) {
    // Carry the ambient request context across the asynchronous delivery so
    // spans opened by the device keep their parent (pure bookkeeping; the
    // schedule is identical with tracing off).
    obs::SpanContext ctx =
        spans_ ? spans_->current() : obs::SpanContext{};
    sim_->ScheduleAt(done_at + kPropagation + extra_delay,
                     [this, ctx, device, offset, data = std::move(data)]() {
                       obs::ScopedContext scope(spans_, ctx);
                       device->OnMmioWrite(offset, data);
                     });
  }
  // The write stays posted: the sender sees acceptance onto the link, never
  // the injected loss — exactly why posted-write faults are insidious.
  if (posted) sim_->ScheduleAt(done_at, std::move(posted));
}

void PcieFabric::HostWrite(uint64_t addr, Bytes data, uint32_t chunk,
                           sim::Simulator::Callback posted) {
  if (m_host_write_bytes_) m_host_write_bytes_->Add(data.size());
  RoutedWrite(downstream_, addr, std::move(data), chunk, std::move(posted),
              /*peer_path=*/false);
}

void PcieFabric::PeerWrite(uint64_t addr, Bytes data, uint32_t chunk,
                           sim::Simulator::Callback posted) {
  if (m_peer_write_bytes_) m_peer_write_bytes_->Add(data.size());
  RoutedWrite(peer_, addr, std::move(data), chunk, std::move(posted),
              /*peer_path=*/true);
}

void PcieFabric::HostRead(uint64_t addr, size_t len,
                          std::function<void(std::vector<uint8_t>)> done) {
  const Region* region = FindRegion(addr);
  XSSD_CHECK(region != nullptr);
  XSSD_CHECK(len <= region->base + region->size - addr);
  if (m_host_read_bytes_) m_host_read_bytes_->Add(len);

  // Request TLP downstream.
  sim::SimTime req_done = downstream_.Acquire(kTlpOverheadBytes);
  uint64_t offset = addr - region->base;
  MmioDevice* device = region->device;
  sim::SimTime service_at = req_done + kPropagation + kReadTurnaround;
  sim_->ScheduleAt(service_at, [this, device, offset, len,
                                done = std::move(done)]() mutable {
    // Device serves the read *now* (functional state as of this instant),
    // then the completion travels upstream.
    std::vector<uint8_t> data(len, 0);
    device->OnMmioRead(offset, data.data(), len);
    sim::SimTime cpl_done =
        upstream_.Acquire(WireBytesFor(len, kMaxPayloadBytes));
    sim_->ScheduleAt(
        cpl_done + kPropagation,
        [data = std::move(data), done = std::move(done)]() mutable {
          done(std::move(data));
        });
  });
}

void PcieFabric::DmaToHost(uint64_t host_addr, const uint8_t* data, size_t len,
                           sim::Simulator::Callback done) {
  XSSD_CHECK(host_addr <= kHostMemoryBytes &&
             len <= kHostMemoryBytes - host_addr);
  if (m_dma_to_host_bytes_) m_dma_to_host_bytes_->Add(len);
  std::vector<uint8_t> copy(data, data + len);
  sim::SimTime link_done =
      upstream_.Acquire(WireBytesFor(len, kMaxPayloadBytes));
  sim_->ScheduleAt(link_done, [this, host_addr, copy = std::move(copy),
                               done = std::move(done)]() mutable {
    std::memcpy(host_memory() + host_addr, copy.data(), copy.size());
    host_memory_port_.Acquire(copy.size(), std::move(done));
  });
}

void PcieFabric::DmaFromHost(uint64_t host_addr, size_t len,
                             std::function<void(Bytes)> done) {
  XSSD_CHECK(host_addr <= kHostMemoryBytes &&
             len <= kHostMemoryBytes - host_addr);
  if (m_dma_from_host_bytes_) m_dma_from_host_bytes_->Add(len);
  // Read request downstream is negligible; charge memory port + upstream
  // completion stream.
  sim::SimTime mem_done = host_memory_port_.Acquire(len);
  sim_->ScheduleAt(mem_done, [this, host_addr, len,
                              done = std::move(done)]() mutable {
    Bytes data = Bytes::Copy(host_memory() + host_addr, len);
    sim::SimTime link_done =
        downstream_.Acquire(WireBytesFor(len, kMaxPayloadBytes));
    sim_->ScheduleAt(
        link_done + kPropagation,
        [data = std::move(data), done = std::move(done)]() mutable {
          done(std::move(data));
        });
  });
}

Status PcieFabric::FunctionalWrite(uint64_t addr, const uint8_t* data,
                                   size_t len) {
  const Region* region = FindRegion(addr);
  if (region == nullptr || len > region->base + region->size - addr) {
    return Status::OutOfRange("no MMIO region covers address");
  }
  region->device->OnMmioWrite(addr - region->base, Bytes::Copy(data, len));
  return Status::OK();
}

Status PcieFabric::FunctionalRead(uint64_t addr, uint8_t* out, size_t len) {
  const Region* region = FindRegion(addr);
  if (region == nullptr || len > region->base + region->size - addr) {
    return Status::OutOfRange("no MMIO region covers address");
  }
  region->device->OnMmioRead(addr - region->base, out, len);
  return Status::OK();
}

}  // namespace xssd::pcie
