#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/crc32.h"
#include "core/page_format.h"
#include "obs/critical_path.h"
#include "sim/event_pool.h"

// The allocation counter behind proc.allocs_per_op: every global
// operator new of the benchmark process, simulator included, is counted.
namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(align);
  if (a < sizeof(void*)) a = sizeof(void*);
  std::size_t size = (n + a - 1) / a * a;
  return std::aligned_alloc(a, size == 0 ? a : size);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = CountedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t align) {
  void* p = CountedAlignedAlloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  void* p = CountedAlignedAlloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace xssd::perfbench {

uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

void Digest::Mix(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void Digest::MixDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(bits);
}

void Digest::MixLatencies(const sim::LatencyRecorder& recorder) {
  Mix(recorder.count());
  MixDouble(recorder.Mean());
  for (double p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    MixDouble(recorder.Percentile(p));
  }
}

namespace {
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
}  // namespace

void FillStream(uint64_t seed, uint64_t offset, uint8_t* out, size_t len) {
  // Byte i of the stream is byte (i % 8) of SplitMix64(key ^ (i / 8)),
  // little-endian; whole words are copied at once.
  const uint64_t key = SplitMix64(seed);
  size_t i = 0;
  while (i < len && ((offset + i) & 7) != 0) {
    uint64_t at = offset + i;
    out[i++] = static_cast<uint8_t>(SplitMix64(key ^ (at >> 3)) >> (8 * (at & 7)));
  }
  for (; i + 8 <= len; i += 8) {
    uint64_t word = SplitMix64(key ^ ((offset + i) >> 3));
    uint8_t bytes[8];
    for (int b = 0; b < 8; ++b) bytes[b] = static_cast<uint8_t>(word >> (8 * b));
    std::memcpy(out + i, bytes, 8);
  }
  for (; i < len; ++i) {
    uint64_t at = offset + i;
    out[i] = static_cast<uint8_t>(SplitMix64(key ^ (at >> 3)) >> (8 * (at & 7)));
  }
}

void Probes::Watch(const core::CmbModule* cmb, const ftl::Ftl* ftl) {
  timer.set_after_event([this, cmb, ftl] {
    if (cmb != nullptr) {
      staging_max = std::max(staging_max, cmb->staging_occupancy());
    }
    free_blocks_min = std::min(free_blocks_min, ftl->free_blocks());
  });
}

void Probes::AddExtremes(EpisodeResult* result) const {
  result->layer["cmb.staging_occupancy_bytes_max"] =
      static_cast<double>(staging_max);
  result->layer["ftl.free_blocks_min"] = static_cast<double>(free_blocks_min);
}

TimedPhase::TimedPhase(sim::Simulator* sim, CallbackTimer* timer,
                       sim::SimTime segment)
    : sim_(sim),
      timer_(timer),
      segment_(segment),
      events0_(sim->executed_events()),
      allocs0_(AllocationCount()),
      spills0_(sim::EventFn::heap_fallbacks()) {
  if (timer_ != nullptr) sim_->set_trace_sink(timer_);
  if (sim_->backend() != sim::Simulator::SchedulerBackend::kParallel) {
    next_due_ = sim_->Now() + segment_;
    sim_->set_time_observer(this, next_due_);
    observing_ = true;
  }
  start_ = Clock::now();
}

TimedPhase::~TimedPhase() { Detach(); }

void TimedPhase::Detach() {
  if (observing_) sim_->set_time_observer(nullptr, 0);
  observing_ = false;
}

sim::SimTime TimedPhase::OnTimeAdvance(sim::SimTime when) {
  Clock::time_point now = Clock::now();
  while (when >= next_due_) {
    stamps_.push_back(now);
    next_due_ += segment_;
  }
  return next_due_;
}

void TimedPhase::End(uint64_t ops, EpisodeResult* result) {
  Clock::time_point end = Clock::now();
  double wall_s = std::chrono::duration<double>(end - start_).count();
  Detach();
  if (timer_ != nullptr) sim_->set_trace_sink(nullptr);
  result->timed_host_s = wall_s;
  Clock::time_point previous = start_;
  stamps_.push_back(end);
  for (Clock::time_point stamp : stamps_) {
    result->segment_host_s.push_back(
        std::chrono::duration<double>(stamp - previous).count());
    previous = stamp;
  }
  result->events = sim_->executed_events() - events0_;
  auto& layer = result->layer;
  double events = static_cast<double>(result->events);
  layer["sim.events_per_op"] = PerOp(events, ops);
  layer["sim.eventfn_spills_per_op"] = PerOp(
      static_cast<double>(sim::EventFn::heap_fallbacks() - spills0_), ops);
  layer["proc.allocs_per_op"] =
      PerOp(static_cast<double>(AllocationCount() - allocs0_), ops);
  if (timer_ != nullptr) {
    layer["sim.callback_host_ns_per_event"] =
        Ratio(timer_->callback_ns(), events);
    layer["sim.kernel_self_host_ns_per_event"] =
        Ratio(wall_s * 1e9 - timer_->callback_ns(), events);
  }
}

double CounterValue(const obs::MetricsRegistry& registry,
                    const std::string& name) {
  const obs::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : static_cast<double>(counter->value());
}

double GaugeValue(const obs::MetricsRegistry& registry,
                  const std::string& name) {
  const obs::Gauge* gauge = registry.FindGauge(name);
  return gauge == nullptr ? 0 : gauge->value();
}

double LatencyPercentile(const obs::MetricsRegistry& registry,
                         const std::string& name, double p) {
  const obs::LatencyRecorder* recorder = registry.FindLatency(name);
  return recorder == nullptr ? 0 : recorder->Percentile(p);
}

void AddDeviceLayerMetrics(const obs::MetricsRegistry& registry,
                           const std::vector<std::string>& prefixes,
                           uint64_t ops, EpisodeResult* result) {
  auto sum = [&](const std::string& name) {
    double total = 0;
    for (const std::string& prefix : prefixes) {
      total += CounterValue(registry, prefix + name);
    }
    return total;
  };
  const std::string& first = prefixes.front();
  auto& layer = result->layer;

  layer["pcie.host_write_bytes_per_op"] =
      PerOp(sum("pcie.host_write_bytes"), ops);
  layer["pcie.host_read_bytes_per_op"] =
      PerOp(sum("pcie.host_read_bytes"), ops);
  layer["pcie.dma_bytes_per_op"] =
      PerOp(sum("pcie.dma_to_host_bytes") + sum("pcie.dma_from_host_bytes"),
            ops);
  layer["pcie.peer_write_bytes_per_op"] =
      PerOp(sum("pcie.peer_write_bytes"), ops);

  layer["nvme.commands_per_op"] = PerOp(sum("nvme.commands"), ops);
  layer["nvme.doorbells_per_command"] =
      Ratio(sum("nvme.doorbells"), sum("nvme.commands"));
  layer["nvme.cmd_latency_us_p50"] =
      LatencyPercentile(registry, first + "nvme.cmd_latency_us", 50);
  layer["nvme.cmd_latency_us_p99"] =
      LatencyPercentile(registry, first + "nvme.cmd_latency_us", 99);

  layer["cmb.append_chunks_per_op"] = PerOp(sum("cmb.append_chunks"), ops);
  layer["cmb.persisted_bytes_per_op"] = PerOp(sum("cmb.persisted_bytes"), ops);

  double pages = sum("destage.pages_written");
  double stream = sum("destage.stream_bytes");
  layer["destage.pages_per_op"] = PerOp(pages, ops);
  layer["destage.page_fill_ratio"] =
      Ratio(stream, stream + sum("destage.filler_bytes"));
  layer["destage.partial_pages_share"] =
      Ratio(sum("destage.partial_pages"), pages);
  layer["destage.page_latency_us_p50"] =
      LatencyPercentile(registry, first + "destage.page_latency_us", 50);
  layer["destage.page_latency_us_p99"] =
      LatencyPercentile(registry, first + "destage.page_latency_us", 99);
  layer["destage.write_retries"] = sum("destage.write_retries");

  layer["ftl.write_amp"] =
      Ratio(sum("ftl.flash_programs"), sum("ftl.host_writes"));
  layer["ftl.gc_pages_moved_per_op"] = PerOp(sum("ftl.gc.pages_moved"), ops);
  layer["ftl.gc_erases_per_kop"] = PerOp(sum("ftl.gc.erases") * 1000, ops);
  layer["ftl.sched_destage_wait_us_per_io"] =
      Ratio(sum("ftl.sched.destage.wait_ns") / 1000,
            sum("ftl.sched.destage.issued"));
  layer["ftl.sched_conv_wait_us_per_io"] = Ratio(
      sum("ftl.sched.conv.wait_ns") / 1000, sum("ftl.sched.conv.issued"));
  layer["ftl.buffer_hit_ratio"] = Ratio(
      sum("ftl.buffer_hits"), sum("ftl.buffer_hits") + sum("flash.reads"));

  double reads = sum("flash.reads");
  layer["flash.programs_per_op"] = PerOp(sum("flash.programs"), ops);
  layer["flash.reads_per_op"] = PerOp(reads, ops);
  layer["flash.erases_per_kop"] = PerOp(sum("flash.erases") * 1000, ops);
  layer["flash.read_retries_per_read"] =
      Ratio(sum("flash.read_retries"), reads);
  layer["flash.uncorrectable_reads"] = sum("flash.uncorrectable_reads");
}

void AddBreakdown(const obs::SpanRecorder& spans,
                  const std::vector<std::string>& kinds,
                  const std::string& per_kind, bool plant_violation,
                  EpisodeResult* result) {
  obs::CriticalPathAnalyzer analyzer(&spans);
  std::map<std::string, double> stage_ns;
  double e2e_ns = 0;
  uint64_t requests = 0;
  uint64_t ops = 0;
  uint64_t violations = 0;
  for (const obs::RequestBreakdown& request : analyzer.Analyze()) {
    if (std::find(kinds.begin(), kinds.end(), request.kind) == kinds.end()) {
      continue;
    }
    ++requests;
    ops += per_kind == request.kind;
    sim::SimTime covered = 0;
    for (const obs::PathSegment& segment : request.segments) {
      sim::SimTime span = segment.end - segment.begin;
      covered += span;
      stage_ns[segment.stage == obs::Stage::kRequest
                   ? "request.self"
                   : obs::StageName(segment.stage)] +=
          static_cast<double>(span);
    }
    if (plant_violation && requests == 1) covered += 1;
    sim::SimTime e2e = request.end - request.start;
    if (!request.conserved || covered != e2e) ++violations;
    e2e_ns += static_cast<double>(e2e);
  }
  auto& layer = result->layer;
  const double n = static_cast<double>(ops);
  for (const char* stage :
       {"host.poll", "replication.wait", "cmb.stage", "destage.page",
        "nvme.read", "ntb.link", "flash.program", "request.self"}) {
    layer[std::string("breakdown.") + stage + ".mean_us"] =
        Ratio(stage_ns[stage], n) / 1000;
  }
  layer["breakdown.e2e.mean_us"] = Ratio(e2e_ns, n) / 1000;
  layer["breakdown.requests"] = static_cast<double>(requests);
  result->attempted += requests;
  obs::BreakdownReporter report("perfbench");
  report.AddRun("traced_episode", spans);
  result->breakdown_json = report.ToJson();
  if (violations > 0) {
    result->Fail(violations, "breakdown conservation violated for " +
                                 std::to_string(violations) + " requests");
  }
}

// Keeps the replayed checksums observable so they cannot be optimised away.
volatile uint32_t g_crc_sink = 0;

double CrcReplayNs(const std::vector<std::pair<size_t, uint64_t>>& chunks) {
  size_t largest = 1;
  for (const auto& [size, count] : chunks) largest = std::max(largest, size);
  std::vector<uint8_t> buffer(largest);
  FillStream(0, 0, buffer.data(), buffer.size());
  uint32_t crc = 0;
  Clock::time_point start = Clock::now();
  for (const auto& [size, count] : chunks) {
    for (uint64_t i = 0; i < count; ++i) crc = Crc32c(buffer.data(), size, crc);
  }
  double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  g_crc_sink = crc;
  return ns;
}

std::vector<std::pair<size_t, uint64_t>> DeviceCrcChunks(
    const obs::MetricsRegistry& registry,
    const std::vector<std::string>& prefixes) {
  // ftl/oob.cc checksums the first 24 bytes of each OOB record.
  constexpr size_t kOobCrcBytes = 24;
  uint64_t pages = 0;
  uint64_t stream = 0;
  uint64_t programs = 0;
  for (const std::string& prefix : prefixes) {
    pages += static_cast<uint64_t>(
        CounterValue(registry, prefix + "destage.pages_written"));
    stream += static_cast<uint64_t>(
        CounterValue(registry, prefix + "destage.stream_bytes"));
    programs +=
        static_cast<uint64_t>(CounterValue(registry, prefix + "flash.programs"));
  }
  return {{pages == 0 ? 0 : stream / pages, pages},
          {core::DestagePageHeader::kSize, pages},
          {kOobCrcBytes, programs}};
}

void AddCrcMetrics(const std::vector<std::pair<size_t, uint64_t>>& chunks,
                   uint64_t ops, EpisodeResult* result) {
  double bytes = 0;
  for (const auto& [size, count] : chunks) {
    bytes += static_cast<double>(size) * static_cast<double>(count);
  }
  result->layer["common.crc_bytes_per_op"] = PerOp(bytes, ops);
  result->layer["common.crc_host_ns_per_op"] = PerOp(CrcReplayNs(chunks), ops);
}

}  // namespace xssd::perfbench
