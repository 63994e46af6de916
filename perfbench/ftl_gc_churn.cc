// ftl_gc_churn: a bare flash::Array + ftl::Ftl on the ftl_campaign
// geometry (128 blocks x 32 pages of 4 KiB), prefilled to 90% of its
// logical pages, then hot/cold churn in a closed loop of fixed batches:
// 64 ops are issued, then the device runs until idle (background writeback
// and GC included) before the next batch. The mix is 1/4 destage-class
// WriteDirect on a 256-lpn ring, 1/2 buffered overwrites of the warm set,
// 1/4 ReadPage of the warm set verified against the last acknowledged
// write. Primary latency: the destage-class write, issue -> programmed.
//
// The batches keep the offered load bounded. A load offered above device
// capacity, open loop or a sliding window that never lets GC catch up,
// makes every queued program re-poll for an erased block every 100 us:
// 160-240 events/op instead of ~9, which measures overload, not the FTL.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "flash/array.h"
#include "ftl/ftl.h"
#include "harness.h"
#include "sim/random.h"

namespace xssd::perfbench {
namespace {

constexpr uint64_t kRingLpns = 256;
constexpr uint64_t kBatchOps = 64;
constexpr uint64_t kIssueSpreadNs = 20000;
/// Churn before the timed phase, enough for write amplification to level
/// off past the sustained-write cliff.
constexpr uint64_t kWarmupOps = 24000;
/// 50 000 destage-class writes: their p99.9 sits in GC storms, and fewer
/// samples make it swing by tens of percent from seed to seed.
constexpr uint64_t kTimedOps = 200000;
/// The timed phase spans ~200 s of simulated time.
const sim::SimTime kSegment = sim::Ms(1000);

flash::Geometry CampaignGeometry() {
  flash::Geometry g;
  g.channels = 4;
  g.dies_per_channel = 2;
  g.blocks_per_plane = 16;
  g.pages_per_block = 32;
  g.page_bytes = 4096;
  return g;
}

ftl::FtlConfig CampaignConfig() {
  ftl::FtlConfig config;
  config.buffer_pages = 64;
  config.flush_watermark = 16;
  config.gc_low_watermark = 4;
  return config;
}

/// Page image of write `version` to `lpn`: a header naming both, then a
/// fill derived from them, so a read proves which write it returned.
std::vector<uint8_t> PageImage(uint64_t lpn, uint64_t version, size_t bytes) {
  std::vector<uint8_t> page(bytes);
  std::memcpy(page.data(), &lpn, sizeof(lpn));
  std::memcpy(page.data() + 8, &version, sizeof(version));
  std::memset(page.data() + 16, static_cast<int>((lpn * 31 + version * 7) & 0xFF),
              bytes - 16);
  return page;
}

}  // namespace

EpisodeResult RunFtlGcChurn(const EpisodeOptions& options) {
  EpisodeResult result;
  Clock::time_point setup_start = Clock::now();
  sim::Simulator sim(options.backend);
  std::unique_ptr<Probes> probes;
  if (options.traced) probes = std::make_unique<Probes>(&sim);

  flash::Array array(&sim, CampaignGeometry(), flash::Timing{},
                     flash::Reliability{}, options.seed);
  ftl::Ftl ftl(&sim, &array, CampaignConfig());
  ftl.scheduler().set_policy(ftl::SchedulingPolicy::kDestagePriority);
  if (probes) {
    array.SetMetrics(&probes->registry);
    ftl.SetMetrics(&probes->registry);
  }
  const size_t page_bytes = ftl.page_bytes();
  const uint64_t lpns = ftl.lpn_count() * 90 / 100;
  const uint64_t warm_set = lpns - kRingLpns;

  // Sequential prefill of a fresh device (version 0 of every lpn).
  Clock::time_point prefill_start = Clock::now();
  uint64_t prefill_failures = 0;
  for (uint64_t lpn = 0; lpn < lpns; ++lpn) {
    ftl.WriteBuffered(lpn, PageImage(lpn, 0, page_bytes), [&](Status s) {
      if (!s.ok()) ++prefill_failures;
    });
    if (lpn % 128 == 127) sim.Run();
  }
  Status flushed = Status::Internal("flush pending");
  ftl.Flush([&](Status s) { flushed = s; });
  sim.Run();
  result.layer["setup.ftl_prefill_host_s"] = SecondsSince(prefill_start);
  if (prefill_failures > 0) result.Fail(prefill_failures, "prefill writes failed");
  result.Check(flushed.ok(), "prefill flush failed");

  // Churn state.
  sim::Rng rng(options.seed);
  std::vector<uint64_t> acked(lpns, 0);  // content version readable now
  std::vector<uint64_t> next_version(lpns, 0);
  std::vector<uint8_t> busy(lpns, 0);  // an op on this lpn is in flight
  uint64_t ring_head = 0;
  uint64_t issued = 0;
  uint64_t outstanding = 0;
  bool measuring = false;
  bool plant_read = options.plant == "ftl_read_verify";
  struct Counts {
    uint64_t issued = 0, done = 0, failed = 0, mismatched = 0, reads = 0;
  } counts;
  auto pick_idle = [&]() {
    uint64_t lpn = rng.Uniform(warm_set);
    while (busy[lpn]) lpn = (lpn + 1) % warm_set;
    return lpn;
  };
  auto finish = [&](bool in_window, bool ok, bool matched) {
    --outstanding;
    if (!in_window) return;
    if (!ok) {
      ++counts.failed;
    } else if (!matched) {
      ++counts.mismatched;
    } else {
      ++counts.done;
    }
  };
  auto issue = [&]() {
    const uint64_t op = issued++;
    const bool in_window = measuring;
    if (in_window) ++counts.issued;
    ++outstanding;
    switch (op % 4) {
      case 0: {  // destage-class log write on the hot ring
        const uint64_t lpn = warm_set + (ring_head++ % kRingLpns);
        const uint64_t version = ++next_version[lpn];
        const sim::SimTime start = sim.Now();
        obs::SpanContext root;
        obs::SpanRecorder* spans = probes ? &probes->spans : nullptr;
        if (spans != nullptr && in_window) {
          root = spans->StartTrace("destage_write", 0, 0, 0);
        }
        obs::ScopedContext scope(spans, root);
        ftl.WriteDirect(ftl::IoClass::kDestage, lpn,
                        PageImage(lpn, version, page_bytes),
                        [&, start, in_window, root, spans](Status s) {
                          if (root.valid()) spans->EndSpan(root);
                          if (s.ok() && in_window) {
                            result.latency_us.Add(
                                sim::ToUs(sim.Now() - start));
                          }
                          finish(in_window, s.ok(), true);
                        });
        break;
      }
      case 3: {  // read of the warm set, checked against the last ack
        const uint64_t lpn = pick_idle();
        busy[lpn] = 1;
        const uint64_t version = acked[lpn];
        if (in_window) ++counts.reads;
        ftl.ReadPage(ftl::IoClass::kConventional, lpn,
                     [&, lpn, version, in_window](Status s,
                                                  std::vector<uint8_t> data) {
                       busy[lpn] = 0;
                       std::vector<uint8_t> expect =
                           PageImage(lpn, version, page_bytes);
                       if (plant_read && in_window) {
                         expect[20] ^= 1;
                         plant_read = false;
                       }
                       finish(in_window, s.ok(), data == expect);
                     });
        break;
      }
      default: {  // buffered overwrite of the warm set
        const uint64_t lpn = pick_idle();
        busy[lpn] = 1;
        const uint64_t version = ++next_version[lpn];
        ftl.WriteBuffered(lpn, PageImage(lpn, version, page_bytes),
                          [&, lpn, version, in_window](Status s) {
                            busy[lpn] = 0;
                            if (s.ok()) acked[lpn] = version;
                            finish(in_window, s.ok(), true);
                          });
        break;
      }
    }
  };
  // Each op of a batch is submitted at a seeded offset within the first
  // kIssueSpreadNs, as a host's submission path would spread them.
  auto churn = [&](uint64_t ops) {
    for (uint64_t batch = 0; batch < ops; batch += kBatchOps) {
      for (uint64_t i = batch; i < std::min(ops, batch + kBatchOps); ++i) {
        sim.Schedule(rng.Uniform(kIssueSpreadNs), [&issue] { issue(); });
      }
      sim.Run();
    }
  };

  churn(kWarmupOps);
  result.setup_host_s = SecondsSince(setup_start);

  if (probes) {
    probes->registry.Reset();
    ftl.SetSpans(&probes->spans, "ftl");
    probes->Watch(nullptr, &ftl);
  }
  const sim::SimTime phase_start = sim.Now();
  measuring = true;
  TimedPhase phase(&sim, probes ? &probes->timer : nullptr, kSegment);
  churn(kTimedOps);
  measuring = false;
  phase.End(counts.issued, &result);
  const sim::SimTime phase_sim = sim.Now() - phase_start;

  result.completed = counts.done;
  result.sim_seconds = sim::ToSec(phase_sim);
  result.attempted += counts.issued;
  if (counts.failed > 0) {
    result.Fail(counts.failed, "operations returned a non-OK status");
  }
  if (counts.mismatched > 0) {
    result.Fail(counts.mismatched, "reads returned bytes of the wrong write");
  }
  result.Check(outstanding == 0, "operations never completed");

  // Recovery oracle: after a flush, the map rebuilt from the per-page OOB
  // records alone must equal the live map.
  flushed = Status::Internal("flush pending");
  ftl.Flush([&](Status s) { flushed = s; });
  sim.Run();
  result.Check(flushed.ok(), "final flush failed");
  if (options.plant == "ftl_oob_rebuild") {
    const uint64_t ppn = ftl.page_map().Lookup(0);
    array.CorruptOob(flash::AddressOfPage(array.geometry(), ppn), 0, 0xFF);
  }
  result.Check(ftl.RebuildFromOob() == ftl.page_map(),
               "RebuildFromOob differs from the live page map");

  Digest digest;
  digest.Mix(counts.issued);
  digest.Mix(counts.reads);
  digest.Mix(phase_sim);
  digest.Mix(ftl.stats().flash_programs);
  digest.Mix(ftl.stats().gc_erases);
  digest.Mix(result.events);
  digest.MixLatencies(result.latency_us);
  result.digest = digest.value();

  if (!options.traced) return result;

  const uint64_t ops = counts.issued;
  auto& layer = result.layer;
  AddDeviceLayerMetrics(probes->registry, {""}, ops, &result);
  probes->AddExtremes(&result);
  // Host reads are known exactly here: the share served from the buffer.
  layer["ftl.buffer_hit_ratio"] =
      PerOp(CounterValue(probes->registry, "ftl.buffer_hits"), counts.reads);
  AddBreakdown(probes->spans, {"destage_write"}, "destage_write",
               options.plant == "breakdown_conservation", &result);
  AddCrcMetrics(DeviceCrcChunks(probes->registry, {""}), ops, &result);
  return result;
}

}  // namespace xssd::perfbench
