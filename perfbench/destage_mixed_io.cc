// destage_mixed_io: the Figure 12 cell under destage priority. Open loop:
// one-block conventional nvme::Driver writes at 50% of the flash array's
// program bandwidth beside durable fast-side appends (8-24 KiB, mean
// 16 KiB) at 50%, all with seeded arrival jitter, while a
// QD1 ReadTail reader consumes the destaged log and verifies every byte it
// reads. Primary latency: durable-append latency, from the append's due
// time (its open-loop arrival) to done.

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "host/node.h"
#include "sim/random.h"

namespace xssd::perfbench {
namespace {

/// Mean fast-side append size.
constexpr size_t kAppendBytes = 16 * 1024;
constexpr size_t kReadBytes = 16 * 1024;
constexpr double kConvShare = 0.50;
constexpr double kFastShare = 0.50;
/// Destage ring large enough that the stream of one episode never wraps:
/// the QD1 reader trails the 50% append stream, and a wrapped slot would
/// overwrite pages it has not read yet.
constexpr uint64_t kRingLbas = 32768;
constexpr uint64_t kConvSpan = 16384;
constexpr uint32_t kConvMaxOutstanding = 64;
const sim::SimTime kWarmup = sim::Ms(30);
const sim::SimTime kWindow = sim::Ms(240);
const sim::SimTime kSegment = sim::Ms(2);
const sim::SimTime kDrainLimit = sim::Ms(50);

}  // namespace

EpisodeResult RunDestageMixedIo(const EpisodeOptions& options) {
  EpisodeResult result;
  Clock::time_point setup_start = Clock::now();
  sim::Simulator sim(options.backend);
  std::unique_ptr<Probes> probes;
  if (options.traced) probes = std::make_unique<Probes>(&sim);
  CallTimer append_timer;

  core::VillarsConfig config = PaperVillarsConfig();
  config.scheduling = ftl::SchedulingPolicy::kDestagePriority;
  config.cmb.ring_bytes = 4ull << 20;
  config.destage.ring_lba_count = kRingLbas;
  // Deep, balanced pipelines on both sides so the scheduler, not an
  // admission depth, decides who gets the array (as in Figure 12).
  config.destage.max_inflight = 128;
  config.ftl.max_writeback_inflight = 128;
  // A x8 link, so the flash array rather than PCIe is the contended
  // resource.
  pcie::FabricConfig fabric = PaperFabricConfig();
  fabric.lanes = 8;

  Clock::time_point init_start = Clock::now();
  host::StorageNode node(&sim, config, fabric, "bench");
  Status status = node.Init();
  if (!status.ok()) {
    result.Fail(1, "node init: " + status.ToString());
    return result;
  }
  result.layer["setup.node_init_host_s"] = SecondsSince(init_start);
  if (probes) node.EnableMetrics(&probes->registry);

  host::XLogClient& client = node.client();
  nvme::Driver& driver = node.driver();
  const double device_bw = node.device().flash_array().MaxProgramBandwidth();
  const uint32_t block = driver.block_bytes();
  bool generating = true;
  bool measuring = false;
  // Seeded arrival jitter: gaps uniform in [0.5, 1.5) x the mean interval,
  // so arrivals do not phase-lock with the device's internal clocks.
  sim::Rng arrivals(options.seed);
  auto Jittered = [&](sim::SimTime interval) {
    return interval / 2 + arrivals.Uniform(interval);
  };

  // Conventional writer: open-loop arrivals, at most kConvMaxOutstanding in
  // flight, later arrivals queued in order.
  struct ConvStats {
    uint64_t issued = 0, done = 0, failed = 0, outstanding = 0;
  } conv;
  std::deque<bool> conv_backlog;  // in_window flag per queued arrival
  std::vector<uint8_t> conv_payload(block);
  FillStream(options.seed ^ 0xC0FFEEull, 0, conv_payload.data(), block);
  uint64_t conv_next = 0;
  std::function<void(bool)> conv_issue = [&](bool in_window) {
    ++conv.outstanding;
    uint64_t lba = kRingLbas + (conv_next++ % kConvSpan);
    driver.Write(lba, conv_payload.data(), 1, [&, in_window](Status s) {
      --conv.outstanding;
      if (in_window) {
        if (s.ok()) {
          ++conv.done;
        } else {
          ++conv.failed;
        }
      }
      if (!conv_backlog.empty()) {
        bool next_in_window = conv_backlog.front();
        conv_backlog.pop_front();
        conv_issue(next_in_window);
      }
    });
  };
  const sim::SimTime conv_interval =
      sim::TransferTime(block, device_bw * kConvShare);
  std::function<void()> conv_arrival = [&]() {
    if (!generating) return;
    if (measuring) ++conv.issued;
    if (conv.outstanding < kConvMaxOutstanding) {
      conv_issue(measuring);
    } else {
      conv_backlog.push_back(measuring);
    }
    sim.Schedule(Jittered(conv_interval), conv_arrival);
  };

  // Fast-side appender: open-loop arrivals served at QD1 in order, each
  // append made durable (x_pwrite + x_fsync) before the next starts.
  struct FastStats {
    uint64_t issued = 0, done = 0, failed = 0;
  } fast;
  struct Arrival {
    sim::SimTime due;
    bool in_window;
  };
  std::deque<Arrival> fast_backlog;
  bool fast_busy = false;
  std::vector<uint8_t> fast_payload(2 * kAppendBytes);
  std::function<void()> read_next;
  std::function<void()> fast_next = [&]() {
    if (fast_busy || fast_backlog.empty()) return;
    Arrival arrival = fast_backlog.front();
    fast_backlog.pop_front();
    fast_busy = true;
    // Log appends vary in size: uniform in [8, 24] KiB in 512 B steps.
    const size_t len = kAppendBytes / 2 + 512 * arrivals.Uniform(33);
    FillStream(options.seed, client.written(), fast_payload.data(), len);
    auto append = [&] {
      client.AppendDurable(
          fast_payload.data(), len, [&, arrival](Status s) {
            fast_busy = false;
            if (arrival.in_window) {
              if (s.ok()) {
                ++fast.done;
                result.latency_us.Add(sim::ToUs(sim.Now() - arrival.due));
              } else {
                ++fast.failed;
              }
            }
            read_next();
            fast_next();
          });
    };
    if (options.traced) {
      append_timer.Time(append);
    } else {
      append();
    }
  };
  const sim::SimTime fast_interval =
      sim::TransferTime(kAppendBytes, device_bw * kFastShare);
  std::function<void()> fast_arrival = [&]() {
    if (!generating) return;
    if (measuring) ++fast.issued;
    fast_backlog.push_back(Arrival{sim.Now(), measuring});
    fast_next();
    sim.Schedule(Jittered(fast_interval), fast_arrival);
  };

  // Tail reader: QD1, only over bytes already appended (so a read never
  // waits on an append that will not come), started again by each append
  // completion when it is idle.
  struct ReadStats {
    uint64_t issued = 0, done = 0, failed = 0, mismatched = 0;
  } reads;
  bool reader_busy = false;
  bool reader_on = true;
  sim::LatencyRecorder read_latency_us;
  std::vector<uint8_t> expected(kReadBytes);
  bool plant_pending = options.plant == "destage_tail_bytes";
  // Stream offset of the next tail read. (XLogClient::read_cursor() counts
  // whole parsed pages, including bytes held back for the next read.)
  uint64_t cursor = 0;
  read_next = [&]() {
    if (reader_busy || !reader_on) return;
    if (cursor + kReadBytes > client.written()) return;
    reader_busy = true;
    const bool in_window = measuring;
    if (in_window) ++reads.issued;
    const sim::SimTime issued_at = sim.Now();
    const uint64_t at = cursor;
    cursor += kReadBytes;
    client.ReadTail(&driver, kReadBytes, [&, at, in_window, issued_at](
                                             Status s,
                                             std::vector<uint8_t> data) {
      reader_busy = false;
      if (in_window) {
        read_latency_us.Add(sim::ToUs(sim.Now() - issued_at));
        FillStream(options.seed, at, expected.data(), kReadBytes);
        if (plant_pending) {
          expected[kReadBytes / 2] ^= 0x40;
          plant_pending = false;
        }
        if (!s.ok()) {
          ++reads.failed;
        } else if (data != expected) {
          ++reads.mismatched;
        } else {
          ++reads.done;
        }
      }
      read_next();
    });
  };

  conv_arrival();
  fast_arrival();
  sim.RunFor(kWarmup);
  result.setup_host_s = SecondsSince(setup_start);

  if (probes) {
    probes->registry.Reset();
    node.EnableSpans(&probes->spans, "dev");
    probes->Watch(&node.device().cmb(), &node.device().ftl());
  }
  const uint64_t polls0 = client.credit_polls();
  const uint64_t rereads0 = client.slot_rereads();
  const uint64_t deadline0 = client.read_deadline_failures();

  measuring = true;
  TimedPhase phase(&sim, probes ? &probes->timer : nullptr, kSegment);
  sim.RunFor(kWindow);
  measuring = false;
  generating = false;
  reader_on = false;  // the reader trails the stream; stop it with the load
  bool drained = false;
  const sim::SimTime drain_start = sim.Now();
  while (sim.Now() - drain_start < kDrainLimit) {
    sim.RunFor(sim::Us(100));
    if (conv.outstanding == 0 && conv_backlog.empty() && !fast_busy &&
        fast_backlog.empty() && !reader_busy) {
      drained = true;
      break;
    }
  }
  const uint64_t ops_issued = conv.issued + fast.issued + reads.issued;
  phase.End(ops_issued, &result);

  result.completed = conv.done + fast.done + reads.done;
  result.sim_seconds = sim::ToSec(kWindow);
  result.attempted += ops_issued;
  if (conv.failed + fast.failed + reads.failed > 0) {
    result.Fail(conv.failed + fast.failed + reads.failed,
                "operations returned a non-OK status");
  }
  if (reads.mismatched > 0) {
    result.Fail(reads.mismatched, "tail reads returned wrong bytes");
  }
  result.Check(drained, "outstanding operations did not drain");
  const uint64_t unfinished =
      ops_issued - result.completed - conv.failed - fast.failed -
      reads.failed - reads.mismatched;
  if (unfinished > 0) result.Fail(unfinished, "operations never completed");

  Digest digest;
  digest.Mix(conv.issued);
  digest.Mix(fast.issued);
  digest.Mix(reads.issued);
  digest.Mix(client.written());
  digest.Mix(cursor);
  digest.Mix(result.events);
  digest.Mix(sim.Now());
  digest.MixLatencies(result.latency_us);
  digest.MixLatencies(read_latency_us);
  result.digest = digest.value();

  if (!options.traced) return result;

  const uint64_t ops = ops_issued;
  auto& layer = result.layer;
  AddDeviceLayerMetrics(probes->registry, {""}, ops, &result);
  probes->AddExtremes(&result);
  layer["host.credit_polls_per_append"] =
      PerOp(static_cast<double>(client.credit_polls() - polls0), fast.issued);
  layer["host.append_call_host_ns"] = append_timer.mean_ns();
  layer["host.slot_rereads_per_read"] =
      PerOp(static_cast<double>(client.slot_rereads() - rereads0),
            reads.issued);
  layer["host.tail_read_sim_us_p50"] = read_latency_us.Percentile(50);
  layer["host.tail_read_sim_us_p99"] = read_latency_us.Percentile(99);
  layer["host.read_deadline_failures"] =
      static_cast<double>(client.read_deadline_failures() - deadline0);
  AddBreakdown(probes->spans, {"append", "fsync"}, "fsync",
               options.plant == "breakdown_conservation", &result);

  // CRC volume: the device's pages and OOB records, plus the reader's
  // re-check of every destage page it parses.
  std::vector<std::pair<size_t, uint64_t>> chunks =
      DeviceCrcChunks(probes->registry, {""});
  const uint64_t pages_read = static_cast<uint64_t>(
      CounterValue(probes->registry, "nvme.reads"));
  chunks.emplace_back(chunks.front().first + chunks[1].first, pages_read);
  AddCrcMetrics(chunks, ops, &result);
  return result;
}

}  // namespace xssd::perfbench
