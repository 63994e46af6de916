// replicated_appends: the Figure 13 pair. Open loop: 64 B appends every
// 1.6-2.4 us (seeded jitter) on a primary that eagerly mirrors them over
// NTB to a secondary in a second fabric domain; the secondary forwards its
// credit every 0.8 us. Primary latency: replication delay, append -> the
// primary's shadow counter covers it.

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "host/node.h"
#include "sim/random.h"

namespace xssd::perfbench {
namespace {

constexpr size_t kEntryBytes = 64;
constexpr double kUpdatePeriodUs = 0.8;
const sim::SimTime kWarmup = sim::Ms(2);
const sim::SimTime kWindow = sim::Ms(200);
const sim::SimTime kSegment = sim::Ms(2);
const sim::SimTime kDrain = sim::Ms(1);
/// Bytes of the secondary's ring compared against the stream at the end.
constexpr uint64_t kVerifyBytes = 64 * 1024;

}  // namespace

EpisodeResult RunReplicatedAppends(const EpisodeOptions& options) {
  EpisodeResult result;
  Clock::time_point setup_start = Clock::now();
  sim::Simulator sim(options.backend);
  // One scheduler domain per fabric; the parallel backend runs each node
  // on its own worker thread, synchronized by the NTB hop latency.
  sim.ConfigureDomains(2);
  std::unique_ptr<Probes> probes;
  if (options.traced) probes = std::make_unique<Probes>(&sim);
  CallTimer append_timer;

  Clock::time_point init_start = Clock::now();
  core::VillarsConfig config = PaperVillarsConfig();
  pcie::FabricConfig secondary_fabric = PaperFabricConfig();
  secondary_fabric.domain = 1;
  host::StorageNode primary(&sim, config, PaperFabricConfig(), "pri");
  host::StorageNode secondary(&sim, config, secondary_fabric, "sec");
  Status status = primary.Init();
  if (status.ok()) status = secondary.Init();
  if (!status.ok()) {
    result.Fail(1, "node init: " + status.ToString());
    return result;
  }
  result.layer["setup.node_init_host_s"] = SecondsSince(init_start);
  if (probes) {
    primary.EnableMetrics(&probes->registry, "pri.");
    secondary.EnableMetrics(&probes->registry, "sec.");
  }

  Clock::time_point replication_start = Clock::now();
  host::ReplicationGroup group({&primary, &secondary});
  status = group.Setup(core::ReplicationProtocol::kEager,
                       sim::UsF(kUpdatePeriodUs));
  if (!status.ok()) {
    result.Fail(1, "replication setup: " + status.ToString());
    return result;
  }
  result.layer["setup.replication_setup_host_s"] =
      SecondsSince(replication_start);

  struct Pending {
    sim::SimTime issued;
    bool in_window;
    /// Root span of the replication delay (traced runs), so the critical
    /// path analyzer partitions exactly the primary latency.
    obs::SpanContext root;
  };
  std::map<uint64_t, Pending> pending;  // end stream offset -> append
  uint64_t acked = 0;                   // highest shadow-counter value
  bool writing = true;
  bool measuring = false;
  uint64_t issued_in_window = 0;
  uint64_t failed_appends = 0;

  primary.device().transport().SetShadowHook([&](uint32_t, uint64_t value) {
    acked = std::max(acked, value);
    auto it = pending.begin();
    while (it != pending.end() && it->first <= value) {
      if (it->second.in_window) {
        result.latency_us.Add(sim::ToUs(sim.Now() - it->second.issued));
      }
      if (it->second.root.valid()) probes->spans.EndSpan(it->second.root);
      it = pending.erase(it);
    }
  });

  std::vector<uint8_t> entry(kEntryBytes);
  sim::Rng jitter(options.seed);
  // Stream offset past the last append handed to the client. An append
  // that has to poll for credits posts later, but in call order, so this is
  // where its bytes land.
  uint64_t submitted = 0;
  std::function<void()> writer = [&]() {
    if (!writing) return;
    FillStream(options.seed, submitted, entry.data(), entry.size());
    auto append = [&] {
      primary.client().Append(entry.data(), entry.size(), [&](Status s) {
        if (!s.ok()) ++failed_appends;
      });
    };
    if (options.traced) {
      append_timer.Time(append);
    } else {
      append();
    }
    obs::SpanContext root;
    if (probes && measuring) {
      root = probes->spans.StartTrace("replication",
                                      probes->spans.InternNode("pri"),
                                      submitted, submitted + kEntryBytes);
    }
    submitted += kEntryBytes;
    pending.emplace(submitted, Pending{sim.Now(), measuring, root});
    if (measuring) ++issued_in_window;
    sim.Schedule(sim::Ns(1600 + jitter.Uniform(800)), writer);
  };
  writer();
  sim.RunFor(kWarmup);
  result.setup_host_s = SecondsSince(setup_start);

  double link_busy0 = 0;
  if (probes) {
    link_busy0 = GaugeValue(probes->registry, "pri.ntb.link_busy_us");
    probes->registry.Reset();
    primary.EnableSpans(&probes->spans, "pri");
    secondary.EnableSpans(&probes->spans, "sec");
    probes->Watch(&primary.device().cmb(), &primary.device().ftl());
  }
  const uint64_t polls0 = primary.client().credit_polls();
  const sim::SimTime phase_start = sim.Now();

  measuring = true;
  TimedPhase phase(&sim, probes ? &probes->timer : nullptr, kSegment);
  sim.RunFor(kWindow);
  measuring = false;
  writing = false;
  sim.RunFor(kDrain);
  phase.End(issued_in_window, &result);
  const double phase_us = sim::ToUs(sim.Now() - phase_start);

  result.completed = result.latency_us.count();
  result.sim_seconds = sim::ToSec(kWindow);

  // Correctness: every append succeeded, every one issued in
  // the window was confirmed replicated, the secondary's persisted credit
  // covers everything the primary counted as replicated, and the
  // secondary's ring holds the exact bytes appended.
  if (failed_appends > 0) {
    result.Fail(failed_appends, "appends returned a non-OK status");
  }
  uint64_t unconfirmed = 0;
  for (const auto& [end, append] : pending) unconfirmed += append.in_window;
  if (unconfirmed > 0) {
    result.Fail(unconfirmed, "appends never confirmed replicated");
  }
  const uint64_t secondary_credit = secondary.device().cmb().local_credit();
  const uint64_t claimed =
      acked + (options.plant == "replicated_credit" ? 1 : 0);
  result.Check(secondary_credit >= claimed,
               "secondary persisted credit is below the acknowledged bytes");
  const uint64_t verify_len = std::min(kVerifyBytes, secondary_credit);
  std::vector<uint8_t> ring(verify_len);
  std::vector<uint8_t> expected(verify_len);
  secondary.device().cmb().CopyOut(secondary_credit - verify_len, ring.data(),
                                   verify_len);
  FillStream(options.seed, secondary_credit - verify_len, expected.data(),
             verify_len);
  if (options.plant == "replicated_bytes" && verify_len > 0) expected[0] ^= 1;
  result.Check(ring == expected,
               "secondary ring bytes differ from the appended stream");
  result.attempted += issued_in_window;

  Digest digest;
  digest.Mix(issued_in_window);
  digest.Mix(acked);
  digest.Mix(secondary_credit);
  digest.Mix(result.events);
  digest.Mix(sim.Now());
  digest.MixLatencies(result.latency_us);
  result.digest = digest.value();

  if (!options.traced) return result;

  const uint64_t ops = issued_in_window;
  auto& layer = result.layer;
  const obs::MetricsRegistry& r = probes->registry;
  AddDeviceLayerMetrics(r, {"pri.", "sec."}, ops, &result);
  probes->AddExtremes(&result);
  layer["host.credit_polls_per_append"] = PerOp(
      static_cast<double>(primary.client().credit_polls() - polls0), ops);
  layer["host.append_call_host_ns"] = append_timer.mean_ns();
  layer["ntb.packets_per_op"] =
      PerOp(CounterValue(r, "pri.ntb.packets") +
                CounterValue(r, "sec.ntb.packets"),
            ops);
  layer["ntb.wire_bytes_per_op"] =
      PerOp(CounterValue(r, "pri.ntb.wire_bytes") +
                CounterValue(r, "sec.ntb.wire_bytes"),
            ops);
  // The primary's link carries the mirror stream, the busier direction.
  layer["ntb.link_busy_share"] =
      Ratio(GaugeValue(r, "pri.ntb.link_busy_us") - link_busy0, phase_us);
  layer["transport.counter_updates_per_op"] =
      PerOp(CounterValue(r, "sec.transport.counter_updates"), ops);
  layer["transport.shadow_advances_per_op"] =
      PerOp(CounterValue(r, "pri.transport.shadow_advances"), ops);
  layer["transport.retransmit_rounds"] =
      CounterValue(r, "pri.transport.retransmit_rounds") +
      CounterValue(r, "sec.transport.retransmit_rounds");
  AddBreakdown(probes->spans, {"replication"}, "replication",
               options.plant == "breakdown_conservation", &result);
  AddCrcMetrics(DeviceCrcChunks(r, {"pri.", "sec."}), ops, &result);
  return result;
}

}  // namespace xssd::perfbench
