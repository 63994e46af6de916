// Ablation B — Replication protocol semantics (paper §4.2).
//
// A primary with two secondaries, one of them slow (its shadow-counter
// update period is 20x longer). The protocol decides what the credit
// counter the database reads means:
//   eager : min over all secondaries — commit waits for the slowest
//   lazy  : local counter — commit is independent of the secondaries
//   chain : the tail secondary's counter
//
// The bench reports durable-append latency under each protocol. Shape:
// lazy ≈ local PM latency; eager tracks the slow secondary; chain tracks
// whichever secondary is the tail.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "host/node.h"
#include "sim/stats.h"

namespace xssd {
namespace {

void RunOne(core::ReplicationProtocol protocol, const char* name,
            bool slow_is_tail = true) {
  sim::Simulator sim;
  core::VillarsConfig config =
      bench::PaperVillarsConfig(core::BackingKind::kSram);
  host::StorageNode primary(&sim, config, bench::PaperFabricConfig(), "pri");
  host::StorageNode fast_sec(&sim, config, bench::PaperFabricConfig(), "s1");
  host::StorageNode slow_sec(&sim, config, bench::PaperFabricConfig(), "s2");
  if (!primary.Init().ok() || !fast_sec.Init().ok() || !slow_sec.Init().ok())
    std::exit(1);

  host::ReplicationGroup group(
      slow_is_tail
          ? std::vector<host::StorageNode*>{&primary, &fast_sec, &slow_sec}
          : std::vector<host::StorageNode*>{&primary, &slow_sec, &fast_sec});
  Status status = group.Setup(protocol, sim::UsF(0.8));
  if (!status.ok()) std::exit(1);

  // Slow down the second secondary's updates.
  slow_sec.device().transport().set_update_period(sim::Us(16));

  sim::LatencyRecorder latency_us;
  std::vector<uint8_t> entry(256, 0x11);
  bool stop = false;
  std::function<void()> writer = [&]() {
    if (stop) return;
    sim::SimTime start = sim.Now();
    primary.client().AppendDurable(entry.data(), entry.size(),
                                   [&, start](Status) {
                                     latency_us.Add(
                                         sim::ToUs(sim.Now() - start));
                                     writer();
                                   });
  };
  writer();

  sim.RunFor(sim::Ms(2));
  latency_us.Clear();
  sim.RunFor(sim::Ms(20));
  stop = true;

  auto candle = latency_us.Candlestick();
  std::printf("%-8s %10.2f %10.2f %10.2f %10.2f %10.2f %10lu\n", name,
              candle.min, candle.p25, candle.p50, candle.p75, candle.max,
              static_cast<unsigned long>(latency_us.count()));
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  bench::FlagSet({}).Parse(argc, argv);
  bench::PrintHeader(
      "Ablation B: replication protocols (2 secondaries, one slow)");
  std::printf("%-8s %10s %10s %10s %10s %10s %10s\n", "proto", "min_us",
              "p25_us", "p50_us", "p75_us", "max_us", "ops");
  RunOne(core::ReplicationProtocol::kLazy, "lazy");
  RunOne(core::ReplicationProtocol::kEager, "eager");
  // Chain semantics: only the tail's counter gates commit. With the slow
  // node at the tail, chain == eager; with the fast node at the tail, the
  // slow node no longer gates latency.
  RunOne(core::ReplicationProtocol::kChain, "chain-s", /*slow_is_tail=*/true);
  RunOne(core::ReplicationProtocol::kChain, "chain-f", /*slow_is_tail=*/false);
  return 0;
}
