// Observability overhead bench: the cost of the PR's always-on pieces,
// measured so the zero-perturbation claim ("sampling changes no events")
// is paired with a wall-clock claim ("and it is cheap"). Writes
// BENCH_obs.json — the per-PR point on the repo's perf trajectory — which
// the gate tests hold to the floors in bench/baselines/obs_floor.json.
//
// Three measurements:
//  * sampler off: a synthetic event mix (counter bumps, gauge updates,
//    latency samples — the shape a device run presents to the registry)
//    with no sampler attached. Baseline events/sec.
//  * sampler on: the identical mix with a TimeSeriesSampler at a 1 ms
//    virtual window. Same event count, same virtual end time (the
//    zero-perturbation invariant, asserted here too); the wall-clock
//    ratio is the whole cost of the time-observer hook plus window
//    closes.
//  * flight recorder: Record() throughput into a full ring (every append
//    evicts), the steady state of an always-on black box.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "obs/flightrec.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd {
namespace {

struct MixStats {
  uint64_t events = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  uint64_t windows = 0;
  sim::SimTime end_ns = 0;
  uint64_t counter_total = 0;
};

// Self-rescheduling chains touching the registry the way device code
// does: every event bumps a counter, every 4th sets a gauge, every 8th
// logs a latency sample. Event spacing ~1-3 us, so a 1 ms sampling window
// covers ~500 events per chain — windows are frequent enough to matter
// but the hot path is still the per-event observer branch.
struct Ctx {
  sim::Simulator* sim;
  sim::Rng* rng;
  uint64_t budget;
  obs::Counter* ops;
  obs::Gauge* depth;
  obs::LatencyRecorder* lat;
  uint64_t n = 0;
};

void Chain(Ctx* ctx) {
  if (ctx->budget == 0) return;
  --ctx->budget;
  ++ctx->n;
  ctx->ops->Add();
  if ((ctx->n & 3) == 0) {
    ctx->depth->Set(static_cast<double>(ctx->n & 1023));
  }
  if ((ctx->n & 7) == 0) {
    ctx->lat->Add(static_cast<double>(100 + (ctx->rng->Next() & 4095)));
  }
  ctx->sim->Schedule(ctx->rng->UniformRange(1000, 3000),
                     [ctx]() { Chain(ctx); });
}

MixStats RunMix(uint64_t seed, uint64_t events, bool sampled) {
  sim::Simulator sim;
  sim::Rng rng(seed);
  obs::MetricsRegistry registry;
  Ctx ctx;
  ctx.sim = &sim;
  ctx.rng = &rng;
  ctx.budget = events;
  ctx.ops = registry.GetCounter("bench.ops");
  ctx.depth = registry.GetGauge("bench.depth");
  ctx.lat = registry.GetLatency("bench.latency_ns");

  obs::TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  if (sampled) sampler.Start();
  for (int i = 0; i < 16; ++i) {
    sim.Schedule(rng.UniformRange(1000, 3000), [&ctx]() { Chain(&ctx); });
  }

  auto start = std::chrono::steady_clock::now();
  sim.Run();
  auto stop = std::chrono::steady_clock::now();
  if (sampled) sampler.Finalize();

  MixStats out;
  out.events = sim.executed_events();
  out.wall_sec = std::chrono::duration<double>(stop - start).count();
  out.events_per_sec =
      out.wall_sec > 0 ? static_cast<double>(out.events) / out.wall_sec : 0;
  out.windows = sampler.windows();
  out.end_ns = sim.Now();
  out.counter_total = ctx.ops->value();
  return out;
}

struct FrStats {
  uint64_t appends = 0;
  double wall_sec = 0;
  double appends_per_sec = 0;
};

FrStats RunFlightRec(uint64_t appends) {
  obs::FlightRecorder fr;  // default 512-entry ring: steady-state evicts
  std::string base = "gc collect block 12345, valid=17";
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < appends; ++i) {
    fr.Record(i, "bench", base + std::to_string(i & 1023));
  }
  auto stop = std::chrono::steady_clock::now();
  FrStats out;
  out.appends = appends;
  out.wall_sec = std::chrono::duration<double>(stop - start).count();
  out.appends_per_sec =
      out.wall_sec > 0 ? static_cast<double>(appends) / out.wall_sec : 0;
  return out;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  std::string out_path = "BENCH_obs.json";
  uint64_t events = 2000000;
  uint64_t seed = 1;
  bench::FlagSet(
      {{"--out PATH", &out_path, "result file (default BENCH_obs.json)"},
       {"--events N", &events, "events per measurement (default 2000000)"},
       {"--seed S", &seed, "seed (default 1)"}})
      .Parse(argc, argv);

  MixStats off = RunMix(seed, events, /*sampled=*/false);
  MixStats on = RunMix(seed, events, /*sampled=*/true);
  FrStats fr = RunFlightRec(events);

  // The zero-perturbation invariant, cheap enough to assert every run:
  // the sampled run executed the same events to the same virtual time.
  if (off.events != on.events || off.end_ns != on.end_ns ||
      off.counter_total != on.counter_total) {
    std::fprintf(stderr,
                 "PERTURBATION: off(events=%" PRIu64 " end=%" PRIu64
                 " ops=%" PRIu64 ") != on(events=%" PRIu64 " end=%" PRIu64
                 " ops=%" PRIu64 ")\n",
                 off.events, static_cast<uint64_t>(off.end_ns),
                 off.counter_total, on.events,
                 static_cast<uint64_t>(on.end_ns), on.counter_total);
    return 1;
  }
  if (on.windows == 0) {
    std::fprintf(stderr, "sampler closed no windows — bench broken\n");
    return 1;
  }

  double overhead =
      off.wall_sec > 0 ? on.wall_sec / off.wall_sec : 1.0;
  std::printf("sampler off: %.0f events/sec (%" PRIu64 " events)\n",
              off.events_per_sec, off.events);
  std::printf("sampler on:  %.0f events/sec (%" PRIu64
              " windows, overhead x%.3f)\n",
              on.events_per_sec, on.windows, overhead);
  std::printf("flightrec:   %.0f appends/sec\n", fr.appends_per_sec);

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"xssd.obs-bench.v1\",\n"
               "  \"events\": %" PRIu64
               ",\n"
               "  \"seed\": %" PRIu64
               ",\n"
               "  \"sampler_off\": {\"events_per_sec\": %.0f, \"wall_sec\": "
               "%.6f},\n"
               "  \"sampler_on\": {\"events_per_sec\": %.0f, \"wall_sec\": "
               "%.6f, \"windows\": %" PRIu64
               "},\n"
               "  \"sampler_overhead_ratio\": %.4f,\n"
               "  \"flightrec\": {\"appends_per_sec\": %.0f, \"wall_sec\": "
               "%.6f}\n"
               "}\n",
               events, seed, off.events_per_sec, off.wall_sec,
               on.events_per_sec, on.wall_sec, on.windows, overhead,
               fr.appends_per_sec, fr.wall_sec);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
