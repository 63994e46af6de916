// DES-kernel microbench: replays four representative event mixes against
// the timer-wheel and reference binary-heap scheduler backends and writes
// BENCH_kernel.json — the per-PR point on the repo's perf trajectory (see
// TESTING.md "Performance trajectory"). The gate tests hold the wheel's
// events/sec above the checked-in floor in
// bench/baselines/kernel_floor.json, and the wheel/heap speedup on the
// fuzz mix. `kernel_bench --help` lists the flags.
//
// The virtual-time workload is identical across backends (same seeds, same
// event order), so only the wall-clock cost of the scheduler differs.

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/event_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace {

using xssd::sim::EventFn;
using xssd::sim::Rng;
using xssd::sim::Simulator;
using xssd::sim::SimTime;

struct MixStats {
  uint64_t events = 0;
  double wall_sec = 0.0;
  double events_per_sec = 0.0;
  size_t peak_pending = 0;
  uint64_t pool_chunk_allocs = 0;
  uint64_t callback_heap_fallbacks = 0;
  double allocs_per_event = 0.0;
};

struct RunCtx {
  Simulator* sim;
  Rng* rng;
  uint64_t budget;  // chains stop rescheduling once this hits zero
  size_t peak_pending = 0;

  bool Tick() {
    size_t pending = sim->pending_events();
    if (pending > peak_pending) peak_pending = pending;
    if (budget == 0) return false;
    --budget;
    return true;
  }
};

// ---- Mix 1: uniform near-future --------------------------------------
// A steady pool of independent chains, each rescheduling itself a uniform
// 100 ns – 16 us ahead: the "many independent devices" pattern. Exercises
// level-0/1 wheel traffic and mid-size heap depth.

struct UniformChain {
  RunCtx* ctx;
  void operator()() const {
    if (!ctx->Tick()) return;
    ctx->sim->Schedule(ctx->rng->UniformRange(100, 16000), UniformChain{ctx});
  }
};

void SeedUniform(RunCtx* ctx) {
  for (int i = 0; i < 8192; ++i) {
    ctx->sim->Schedule(ctx->rng->UniformRange(100, 16000), UniformChain{ctx});
  }
}

// ---- Mix 2: fig09-style pipeline -------------------------------------
// Concurrent log-append requests, each a fixed latency chain (doorbell →
// PCIe TLP → CMB persist → completion poll → client think), with every
// 64th request kicking off a small flash-program burst tens of
// microseconds out. Reproduces the clustered near-future timestamps plus
// periodic far-bucket writes the real benches generate.

struct PipelineStage {
  RunCtx* ctx;
  uint32_t stage;
  uint32_t request;
  void operator()() const;
};

struct FlashBurst {
  RunCtx* ctx;
  void operator()() const { ctx->Tick(); }  // terminal: program completes
};

void PipelineStage::operator()() const {
  if (!ctx->Tick()) return;
  static constexpr SimTime kStageDelay[] = {150, 400, 250, 800, 500};
  uint32_t next = (stage + 1) % 5;
  uint32_t req = next == 0 ? request + 1 : request;
  if (next == 0 && req % 64 == 0) {
    for (int i = 0; i < 4; ++i) {
      ctx->sim->Schedule(ctx->rng->UniformRange(60000, 90000),
                         FlashBurst{ctx});
    }
  }
  ctx->sim->Schedule(kStageDelay[next], PipelineStage{ctx, next, req});
}

void SeedPipeline(RunCtx* ctx) {
  for (uint32_t r = 0; r < 512; ++r) {
    ctx->sim->Schedule(150 + (r % 97), PipelineStage{ctx, 0, r});
  }
}

// ---- Mix 3: check_campaign fuzz mix ----------------------------------
// The schedule fuzzer's profile: mostly sub-2 us operations, a band of
// 2–100 us device latencies, occasional millisecond timeouts, rare
// 10–100 ms supervision timers, and periodic same-timestamp bursts that
// stress FIFO tie-breaking. Touches every wheel level.

struct FuzzBurst {
  RunCtx* ctx;
  void operator()() const { ctx->Tick(); }  // terminal
};

struct FuzzChain {
  RunCtx* ctx;
  void operator()() const {
    if (!ctx->Tick()) return;
    Rng* rng = ctx->rng;
    uint64_t pick = rng->Uniform(100);
    SimTime delay;
    if (pick < 60) {
      delay = rng->Uniform(2000);
    } else if (pick < 90) {
      delay = rng->UniformRange(2000, 100000);
    } else if (pick < 99) {
      delay = rng->UniformRange(1000000, 10000000);
    } else {
      delay = rng->UniformRange(10000000, 100000000);
    }
    if (rng->Uniform(256) == 0) {
      SimTime burst_at = rng->UniformRange(500, 4000);
      for (int i = 0; i < 16; ++i) {
        ctx->sim->Schedule(burst_at, FuzzBurst{ctx});  // identical timestamp
      }
    }
    ctx->sim->Schedule(delay, FuzzChain{ctx});
  }
};

void SeedFuzz(RunCtx* ctx) {
  for (int i = 0; i < 32768; ++i) {
    ctx->sim->Schedule(ctx->rng->Uniform(100000), FuzzChain{ctx});
  }
}

// ---- Mix 4: multi-fabric NTB mix -------------------------------------
// Four scheduler domains, each a pool of independent near-future chains
// (the per-fabric device traffic), with every 64th chain step forwarding a
// terminal cross-domain event to the next domain one NTB hop latency out —
// the fig13 replication shape at kernel scale, so it also measures the
// merge of the domain queues.

constexpr uint32_t kFabricDomains = 4;
constexpr SimTime kFabricLookahead = 1300;  // NtbConfig::hop_latency default

struct FabricCtx {
  Simulator* sim;
  struct PerDomain {
    Rng rng{0};
    uint64_t budget = 0;
    uint64_t iter = 0;
    size_t peak_pending = 0;
  };
  std::array<PerDomain, kFabricDomains> dom;

  bool Tick(uint32_t d) {
    PerDomain& pd = dom[d];
    size_t pending = sim->domain_pending_events(d);
    if (pending > pd.peak_pending) pd.peak_pending = pending;
    if (pd.budget == 0) return false;
    --pd.budget;
    return true;
  }
};

struct FabricCross {
  FabricCtx* ctx;
  uint32_t domain;
  void operator()() const { ctx->Tick(domain); }  // terminal: NTB delivery
};

struct FabricChain {
  FabricCtx* ctx;
  uint32_t domain;
  void operator()() const {
    if (!ctx->Tick(domain)) return;
    FabricCtx::PerDomain& pd = ctx->dom[domain];
    if (++pd.iter % 64 == 0) {
      uint32_t peer = (domain + 1) % kFabricDomains;
      ctx->sim->ScheduleIn(peer, kFabricLookahead + pd.rng.Uniform(700),
                           FabricCross{ctx, peer});
    }
    ctx->sim->Schedule(pd.rng.UniformRange(100, 16000),
                       FabricChain{ctx, domain});
  }
};

MixStats RunFabricMix(Simulator::SchedulerBackend backend, uint64_t seed,
                      uint64_t events) {
  Simulator sim(backend);
  sim.ConfigureDomains(kFabricDomains);
  sim.DeclareLookahead(kFabricLookahead);
  FabricCtx ctx;
  ctx.sim = &sim;
  uint64_t fn_heap_before = EventFn::heap_fallbacks();
  for (uint32_t d = 0; d < kFabricDomains; ++d) {
    ctx.dom[d].rng = Rng(seed * kFabricDomains + d + 1);
    ctx.dom[d].budget = events / kFabricDomains;
    Simulator::DomainScope scope(&sim, d);
    for (int i = 0; i < 2048; ++i) {
      sim.Schedule(ctx.dom[d].rng.UniformRange(100, 16000),
                   FabricChain{&ctx, d});
    }
  }

  auto start = std::chrono::steady_clock::now();
  sim.Run();
  auto stop = std::chrono::steady_clock::now();

  MixStats out;
  out.events = sim.executed_events();
  out.wall_sec = std::chrono::duration<double>(stop - start).count();
  out.events_per_sec =
      out.wall_sec > 0 ? static_cast<double>(out.events) / out.wall_sec : 0;
  uint64_t chunks = 0;
  for (uint32_t d = 0; d < kFabricDomains; ++d) {
    out.peak_pending += ctx.dom[d].peak_pending;
    chunks += sim.event_pool(d).chunks_allocated();
  }
  out.pool_chunk_allocs = chunks;
  out.callback_heap_fallbacks = EventFn::heap_fallbacks() - fn_heap_before;
  uint64_t allocs = out.pool_chunk_allocs + out.callback_heap_fallbacks;
  out.allocs_per_event =
      out.events > 0 ? static_cast<double>(allocs) / out.events : 0;
  return out;
}

// ----------------------------------------------------------------------

MixStats RunMix(const std::string& mix, Simulator::SchedulerBackend backend,
                uint64_t seed, uint64_t events) {
  if (mix == "fabric") return RunFabricMix(backend, seed, events);
  Simulator sim(backend);
  Rng rng(seed);
  RunCtx ctx{&sim, &rng, events};
  uint64_t fn_heap_before = EventFn::heap_fallbacks();

  if (mix == "uniform") {
    SeedUniform(&ctx);
  } else if (mix == "pipeline") {
    SeedPipeline(&ctx);
  } else {
    SeedFuzz(&ctx);
  }

  auto start = std::chrono::steady_clock::now();
  sim.Run();  // chains stop rescheduling at budget 0 and the queue drains
  auto stop = std::chrono::steady_clock::now();

  MixStats out;
  out.events = sim.executed_events();
  out.wall_sec = std::chrono::duration<double>(stop - start).count();
  out.events_per_sec =
      out.wall_sec > 0 ? static_cast<double>(out.events) / out.wall_sec : 0;
  out.peak_pending = ctx.peak_pending;
  out.pool_chunk_allocs = sim.event_pool().chunks_allocated();
  out.callback_heap_fallbacks = EventFn::heap_fallbacks() - fn_heap_before;
  uint64_t allocs = out.pool_chunk_allocs + out.callback_heap_fallbacks;
  out.allocs_per_event =
      out.events > 0 ? static_cast<double>(allocs) / out.events : 0;
  return out;
}

void WriteStats(FILE* f, const char* backend, const MixStats& s) {
  std::fprintf(f,
               "      \"%s\": {\n"
               "        \"events\": %" PRIu64
               ",\n"
               "        \"wall_sec\": %.6f,\n"
               "        \"events_per_sec\": %.0f,\n"
               "        \"peak_pending\": %zu,\n"
               "        \"pool_chunk_allocs\": %" PRIu64
               ",\n"
               "        \"callback_heap_fallbacks\": %" PRIu64
               ",\n"
               "        \"allocs_per_event\": %.8f\n"
               "      }",
               backend, s.events, s.wall_sec, s.events_per_sec,
               s.peak_pending, s.pool_chunk_allocs, s.callback_heap_fallbacks,
               s.allocs_per_event);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernel.json";
  std::string mix_arg = "all";
  std::string backend_arg = "both";
  uint64_t events = 2000000;
  uint64_t seed = 1;
  xssd::bench::FlagSet flags(
      {{"--out PATH", &out_path, "result file (default BENCH_kernel.json)"},
       {"--events N", &events, "events per mix (default 2000000)"},
       {"--seed S", &seed, "seed (default 1)"},
       {"--mix NAME", &mix_arg, "uniform|pipeline|fuzz|fabric|all (default)"},
       {"--backend NAME", &backend_arg, "wheel|heap|both (default)"}});
  flags.Parse(argc, argv);
  if (events == 0) flags.Fail("--events must be positive");
  if (mix_arg != "all" && mix_arg != "uniform" && mix_arg != "pipeline" &&
      mix_arg != "fuzz" && mix_arg != "fabric") {
    flags.Fail("unknown mix " + mix_arg);
  }
  if (backend_arg != "both" && backend_arg != "wheel" &&
      backend_arg != "heap") {
    flags.Fail("unknown backend " + backend_arg);
  }

  std::vector<std::string> mixes;
  if (mix_arg == "all") {
    mixes = {"uniform", "pipeline", "fuzz", "fabric"};
  } else {
    mixes = {mix_arg};
  }
  bool run_wheel = backend_arg == "both" || backend_arg == "wheel";
  bool run_heap = backend_arg == "both" || backend_arg == "heap";

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"xssd.kernel-bench.v3\",\n"
               "  \"bench\": \"kernel_bench\",\n"
               "  \"config\": {\"seed\": %" PRIu64 ", \"events_per_mix\": %" PRIu64
               ", \"fabric_domains\": %u},\n"
               "  \"mixes\": {\n",
               seed, events, kFabricDomains);

  double min_speedup = -1.0;
  double min_wheel_eps = -1.0;
  for (size_t m = 0; m < mixes.size(); ++m) {
    const std::string& mix = mixes[m];
    std::fprintf(f, "    \"%s\": {\n", mix.c_str());
    MixStats wheel, heap;
    if (run_wheel) {
      wheel = RunMix(mix, Simulator::SchedulerBackend::kWheel, seed, events);
      std::printf("%-8s wheel  %9.0f ev/s  wall %.3fs  peak %zu  "
                  "allocs/ev %.8f\n",
                  mix.c_str(), wheel.events_per_sec, wheel.wall_sec,
                  wheel.peak_pending, wheel.allocs_per_event);
      WriteStats(f, "wheel", wheel);
      if (min_wheel_eps < 0 || wheel.events_per_sec < min_wheel_eps) {
        min_wheel_eps = wheel.events_per_sec;
      }
    }
    if (run_heap) {
      heap = RunMix(mix, Simulator::SchedulerBackend::kHeap, seed, events);
      std::printf("%-8s heap   %9.0f ev/s  wall %.3fs  peak %zu\n",
                  mix.c_str(), heap.events_per_sec, heap.wall_sec,
                  heap.peak_pending);
      if (run_wheel) std::fprintf(f, ",\n");
      WriteStats(f, "heap", heap);
    }
    if (run_wheel && run_heap && heap.events_per_sec > 0) {
      double speedup = wheel.events_per_sec / heap.events_per_sec;
      std::fprintf(f, ",\n      \"wheel_vs_heap_speedup\": %.3f\n", speedup);
      std::printf("%-8s speedup %.2fx\n", mix.c_str(), speedup);
      if (min_speedup < 0 || speedup < min_speedup) {
        min_speedup = speedup;
      }
    } else {
      std::fprintf(f, "\n");
    }
    std::fprintf(f, "    }%s\n", m + 1 < mixes.size() ? "," : "");
  }

  std::fprintf(f, "  },\n  \"summary\": {");
  bool first = true;
  if (min_wheel_eps >= 0) {
    std::fprintf(f, "\"min_wheel_events_per_sec\": %.0f", min_wheel_eps);
    first = false;
  }
  if (min_speedup >= 0) {
    std::fprintf(f, "%s\"min_wheel_vs_heap_speedup\": %.3f",
                 first ? "" : ", ", min_speedup);
  }
  std::fprintf(f, "}\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
