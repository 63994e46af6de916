#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::obs {
namespace {

TEST(TimeSeriesSampler, PerWindowCounterDeltas) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  // 3 bumps in window 0, 1 in window 1, none in window 2.
  sim.Schedule(sim::Us(100), [&]() { ops->Add(); });
  sim.Schedule(sim::Us(200), [&]() { ops->Add(); });
  sim.Schedule(sim::Us(900), [&]() { ops->Add(); });
  sim.Schedule(sim::Us(1500), [&]() { ops->Add(); });
  sim.Schedule(sim::Us(2800), [&]() {});  // advance past window 2's start
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.counter_series().at("t.ops");
  ASSERT_GE(series.values.size(), 3u);
  EXPECT_EQ(series.first_window, 0u);
  EXPECT_DOUBLE_EQ(series.values[0], 3.0);
  EXPECT_DOUBLE_EQ(series.values[1], 1.0);
  EXPECT_DOUBLE_EQ(series.values[2], 0.0);
}

TEST(TimeSeriesSampler, WindowBoundaryClosesBeforeTheBoundaryEvent) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  // An event exactly at the boundary belongs to the NEXT window: the
  // window [0, 1ms) closes before the event at t=1ms executes.
  sim.Schedule(sim::Ms(1), [&]() { ops->Add(); });
  sim.Schedule(sim::Ms(2) + sim::Us(1), [&]() {});
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.counter_series().at("t.ops");
  ASSERT_GE(series.values.size(), 2u);
  EXPECT_DOUBLE_EQ(series.values[0], 0.0);
  EXPECT_DOUBLE_EQ(series.values[1], 1.0);
}

TEST(TimeSeriesSampler, IdleGapBatchClosesEmptyWindows) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Gauge* depth = registry.GetGauge("t.depth");
  depth->Set(7);
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  // One event 10 ms out: the single time jump must close windows 0..9 in
  // one observer call, each carrying the gauge value frozen across the
  // gap (gauges cannot change while no events run).
  sim.Schedule(sim::Ms(10), [&]() { depth->Set(9); });
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.gauge_series().at("t.depth");
  ASSERT_GE(series.values.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(series.values[i], 7.0) << "window " << i;
  }
}

TEST(TimeSeriesSampler, ResetSafeCounterDelta) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  sim.Schedule(sim::Us(100), [&]() { ops->Add(100); });
  // Mid-run registry reset: the next window's delta must be the
  // post-reset accumulation (5), not a wrapped negative.
  sim.Schedule(sim::Us(1200), [&]() {
    registry.Reset();
    ops->Add(5);
  });
  sim.Schedule(sim::Us(2100), [&]() {});
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.counter_series().at("t.ops");
  ASSERT_GE(series.values.size(), 2u);
  EXPECT_DOUBLE_EQ(series.values[0], 100.0);
  EXPECT_DOUBLE_EQ(series.values[1], 5.0);
}

TEST(TimeSeriesSampler, PreStartHistoryIsNotChargedToWindowZero) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  ops->Add(5000);  // history from before the sampler existed
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();
  sim.Schedule(sim::Us(100), [&]() { ops->Add(2); });
  sim.Schedule(sim::Us(1100), [&]() {});
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.counter_series().at("t.ops");
  ASSERT_GE(series.values.size(), 1u);
  EXPECT_DOUBLE_EQ(series.values[0], 2.0);
}

TEST(TimeSeriesSampler, MidRunRegistrationJoinsAtCurrentWindow) {
  sim::Simulator sim;
  MetricsRegistry registry;
  registry.GetCounter("t.early");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  Counter* late = nullptr;
  sim.Schedule(sim::Ms(2) + sim::Us(500), [&]() {
    late = registry.GetCounter("t.late");
    late->Add(3);
  });
  sim.Schedule(sim::Ms(3) + sim::Us(500), [&]() {});
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.counter_series().at("t.late");
  EXPECT_EQ(series.first_window, 2u);
  ASSERT_GE(series.values.size(), 1u);
  EXPECT_DOUBLE_EQ(series.values[0], 3.0);
}

TEST(TimeSeriesSampler, BoundedRingEvictsOldestWindows) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 3});
  sampler.Start();

  for (int w = 0; w < 8; ++w) {
    sim.Schedule(sim::Ms(w) + sim::Us(500),
                 [ops, w]() { ops->Add(static_cast<uint64_t>(w) + 1); });
  }
  sim.Schedule(sim::Ms(8) + sim::Us(1), [&]() {});
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.counter_series().at("t.ops");
  ASSERT_EQ(series.values.size(), 3u);
  EXPECT_GT(series.evicted, 0u);
  EXPECT_GT(sampler.evicted_values(), 0u);
  // Nine windows closed (0..7 carrying deltas 1..8, plus the trailing
  // partial window 8 with delta 0); the ring keeps the last three, and
  // first_window + position recovers the absolute window index.
  EXPECT_EQ(series.first_window, 6u);
  EXPECT_DOUBLE_EQ(series.values[0], 7.0);
  EXPECT_DOUBLE_EQ(series.values[1], 8.0);
  EXPECT_DOUBLE_EQ(series.values[2], 0.0);
}

TEST(TimeSeriesSampler, FinalizeClosesTrailingPartialWindow) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  sim.Schedule(sim::Ms(1) + sim::Us(500), [&]() { ops->Add(9); });
  sim.Run();
  sampler.Finalize();
  EXPECT_TRUE(sampler.finalized());

  // Window 0 full (delta 0 — the bump is at 1.5ms), window 1 partial.
  const auto& series = sampler.counter_series().at("t.ops");
  ASSERT_EQ(series.values.size(), 2u);
  EXPECT_DOUBLE_EQ(series.values[0], 0.0);
  EXPECT_DOUBLE_EQ(series.values[1], 9.0);
  EXPECT_EQ(sampler.end_time(), sim::Ms(1) + sim::Us(500));
}

TEST(TimeSeriesSampler, SimulatorTeardownFinalizesTheSampler) {
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  std::unique_ptr<TimeSeriesSampler> sampler;
  {
    sim::Simulator sim;
    sampler =
        std::make_unique<TimeSeriesSampler>(&sim, &registry,
                                            TimeSeriesOptions{sim::Ms(1), 4096});
    sampler->Start();
    sim.Schedule(sim::Ms(2) + sim::Us(100), [&]() { ops->Add(4); });
    sim.Run();
    // sim destroyed here, before the sampler: teardown must finalize.
  }
  EXPECT_TRUE(sampler->finalized());
  EXPECT_GE(sampler->windows(), 3u);
}

TEST(TimeSeriesSampler, LatencyWindowsCarryClampedPercentiles) {
  sim::Simulator sim;
  MetricsRegistry registry;
  LatencyRecorder* lat = registry.GetLatency("t.lat_ns");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();

  sim.Schedule(sim::Us(100), [&]() {
    lat->Add(1000);
    lat->Add(2000);
    lat->Add(3000);
  });
  sim.Schedule(sim::Us(1100), [&]() { lat->Add(50000); });
  sim.Schedule(sim::Us(2100), [&]() {});
  sim.Run();
  sampler.Finalize();

  const auto& series = sampler.latency_series().at("t.lat_ns");
  ASSERT_GE(series.windows.size(), 2u);
  EXPECT_EQ(series.windows[0].count, 3u);
  EXPECT_DOUBLE_EQ(series.windows[0].min, 1000.0);
  EXPECT_DOUBLE_EQ(series.windows[0].max, 3000.0);
  EXPECT_GE(series.windows[0].p99, 1000.0);
  EXPECT_LE(series.windows[0].p99, 3000.0);
  // The second window must not inherit the first's samples.
  EXPECT_EQ(series.windows[1].count, 1u);
  EXPECT_DOUBLE_EQ(series.windows[1].min, 50000.0);
  EXPECT_DOUBLE_EQ(series.windows[1].max, 50000.0);
}

TEST(TimeSeriesSampler, LastValueResolvesEveryKindAndStat) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Counter* ops = registry.GetCounter("t.ops");
  Gauge* depth = registry.GetGauge("t.depth");
  LatencyRecorder* lat = registry.GetLatency("t.lat_ns");
  TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
  sampler.Start();
  sim.Schedule(sim::Us(100), [&]() {
    ops->Add(4);
    depth->Set(17);
    lat->Add(640);
  });
  sim.Schedule(sim::Us(1100), [&]() {});
  sim.Run();
  sampler.Finalize();

  double v = 0;
  EXPECT_TRUE(sampler.LastValue("t.ops", "", &v));
  EXPECT_TRUE(sampler.LastValue("t.ops", "delta", &v));
  EXPECT_FALSE(sampler.LastValue("t.ops", "p99", &v));
  EXPECT_TRUE(sampler.LastValue("t.depth", "value", &v));
  EXPECT_DOUBLE_EQ(v, 17.0);
  EXPECT_TRUE(sampler.LastValue("t.lat_ns", "count", &v));
  EXPECT_TRUE(sampler.LastValue("t.lat_ns", "p999", &v));
  // Latency series refuse a default stat; unknown names refuse too.
  EXPECT_FALSE(sampler.LastValue("t.lat_ns", "", &v));
  EXPECT_FALSE(sampler.LastValue("t.absent", "", &v));
}

TEST(TimeSeriesSampler, ExportIsValidAndDeterministicJson) {
  auto run = [](std::string* out) {
    sim::Simulator sim;
    MetricsRegistry registry;
    Counter* ops = registry.GetCounter("t.ops");
    Gauge* depth = registry.GetGauge("t.depth");
    LatencyRecorder* lat = registry.GetLatency("t.lat_ns");
    sim::Rng rng(7);
    TimeSeriesSampler sampler(&sim, &registry, {sim::Ms(1), 4096});
    sampler.Start();
    for (int i = 0; i < 200; ++i) {
      sim.Schedule(rng.UniformRange(1, sim::Ms(5)), [&, i]() {
        ops->Add();
        depth->Set(i);
        lat->Add(static_cast<double>(100 + i));
      });
    }
    sim.Run();
    sampler.Finalize();
    sampler.AppendJson(out);
  };
  std::string a;
  std::string b;
  run(&a);
  run(&b);
  EXPECT_EQ(a, b);
  Result<JsonValue> parsed = ParseJson(a);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(a.find("\"t.ops\""), std::string::npos);
  EXPECT_NE(a.find("\"t.lat_ns\""), std::string::npos);
}

TEST(TimeSeriesSampler, SamplingDoesNotPerturbTheEventSequence) {
  auto run = [](bool sampled, uint64_t* events, sim::SimTime* end,
                uint64_t* ops_total) {
    sim::Simulator sim;
    MetricsRegistry registry;
    Counter* ops = registry.GetCounter("t.ops");
    sim::Rng rng(42);
    TimeSeriesSampler sampler(&sim, &registry, {sim::Us(100), 4096});
    if (sampled) sampler.Start();
    // Random self-rescheduling chain, RNG-coupled: any extra event or
    // reordering would change the draw sequence and diverge the totals.
    struct Chain {
      sim::Simulator* sim;
      sim::Rng* rng;
      Counter* ops;
      int budget = 500;
      void operator()() {
        if (budget-- <= 0) return;
        ops->Add(rng->Uniform(3) + 1);
        sim->Schedule(rng->UniformRange(10, 5000), *this);
      }
    };
    sim.Schedule(1, Chain{&sim, &rng, ops});
    sim.Run();
    *events = sim.executed_events();
    *end = sim.Now();
    *ops_total = ops->value();
  };
  uint64_t ev_off = 0;
  uint64_t ev_on = 0;
  uint64_t ops_off = 0;
  uint64_t ops_on = 0;
  sim::SimTime end_off = 0;
  sim::SimTime end_on = 0;
  run(false, &ev_off, &end_off, &ops_off);
  run(true, &ev_on, &end_on, &ops_on);
  EXPECT_EQ(ev_off, ev_on);
  EXPECT_EQ(end_off, end_on);
  EXPECT_EQ(ops_off, ops_on);
}

}  // namespace
}  // namespace xssd::obs
