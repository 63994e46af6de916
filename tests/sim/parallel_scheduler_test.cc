// Multi-domain scheduler tests: the wheel's merge of the domain queues
// against the reference heap. The contract under test: with fabrics
// partitioned into domains and a declared NTB lookahead, every domain
// executes exactly the same local (when, id) sequence on both backends —
// cross-domain events included — and the adversarial edges (cross arrival
// exactly at the lookahead boundary, zero-delay bursts scheduled from a
// cross arrival, Stop() mid-run, an attached trace sink) change nothing.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::sim {
namespace {

using Backend = Simulator::SchedulerBackend;

constexpr uint32_t kDomains = 4;
constexpr SimTime kLookahead = 1000;

// Per-domain execution log: the contract is that every domain sees the
// same local sequence on both backends.
struct DomainLog {
  Rng rng{0};
  std::vector<std::pair<SimTime, uint64_t>> fired;
  uint64_t budget = 0;
  uint64_t next_id = 0;
  uint64_t cross_sent = 0;
};

struct World {
  Simulator* sim = nullptr;
  std::array<DomainLog, kDomains> dom;

  void Record(uint32_t d, uint64_t id) {
    dom[d].fired.push_back({sim->Now(), id});
  }
};

struct Tail {
  World* w;
  uint32_t d;
  uint64_t id;
  void operator()() const { w->Record(d, id); }
};

struct CrossArrival {
  World* w;
  uint32_t d;
  uint64_t id;
  void operator()() const {
    w->Record(d, id);
    // A zero-delay local scheduled from a cross arrival: in the merge the
    // target's wheel clock may already sit past this timestamp (the
    // arrival came through the inbox), so this exercises the
    // behind-the-clock insert path.
    w->sim->Schedule(0, Tail{w, d, id + 1});
  }
};

struct Chain {
  World* w;
  uint32_t d;
  void operator()() const {
    DomainLog& log = w->dom[d];
    w->Record(d, log.next_id++);
    if (log.budget == 0) return;
    --log.budget;
    uint64_t pick = log.rng.Uniform(100);
    if (pick < 10) {
      // Same-timestamp burst: zero-delay sibling with a later seq.
      w->sim->Schedule(0, Tail{w, d, log.next_id++});
    }
    if (pick >= 90) {
      uint32_t peer = (d + 1) % kDomains;
      // Sometimes exactly the lookahead — the tightest legal cross edge.
      SimTime hop = kLookahead + (pick == 99 ? 0 : log.rng.Uniform(800));
      uint64_t cross_id =
          1000000000ull * (d + 1) + 2 * log.cross_sent++;
      w->sim->ScheduleIn(peer, hop, CrossArrival{w, peer, cross_id});
    }
    w->sim->Schedule(log.rng.Uniform(3000), Chain{w, d});
  }
};

struct RunResult {
  std::array<std::vector<std::pair<SimTime, uint64_t>>, kDomains> fired;
  SimTime final_now = 0;
  uint64_t executed = 0;
  uint64_t cross = 0;
};

// Counts what the simulator reports to an attached sink.
class CountingSink : public obs::TraceSink {
 public:
  void OnEventScheduled(SimTime, SimTime, uint64_t) override { ++scheduled_; }
  void OnEventBegin(SimTime, uint64_t) override { ++begun_; }
  void OnEventEnd(SimTime, uint64_t) override {}
  void OnInstant(const char*, SimTime) override {}
  void OnCounterSample(const char*, SimTime, double) override {}
  uint64_t scheduled_ = 0;
  uint64_t begun_ = 0;
};

RunResult RunWorkload(Backend backend, uint64_t seed,
                      bool stuttered_run_until = false,
                      CountingSink* sink = nullptr) {
  Simulator sim(backend);
  sim.set_trace_sink(sink);
  sim.ConfigureDomains(kDomains);
  sim.DeclareLookahead(kLookahead);
  World w;
  w.sim = &sim;
  for (uint32_t d = 0; d < kDomains; ++d) {
    w.dom[d].rng = Rng(seed * 100 + d);
    w.dom[d].budget = 3000;
    Simulator::DomainScope scope(&sim, d);
    for (int i = 0; i < 32; ++i) {
      sim.Schedule(w.dom[d].rng.Uniform(2000), Chain{&w, d});
    }
  }
  if (stuttered_run_until) {
    // Interleave bounded segments with the free-running drain so the merge
    // restarts from arbitrary mid-schedule states.
    SimTime t = 0;
    Rng steps(seed ^ 0x5eed);
    for (int i = 0; i < 6 && !sim.empty(); ++i) {
      t += steps.Uniform(200000) + 1;
      sim.RunUntil(t);
    }
  }
  sim.Run();
  RunResult out;
  for (uint32_t d = 0; d < kDomains; ++d) out.fired[d] = w.dom[d].fired;
  out.final_now = sim.Now();
  out.executed = sim.executed_events();
  out.cross = sim.cross_scheduled_events();
  return out;
}

void ExpectSameResult(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.final_now, b.final_now) << label;
  EXPECT_EQ(a.executed, b.executed) << label;
  EXPECT_EQ(a.cross, b.cross) << label;
  for (uint32_t d = 0; d < kDomains; ++d) {
    ASSERT_EQ(a.fired[d].size(), b.fired[d].size())
        << label << " domain " << d;
    for (size_t i = 0; i < a.fired[d].size(); ++i) {
      ASSERT_EQ(a.fired[d][i], b.fired[d][i])
          << label << " domain " << d << " event " << i;
    }
  }
}

TEST(ParallelSchedulerTest, MatchesSerialBackendsOnRandomMultiDomainRuns) {
  for (uint64_t seed : {1u, 2u, 5u}) {
    auto wheel = RunWorkload(Backend::kWheel, seed);
    auto heap = RunWorkload(Backend::kHeap, seed);
    ASSERT_GT(wheel.cross, 0u) << "workload sent no cross events";
    ExpectSameResult(wheel, heap, "wheel-vs-heap seed " + std::to_string(seed));
    // A trace sink sees every event and cross edge and moves none of them.
    CountingSink sink;
    auto traced =
        RunWorkload(Backend::kWheel, seed, /*stuttered=*/false, &sink);
    ExpectSameResult(wheel, traced, "traced seed " + std::to_string(seed));
    EXPECT_EQ(sink.begun_, wheel.executed);
    EXPECT_EQ(sink.scheduled_, wheel.executed);
  }
}

TEST(ParallelSchedulerTest, MatchesSerialAcrossStutteredRunUntilSegments) {
  for (uint64_t seed : {3u, 11u}) {
    auto wheel = RunWorkload(Backend::kWheel, seed, /*stuttered=*/true);
    auto heap = RunWorkload(Backend::kHeap, seed, /*stuttered=*/true);
    ExpectSameResult(wheel, heap, "stuttered seed " + std::to_string(seed));
  }
}

// A cross event landing exactly at sender_now + lookahead, tied with a
// pre-existing local at the same timestamp: locals win the tie on both
// backends, and the arrival time is exact.
TEST(ParallelSchedulerTest, CrossAtExactLookaheadBoundaryTiesLocalFirst) {
  for (Backend backend : {Backend::kWheel, Backend::kHeap}) {
    Simulator sim(backend);
    sim.ConfigureDomains(2);
    sim.DeclareLookahead(kLookahead);
    std::vector<std::pair<SimTime, int>> got;  // only domain-1 events record
    {
      Simulator::DomainScope scope(&sim, 1);
      sim.ScheduleAt(1500, [&]() { got.push_back({sim.Now(), 1}); });
    }
    {
      Simulator::DomainScope scope(&sim, 0);
      sim.ScheduleAt(500, [&]() {
        sim.ScheduleIn(1, kLookahead,
                       [&]() { got.push_back({sim.Now(), 2}); });
      });
    }
    sim.Run();
    ASSERT_EQ(got.size(), 2u) << "backend " << static_cast<int>(backend);
    EXPECT_EQ(got[0], (std::pair<SimTime, int>{1500, 1}));
    EXPECT_EQ(got[1], (std::pair<SimTime, int>{1500, 2}));
    EXPECT_EQ(sim.cross_scheduled_events(), 1u);
  }
}

// Zero-delay bursts scheduled from inside a cross arrival keep FIFO order
// at one timestamp on both backends.
TEST(ParallelSchedulerTest, ZeroDelayBurstFromCrossArrivalKeepsFifo) {
  for (Backend backend : {Backend::kWheel, Backend::kHeap}) {
    Simulator sim(backend);
    sim.ConfigureDomains(2);
    sim.DeclareLookahead(kLookahead);
    std::vector<int> order;
    {
      Simulator::DomainScope scope(&sim, 0);
      sim.ScheduleAt(100, [&]() {
        sim.ScheduleIn(1, kLookahead + 50, [&]() {
          order.push_back(0);
          for (int b = 1; b <= 4; ++b) {
            sim.Schedule(0, [&order, b]() { order.push_back(b); });
          }
        });
      });
    }
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}))
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(sim.Now(), 1150u);
  }
}

// Stop() from inside a multi-domain run halts after that event on both
// backends, at the same point, and resuming completes the schedule with
// the same per-domain sequences.
TEST(ParallelSchedulerTest, StopIsDeterministicAndResumable) {
  constexpr uint64_t kSeed = 9;
  auto run_with_stop = [&](Backend backend, uint64_t* after_stop) {
    Simulator sim(backend);
    sim.ConfigureDomains(kDomains);
    sim.DeclareLookahead(kLookahead);
    World w;
    w.sim = &sim;
    for (uint32_t d = 0; d < kDomains; ++d) {
      w.dom[d].rng = Rng(kSeed * 100 + d);
      w.dom[d].budget = 800;
      Simulator::DomainScope scope(&sim, d);
      for (int i = 0; i < 16; ++i) {
        sim.Schedule(w.dom[d].rng.Uniform(2000), Chain{&w, d});
      }
    }
    {
      Simulator::DomainScope scope(&sim, 2);
      sim.ScheduleAt(50000, [&]() { sim.Stop(); });
    }
    sim.Run();  // halts right after the stop event
    *after_stop = sim.executed_events();
    sim.Run();  // resume to drain
    RunResult out;
    for (uint32_t d = 0; d < kDomains; ++d) out.fired[d] = w.dom[d].fired;
    out.final_now = sim.Now();
    out.executed = sim.executed_events();
    out.cross = sim.cross_scheduled_events();
    return out;
  };
  uint64_t stop_wheel = 0, stop_heap = 0;
  auto wheel = run_with_stop(Backend::kWheel, &stop_wheel);
  auto heap = run_with_stop(Backend::kHeap, &stop_heap);
  EXPECT_EQ(stop_wheel, stop_heap) << "backends stopped at different events";
  EXPECT_GT(stop_wheel, 0u);
  EXPECT_LT(stop_wheel, wheel.executed) << "the stop halted nothing";
  ExpectSameResult(wheel, heap, "stop/resume");
}

TEST(ParallelSchedulerTest, IdleSchedulingTargetsScopedDomain) {
  for (Backend backend : {Backend::kWheel, Backend::kHeap}) {
    Simulator sim(backend);
    sim.ConfigureDomains(3);
    sim.DeclareLookahead(kLookahead);
    uint32_t ran_in = 99;
    {
      Simulator::DomainScope scope(&sim, 2);
      sim.Schedule(5, [&]() { ran_in = sim.current_domain(); });
    }
    EXPECT_EQ(sim.domain_pending_events(2), 1u);
    EXPECT_EQ(sim.domain_pending_events(0), 0u);
    sim.Run();
    EXPECT_EQ(ran_in, 2u) << "backend " << static_cast<int>(backend);
  }
}

// The lookahead contract (see Simulator::DeclareLookahead): a cross-domain
// event closer than the declared lookahead, or with none declared, is
// refused outright on both backends.
TEST(ParallelSchedulerDeathTest, CrossEventBelowLookaheadAborts) {
  for (Backend backend : {Backend::kWheel, Backend::kHeap}) {
    EXPECT_DEATH(
        {
          Simulator sim(backend);
          sim.ConfigureDomains(2);
          sim.DeclareLookahead(kLookahead);
          Simulator::DomainScope scope(&sim, 0);
          sim.ScheduleAt(100, [&]() {
            sim.ScheduleIn(1, kLookahead / 2, []() {});
          });
          sim.Run();
        },
        "CHECK failed")
        << "backend " << static_cast<int>(backend);
  }
}

TEST(ParallelSchedulerDeathTest, CrossEventWithoutLookaheadAborts) {
  for (Backend backend : {Backend::kWheel, Backend::kHeap}) {
    EXPECT_DEATH(
        {
          Simulator sim(backend);
          sim.ConfigureDomains(2);
          Simulator::DomainScope scope(&sim, 0);
          sim.ScheduleAt(100, [&]() { sim.ScheduleIn(1, 5000, []() {}); });
          sim.Run();
        },
        "CHECK failed")
        << "backend " << static_cast<int>(backend);
  }
}

}  // namespace
}  // namespace xssd::sim
