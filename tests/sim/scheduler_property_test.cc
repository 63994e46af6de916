// Adversarial scheduler properties, parameterized over both backends. The
// timer wheel must be indistinguishable from the reference binary heap:
// same (when, seq) total order, same clock semantics at bucket edges, same
// Stop()/resume behavior, unmoved by an attached trace sink — plus
// wheel-only guarantees (allocation-free steady state) and the
// past-schedule clamp contract.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "sim/event_pool.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace xssd::sim {
namespace {

using Backend = Simulator::SchedulerBackend;

// Spans derived from the wheel's geometry: level 0 holds exact times over
// one aligned window of 2^kLevel0Bits ns, and a level-k slot (k >= 1)
// spans 2^SlotShift(k) ns, the window itself at level 1.
constexpr SimTime SlotSpan(int level) {
  return SimTime{1} << TimerWheel::SlotShift(level);
}
constexpr SimTime kWindow = SlotSpan(1);                     // 4096 ns
constexpr SimTime kLevel2Slot = SlotSpan(2);                 // 262144 ns
constexpr SimTime kHorizon = SimTime{1} << TimerWheel::kHorizonBits;
// A stamp well inside the level-0 window.
constexpr SimTime kSubWindow = 64;
static_assert(SlotSpan(TimerWheel::kLevels - 1) * TimerWheel::kSlots ==
              kHorizon);

class SchedulerPropertyTest : public ::testing::TestWithParam<Backend> {};

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kHeap ? "heap" : "wheel";
}

TEST_P(SchedulerPropertyTest, FifoAcrossBucketBoundaries) {
  Simulator sim(GetParam());
  // Same-timestamp runs placed exactly on and around every wheel
  // boundary: the level-0 window (2^12 ns), each upper level's slot edge,
  // and the overflow horizon, plus a stamp inside the window. Scheduling
  // order must be preserved per timestamp.
  std::vector<SimTime> stamps = {
      kSubWindow - 1,  kSubWindow,  kSubWindow + 1,
      kWindow - 1,     kWindow,     kWindow + 1,
      kLevel2Slot - 1, kLevel2Slot, kLevel2Slot + 1,
      kHorizon - 1,    kHorizon,    kHorizon + 1,
  };
  for (int k = 3; k < TimerWheel::kLevels; ++k) {
    for (SimTime t : {SlotSpan(k) - 1, SlotSpan(k), SlotSpan(k) + 1}) {
      stamps.push_back(t);
    }
  }
  std::vector<std::pair<SimTime, int>> fired;
  // Interleave: for each copy index, walk all stamps — so equal-timestamp
  // events are scheduled far apart in seq space.
  for (int copy = 0; copy < 5; ++copy) {
    for (SimTime t : stamps) {
      sim.ScheduleAt(t, [&fired, t, copy]() { fired.push_back({t, copy}); });
    }
  }
  sim.Run();
  ASSERT_EQ(fired.size(), stamps.size() * 5);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first) << "time order at " << i;
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second)
          << "FIFO violated at t=" << fired[i].first;
    }
  }
}

TEST_P(SchedulerPropertyTest, FarFutureAndNearInterleave) {
  Simulator sim(GetParam());
  std::vector<int> order;
  // Beyond the 2^48 ns wheel horizon (overflow path), mid-range, and
  // near-term events scheduled in shuffled order.
  sim.ScheduleAt(kHorizon * 3 + 17, [&]() { order.push_back(6); });
  sim.ScheduleAt(5, [&]() { order.push_back(1); });
  sim.ScheduleAt(kHorizon + 1, [&]() { order.push_back(5); });
  sim.ScheduleAt(kLevel2Slot + 3, [&]() { order.push_back(3); });
  sim.ScheduleAt(6, [&]() { order.push_back(2); });
  sim.ScheduleAt(kHorizon - 2, [&]() { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.Now(), kHorizon * 3 + 17);
}

TEST_P(SchedulerPropertyTest, NearEventScheduledFromFarCallback) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.ScheduleAt(kHorizon + 100, [&]() {
    order.push_back(1);
    // From deep in the future, immediately reschedule nearby — including
    // the same timestamp (must run after already-queued same-time events).
    sim.Schedule(0, [&]() { order.push_back(3); });
    sim.Schedule(1, [&]() { order.push_back(4); });
  });
  sim.ScheduleAt(kHorizon + 100, [&]() { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_P(SchedulerPropertyTest, RunUntilLandsExactlyOnBucketEdges) {
  std::vector<SimTime> edges = {kSubWindow, kWindow, kLevel2Slot};
  for (int k = 3; k < TimerWheel::kLevels; ++k) edges.push_back(SlotSpan(k));
  edges.push_back(kHorizon);
  for (SimTime edge : edges) {
    Simulator sim(GetParam());
    int before = 0, at = 0, after = 0;
    sim.ScheduleAt(edge - 1, [&]() { ++before; });
    sim.ScheduleAt(edge, [&]() { ++at; });
    sim.ScheduleAt(edge + 1, [&]() { ++after; });
    // Deadline exactly on the edge: the edge event is <= deadline and must
    // fire; the event one tick later must not, and the clock must land on
    // the deadline itself.
    EXPECT_EQ(sim.RunUntil(edge), 2u) << "edge " << edge;
    EXPECT_EQ(before, 1);
    EXPECT_EQ(at, 1);
    EXPECT_EQ(after, 0);
    EXPECT_EQ(sim.Now(), edge);
    // Scheduling relative to the edge then draining still fires the rest.
    sim.Schedule(0, [&]() { ++at; });
    sim.Run();
    EXPECT_EQ(at, 2);
    EXPECT_EQ(after, 1);
    EXPECT_EQ(sim.Now(), edge + 1);
  }
}

TEST_P(SchedulerPropertyTest, RunUntilDeadlineBetweenBucketsAdvancesClock) {
  Simulator sim(GetParam());
  int ran = 0;
  sim.ScheduleAt(kWindow * 7 + 13, [&]() { ++ran; });
  // Deadlines that stop strictly inside empty wheel regions.
  EXPECT_EQ(sim.RunUntil(kSubWindow), 0u);
  EXPECT_EQ(sim.Now(), kSubWindow);
  EXPECT_EQ(sim.RunUntil(kWindow * 7), 0u);
  EXPECT_EQ(sim.Now(), kWindow * 7);
  EXPECT_EQ(sim.RunUntil(kWindow * 7 + 13), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_P(SchedulerPropertyTest, StopMidStepAcrossLevelsThenResume) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.ScheduleAt(10, [&]() {
    order.push_back(1);
    sim.Stop();
  });
  sim.ScheduleAt(10, [&]() { order.push_back(2); });
  sim.ScheduleAt(kWindow + 5, [&]() { order.push_back(3); });
  sim.ScheduleAt(kHorizon + 5, [&]() { order.push_back(4); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.Run();  // resumes where it stopped, with order intact
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST_P(SchedulerPropertyTest, PastScheduleClampsToNowWithCounter) {
  Simulator sim(GetParam());
  sim.set_allow_past_schedules(true);
  std::vector<int> order;
  sim.ScheduleAt(100, [&]() {
    order.push_back(1);
    sim.ScheduleAt(100, [&]() { order.push_back(2); });  // same time: ok
    sim.ScheduleAt(40, [&]() { order.push_back(3); });   // past: clamped
  });
  sim.ScheduleAt(200, [&]() { order.push_back(4); });
  sim.Run();
  // The clamped event fires at Now()==100, after the already-queued
  // same-timestamp event (it got a later seq), before t=200.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.past_schedule_clamps(), 1u);
  EXPECT_EQ(sim.Now(), 200u);
}

// Counts what the simulator reports to an attached sink.
class CountingSink : public obs::TraceSink {
 public:
  void OnEventScheduled(SimTime, SimTime, uint64_t) override { ++scheduled; }
  void OnEventBegin(SimTime, uint64_t) override { ++begun; }
  void OnEventEnd(SimTime, uint64_t) override {}
  void OnInstant(const char*, SimTime) override {}
  void OnCounterSample(const char*, SimTime, double) override {}
  uint64_t scheduled = 0;
  uint64_t begun = 0;
};

// Differential property: a randomized schedule — bursts of equal
// timestamps, nested scheduling from callbacks, occasional far-future and
// beyond-horizon targets, interleaved RunUntil segments — must produce an
// identical execution sequence on both backends, with or without a trace
// sink attached.
std::vector<std::pair<SimTime, uint64_t>> RunRandomSchedule(
    Backend backend, uint64_t seed, CountingSink* sink = nullptr) {
  Simulator sim(backend);
  sim.set_trace_sink(sink);
  Rng rng(seed);
  std::vector<std::pair<SimTime, uint64_t>> fired;
  uint64_t next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    uint64_t id = next_id++;
    uint64_t pick = rng.Uniform(100);
    SimTime delay;
    if (pick < 50) {
      delay = rng.Uniform(128);  // hammer level-0/1 boundaries
    } else if (pick < 75) {
      delay = rng.Uniform(2 * kWindow);
    } else if (pick < 90) {
      delay = rng.Uniform(2 * kLevel2Slot);
    } else if (pick < 97) {
      delay = rng.Uniform(Ms(50));
    } else {
      delay = kHorizon + rng.Uniform(kHorizon);  // overflow path
    }
    sim.Schedule(delay, [&fired, &rng, &spawn, &sim, id, depth]() {
      fired.push_back({sim.Now(), id});
      if (depth > 0) {
        uint64_t kids = rng.Uniform(3);
        for (uint64_t k = 0; k < kids; ++k) spawn(depth - 1);
        if (rng.Uniform(8) == 0) {
          // Same-timestamp burst scheduled from inside a callback.
          SimTime at = sim.Now() + rng.Uniform(96);
          for (int b = 0; b < 4; ++b) {
            uint64_t bid = 1000000 + id * 8 + static_cast<uint64_t>(b);
            sim.ScheduleAt(at, [&fired, &sim, bid]() {
              fired.push_back({sim.Now(), bid});
            });
          }
        }
      }
    });
  };
  for (int i = 0; i < 400; ++i) spawn(3);
  // Drain in stuttering RunUntil steps to cross bucket edges in every
  // possible phase, then finish with Run().
  SimTime t = 0;
  for (int i = 0; i < 200 && !sim.empty(); ++i) {
    t += rng.Uniform(2 * kWindow) + 1;
    sim.RunUntil(t);
  }
  sim.Run();
  return fired;
}

TEST(SchedulerDifferentialTest, AllBackendsMatchOnRandomSchedules) {
  for (uint64_t seed : {1u, 2u, 3u, 7u, 42u}) {
    auto wheel = RunRandomSchedule(Backend::kWheel, seed);
    auto heap = RunRandomSchedule(Backend::kHeap, seed);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_EQ(wheel[i], heap[i]) << "seed " << seed << " event " << i;
    }
    // A sink sees every event and moves none of them.
    CountingSink sink;
    EXPECT_EQ(RunRandomSchedule(Backend::kWheel, seed, &sink), wheel)
        << "traced seed " << seed;
    EXPECT_EQ(sink.begun, wheel.size());
    EXPECT_EQ(sink.scheduled, wheel.size());
  }
}

TEST(EventPoolTest, SteadyStateReusesNodesWithoutAllocating) {
  Simulator sim(Backend::kWheel);
  uint64_t fn_heap_before = EventFn::heap_fallbacks();
  // 1M schedule/fire cycles with a small pending set: after warmup the
  // pool must recycle the same nodes — one slab chunk, zero callback
  // spills — no matter how many events pass through.
  uint64_t remaining = 1000000;
  std::function<void()> chain = [&]() {
    if (remaining == 0) return;
    --remaining;
    sim.Schedule(1 + (remaining % 700), chain);
  };
  for (int i = 0; i < 8; ++i) sim.Schedule(i + 1, chain);
  sim.Run();
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(sim.executed_events(), 1000008u);
  EXPECT_EQ(sim.event_pool().total_acquires(), 1000008u);
  EXPECT_EQ(sim.event_pool().live_nodes(), 0u);
  EXPECT_EQ(sim.event_pool().chunks_allocated(), 1u)
      << "pool grew despite bounded pending set";
  // `chain` is a std::function by reference — captured as one pointer, so
  // even the wrapper stays inline.
  EXPECT_EQ(EventFn::heap_fallbacks() - fn_heap_before, 0u);
}

TEST(EventPoolTest, PendingEventsReleasedOnSimulatorDestruction) {
  // Callbacks still queued at destruction must have their captures
  // destroyed (ASan would flag the leak of the shared_ptr otherwise).
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    Simulator sim(Backend::kWheel);
    sim.Schedule(100, [token = std::move(token)]() { (void)*token; });
    sim.Schedule(kHorizon * 2, []() {});  // parked in overflow
    EXPECT_EQ(sim.pending_events(), 2u);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(EventFnTest, LargeCapturesSpillToHeapAndStillRun) {
  uint64_t before = EventFn::heap_fallbacks();
  Simulator sim(Backend::kWheel);
  struct Big {
    uint64_t pad[12];  // 96 bytes: exceeds the 48-byte inline buffer
  };
  Big big{};
  big.pad[11] = 17;
  uint64_t got = 0;
  sim.Schedule(5, [big, &got]() { got = big.pad[11]; });
  sim.Run();
  EXPECT_EQ(got, 17u);
  EXPECT_EQ(EventFn::heap_fallbacks() - before, 1u);
}

// What happens to one capture: constructions other than by move, moves,
// and destructions. Every instance made must be destroyed exactly once.
struct Tally {
  int made = 0;
  int moved = 0;
  int destroyed = 0;
  int live() const { return made + moved - destroyed; }
};

struct Counted {
  explicit Counted(Tally* t) : tally(t) { ++tally->made; }
  Counted(const Counted& other) : tally(other.tally) { ++tally->made; }
  Counted(Counted&& other) noexcept : tally(other.tally) { ++tally->moved; }
  Counted& operator=(const Counted&) = delete;
  Counted& operator=(Counted&&) = delete;
  ~Counted() { ++tally->destroyed; }
  Tally* tally;
};

TEST(EventFnTest, PlainCaptureIsCopiedWithoutAManageCall) {
  int sum = 0;
  int* target = &sum;
  uint64_t id = 7;
  SimTime at = 3;
  auto plain = [target, id, at]() {
    *target += static_cast<int>(id + at);
  };
  static_assert(std::is_trivially_copyable_v<decltype(plain)>);
  EventFn fn(plain);
  EXPECT_TRUE(fn.plain());
  EventFn moved(std::move(fn));
  EXPECT_TRUE(moved.plain());
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(sum, 10);

  // Anything with a destructor keeps its manage function, inline or not.
  auto token = std::make_shared<int>(1);
  EXPECT_FALSE(EventFn([token]() {}).plain());
  Tally tally;
  EXPECT_FALSE(EventFn([c = Counted(&tally)]() {}).plain());
  EXPECT_EQ(tally.live(), 0);
}

TEST(EventFnTest, TemporaryHandedToScheduleAtIsMovedOnceIntoItsNode) {
  Tally tally;
  {
    Simulator sim(Backend::kWheel);
    sim.ScheduleAt(10, [c = Counted(&tally)]() {});
    sim.Schedule(20, [c = Counted(&tally)]() {});
    // Each capture was made once at the call site and moved once, straight
    // into its event node; the call-site temporaries are gone.
    EXPECT_EQ(tally.made, 2);
    EXPECT_EQ(tally.moved, 2);
    EXPECT_EQ(tally.live(), 2);
    sim.Run();
    EXPECT_EQ(tally.moved, 2) << "a pending or fired event moved its capture";
  }
  EXPECT_EQ(tally.live(), 0);
}

TEST(EventFnTest, ManagedCaptureIsDestroyedExactlyOnce) {
  enum Fate { kRuns, kReleasedAtTeardown, kParkedInOverflow };
  for (Fate fate : {kRuns, kReleasedAtTeardown, kParkedInOverflow}) {
    for (Backend backend : {Backend::kWheel, Backend::kHeap}) {
      Tally tally;
      bool ran = false;
      {
        Simulator sim(backend);
        SimTime when = fate == kParkedInOverflow ? kHorizon * 2 + 5 : 100;
        sim.ScheduleAt(when, [c = Counted(&tally), &ran]() { ran = true; });
        EXPECT_EQ(tally.live(), 1) << "fate " << fate;
        if (fate == kRuns) sim.Run();
      }
      EXPECT_EQ(ran, fate == kRuns) << "fate " << fate;
      EXPECT_EQ(tally.live(), 0) << "fate " << fate;
    }
  }
}

// Differential on the model's own delay mix: 90 % of delays under 4 µs (in
// the level-0 window or the next one), the rest spread over the upper
// levels and overflow, with bursts of equal timestamps scheduled from
// callbacks. Wheel and heap must fire the same (time, id) sequence.
std::vector<std::pair<SimTime, uint64_t>> RunNearHeavySchedule(
    Backend backend, uint64_t seed) {
  Simulator sim(backend);
  Rng rng(seed);
  std::vector<std::pair<SimTime, uint64_t>> fired;
  uint64_t next_id = 0;
  std::function<void(int)> spawn = [&](int depth) {
    uint64_t id = next_id++;
    uint64_t pick = rng.Uniform(100);
    SimTime delay;
    if (pick < 90) {
      delay = rng.Uniform(Us(4));
    } else if (pick < 96) {
      delay = rng.Uniform(kLevel2Slot);
    } else if (pick < 99) {
      delay = rng.Uniform(Ms(20));
    } else {
      delay = kHorizon + rng.Uniform(kHorizon);
    }
    sim.Schedule(delay, [&fired, &rng, &spawn, &sim, id, depth]() {
      fired.push_back({sim.Now(), id});
      if (depth == 0) return;
      uint64_t kids = 1 + rng.Uniform(2);
      for (uint64_t k = 0; k < kids; ++k) spawn(depth - 1);
      if (rng.Uniform(5) == 0) {
        // A burst at one timestamp, possibly the current one.
        SimTime at = sim.Now() + rng.Uniform(kWindow);
        uint64_t n = 2 + rng.Uniform(7);
        for (uint64_t b = 0; b < n; ++b) {
          uint64_t bid = 1000000000 + id * 16 + b;
          sim.ScheduleAt(at, [&fired, &sim, bid]() {
            fired.push_back({sim.Now(), bid});
          });
        }
      }
    });
  };
  for (int i = 0; i < 64; ++i) spawn(6);
  SimTime t = 0;
  for (int i = 0; i < 300 && !sim.empty(); ++i) {
    t += rng.Uniform(3 * kWindow) + 1;
    sim.RunUntil(t);
  }
  sim.Run();
  return fired;
}

TEST(SchedulerDifferentialTest, WheelMatchesHeapOnANearHeavyMix) {
  for (uint64_t seed : {1u, 5u, 11u, 2027u}) {
    auto wheel = RunNearHeavySchedule(Backend::kWheel, seed);
    auto heap = RunNearHeavySchedule(Backend::kHeap, seed);
    ASSERT_GT(wheel.size(), 1000u) << "seed " << seed;
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_EQ(wheel[i], heap[i]) << "seed " << seed << " event " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerPropertyTest,
                         ::testing::Values(Backend::kWheel, Backend::kHeap),
                         BackendName);

}  // namespace
}  // namespace xssd::sim
