#ifndef XSSD_OBS_SPAN_H_
#define XSSD_OBS_SPAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace xssd::obs {

/// \brief Request-scoped span tracing in virtual time.
///
/// A request (log append, fsync, tail read) entering XLogClient mints a
/// trace: a root span plus a SpanContext that rides along the simulated
/// hardware path. Components on that path — PCIe delivery, CMB staging,
/// destage emit, flash program, NTB push, replication wait — open child
/// spans stamped with sim::Simulator virtual time. The recorder is purely
/// passive: it never schedules events, charges bandwidth, or perturbs the
/// simulation, so a traced run and an untraced run produce identical
/// metrics (enforced by the zero-overhead test).
///
/// Propagation is ambient: the recorder holds a "current context" that the
/// two asynchronous delivery points (PcieFabric MMIO delivery and the NTB
/// forward hop) capture into their scheduled closures and restore around
/// the downstream call. Synchronous hook chains (credit hook → destage
/// pump, arrival hook → transport mirror) inherit the context with no
/// signature changes.
///
/// Work triggered by timers or completions (a latency-threshold partial
/// destage page, an FTL GC write) has no ambient request context. Such
/// spans are still recorded, as *orphans* under a fresh trace id; the
/// critical-path analyzer re-attaches orphans that carry a log-stream
/// offset range to any request window they overlap, and ignores the rest.

using SpanId = uint64_t;  // 0 = none
using TraceId = uint64_t;

/// Pipeline stage a span measures. Doubles as the critical-path priority
/// domain: see StageDepth().
enum class Stage : uint8_t {
  kRequest = 0,          // root: one client-visible request
  kHostPoll = 1,         // host register poll (CPU overhead + MMIO read)
  kReplicationWait = 2,  // arrival → shadow counter covers the bytes
  kCmbStage = 3,         // ring write arrival → persisted in CMB backing
  kDestagePage = 4,      // destage page emit → durable on flash
  kNvmeRead = 5,         // NVMe read command lifetime
  kNtbLink = 6,          // one NTB hop: cable + forward latency
  kFlashProgram = 7,     // FTL write issue → program complete
  kReplicaFetch = 8,     // tail-read re-fetch of a lost range over NTB
  kScrubRefresh = 9,     // patrol-scrub refresh/escalation walk (orphan)
};

const char* StageName(Stage stage);

/// Priority when attributing an instant of a request's lifetime to exactly
/// one stage: the deepest (most specific) overlapping span wins. E.g. an
/// NTB hop nested inside a replication wait is charged to the link, and
/// the remaining wait time to replication.
int StageDepth(Stage stage);

/// The propagated identity: the span that is the parent of anything
/// opened downstream. Its trace is read from the recorder's store.
struct SpanContext {
  SpanId span_id = 0;
  bool valid() const { return span_id != 0; }
};

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  TraceId trace_id = 0;
  Stage stage = Stage::kRequest;
  uint16_t node = 0;  // interned node tag, see SpanRecorder::InternNode
  sim::SimTime start = 0;
  sim::SimTime end = 0;  // 0 while open (a span may also end at start)
  bool closed = false;
  /// Log-stream byte range this span covers; empty (begin == end) when the
  /// work is not tied to specific log bytes. Used by the analyzer to join
  /// orphan spans to request windows.
  uint64_t offset_begin = 0;
  uint64_t offset_end = 0;
  /// Root spans carry the request kind ("append", "fsync", "read"); must
  /// point at a string literal.
  const char* name = "";
};

/// \brief Store + ambient-context holder for one tracing session.
///
/// Single-threaded (the simulator is); span ids are indices+1 into the
/// store, so lookups are O(1) and two identically seeded runs assign
/// identical ids.
class SpanRecorder {
 public:
  explicit SpanRecorder(sim::Simulator* sim) : sim_(sim) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Intern a node tag ("pri", "sec0", ...) once at attach time so hot
  /// paths stamp a uint16 instead of a string.
  uint16_t InternNode(const std::string& tag);
  const std::string& NodeTag(uint16_t id) const { return nodes_[id]; }

  /// Mint a new trace with a root span. `kind` must be a string literal.
  SpanContext StartTrace(const char* kind, uint16_t node,
                         uint64_t offset_begin, uint64_t offset_end);

  /// Open a child span under `parent`. An invalid parent still records the
  /// span — as an orphan root of a fresh trace — so timer-driven work keeps
  /// its timing and can be joined by offset range at analysis time.
  SpanContext StartSpan(Stage stage, uint16_t node, SpanContext parent);

  void SetRange(SpanContext ctx, uint64_t begin, uint64_t end);
  void EndSpan(SpanContext ctx) { EndSpanAt(ctx, sim_->Now()); }
  /// End at a known future instant (e.g. an NTB hop whose delivery time is
  /// computed at schedule time). Purely bookkeeping — nothing is scheduled.
  void EndSpanAt(SpanContext ctx, sim::SimTime when);

  /// Ambient context for synchronous call chains and captured closures.
  SpanContext current() const { return current_; }
  void set_current(SpanContext ctx) { current_ = ctx; }

  const std::vector<Span>& spans() const { return spans_; }
  const Span* Find(SpanId id) const {
    return (id == 0 || id > spans_.size()) ? nullptr : &spans_[id - 1];
  }
  size_t span_count() const { return spans_.size(); }

 private:
  sim::Simulator* sim_;
  std::vector<Span> spans_;
  std::vector<std::string> nodes_ = {""};
  TraceId next_trace_ = 1;
  SpanContext current_;
};

/// RAII ambient-context scope. Accepts a null recorder as a no-op so call
/// sites stay branch-free.
class ScopedContext {
 public:
  ScopedContext(SpanRecorder* recorder, SpanContext ctx)
      : recorder_(recorder) {
    if (recorder_) {
      saved_ = recorder_->current();
      recorder_->set_current(ctx);
    }
  }
  ~ScopedContext() {
    if (recorder_) recorder_->set_current(saved_);
  }

  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  SpanRecorder* recorder_;
  SpanContext saved_;
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_SPAN_H_
