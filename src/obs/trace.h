#ifndef XSSD_OBS_TRACE_H_
#define XSSD_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/time.h"

namespace xssd::obs {

/// \brief Receiver of simulator-level trace events.
///
/// Attached to a sim::Simulator via set_trace_sink(); the simulator calls
/// the hooks with *virtual* timestamps as events are scheduled and fired.
/// Instrumented components (and benches/tests) may additionally emit named
/// instants and counter samples through the same sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// An event was placed on the queue at virtual time `now`, to fire at
  /// `when`. `seq` is the simulator's global FIFO tie-breaker — unique per
  /// event, so scheduled/fired pairs can be correlated.
  virtual void OnEventScheduled(sim::SimTime now, sim::SimTime when,
                                uint64_t seq) = 0;

  /// Event `seq` is about to run at virtual time `when`.
  virtual void OnEventBegin(sim::SimTime when, uint64_t seq) = 0;

  /// Event `seq` finished running (virtual duration is always zero; the
  /// hook exists so sinks can bracket the callback).
  virtual void OnEventEnd(sim::SimTime when, uint64_t seq) = 0;

  /// A named point-in-time marker (component instrumentation).
  virtual void OnInstant(const char* name, sim::SimTime when) = 0;

  /// A sample of a named counter series (renders as a stacked chart in the
  /// trace viewer).
  virtual void OnCounterSample(const char* name, sim::SimTime when,
                               double value) = 0;
};

/// ChromeTraceWriter knobs.
struct ChromeTraceOptions {
  /// Recording stops (events are counted as dropped) past this many
  /// buffered events, so a long run cannot OOM the host.
  size_t max_events = 1u << 20;
  /// Also emit flow arrows from schedule site to fire site (doubles the
  /// event count; off by default). Each schedule→fire pair gets a fresh
  /// writer-global flow id, so arrows stay distinct across process groups
  /// and across NTB hops that reuse simulator `seq` numbers.
  bool emit_flow = false;
};

/// \brief TraceSink emitting Chrome `trace_event`-format JSON.
///
/// The output is the standard "JSON object format"
/// ({"traceEvents": [...], "displayTimeUnit": "ns"}) and loads directly in
/// chrome://tracing or https://ui.perfetto.dev. Virtual nanoseconds map to
/// trace microseconds with a fractional part, so viewer timestamps read in
/// simulated time.
class ChromeTraceWriter : public TraceSink {
 public:
  explicit ChromeTraceWriter(ChromeTraceOptions options = {});

  /// Start a new logical process group: subsequent events carry the
  /// returned pid, and the final JSON names it `name` (one simulation run
  /// per process group keeps multi-run bench traces separable).
  uint32_t BeginProcess(const std::string& name);

  // TraceSink
  void OnEventScheduled(sim::SimTime now, sim::SimTime when,
                        uint64_t seq) override;
  void OnEventBegin(sim::SimTime when, uint64_t seq) override;
  void OnEventEnd(sim::SimTime when, uint64_t seq) override;
  void OnInstant(const char* name, sim::SimTime when) override;
  void OnCounterSample(const char* name, sim::SimTime when,
                       double value) override;

  /// Emit one completed request-lifecycle span as a Chrome complete event
  /// plus a flow arrow ('s' at start, 'f' at end) keyed by the span id.
  /// Span flows use cat "span", a separate binding domain from the
  /// "sim"-cat dispatch flows, so the two id spaces cannot collide.
  void EmitSpan(const std::string& name, sim::SimTime start, sim::SimTime end,
                uint64_t span_id);

  size_t event_count() const { return events_.size(); }
  uint64_t dropped() const { return dropped_; }

  /// Write the complete, well-formed JSON document.
  void Write(std::ostream& out) const;
  std::string ToString() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    char phase;         // 'X', 'i', 'C', 's', 'f'
    uint32_t pid;
    sim::SimTime ts;
    uint64_t id;        // flow id (phase 's'/'f'), span id (cat "span")
    std::string name;
    double value = 0;   // counter sample (phase 'C')
    const char* cat = "sim";  // flow binding domain ("sim" or "span")
    sim::SimTime dur = 0;     // complete-event duration (span 'X' only)
  };

  /// Append if the buffer cap allows; otherwise count a drop.
  void Push(Event event);

  ChromeTraceOptions options_;
  std::vector<Event> events_;
  std::vector<std::string> process_names_;
  uint32_t pid_ = 0;
  uint64_t dropped_ = 0;
  /// Dispatch-flow bookkeeping: ids are allocated writer-globally at
  /// schedule time and looked up (then retired) at fire time, so a `seq`
  /// reused by a different process group can never splice two unrelated
  /// arrows together.
  uint64_t next_flow_id_ = 1;
  std::map<uint64_t, uint64_t> pending_flows_;  // seq -> flow id
};

}  // namespace xssd::obs

#endif  // XSSD_OBS_TRACE_H_
