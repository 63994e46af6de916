#include "obs/trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace xssd::obs {

namespace {
/// Chrome trace timestamps are microseconds; print with ns resolution.
std::string TraceTs(sim::SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}
}  // namespace

ChromeTraceWriter::ChromeTraceWriter(ChromeTraceOptions options)
    : options_(options) {
  process_names_.push_back("sim");
}

uint32_t ChromeTraceWriter::BeginProcess(const std::string& name) {
  process_names_.push_back(name);
  pid_ = static_cast<uint32_t>(process_names_.size() - 1);
  // A fresh simulator reuses seq numbers from 0; drop any arrows still
  // waiting on the previous run so they cannot bind to the new run's
  // events (flow ids themselves stay writer-global and unique).
  pending_flows_.clear();
  return pid_;
}

void ChromeTraceWriter::Push(Event event) {
  if (events_.size() >= options_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void ChromeTraceWriter::OnEventScheduled(sim::SimTime now, sim::SimTime when,
                                         uint64_t seq) {
  (void)when;
  if (!options_.emit_flow) return;
  uint64_t flow_id = next_flow_id_++;
  pending_flows_[seq] = flow_id;
  Push(Event{'s', pid_, now, flow_id, "dispatch"});
}

void ChromeTraceWriter::OnEventBegin(sim::SimTime when, uint64_t seq) {
  if (options_.emit_flow) {
    auto it = pending_flows_.find(seq);
    if (it != pending_flows_.end()) {
      Push(Event{'f', pid_, when, it->second, "dispatch"});
      pending_flows_.erase(it);
    }
  }
  Push(Event{'X', pid_, when, seq, "event"});
}

void ChromeTraceWriter::OnEventEnd(sim::SimTime when, uint64_t seq) {
  // Virtual events are instantaneous; the complete event was emitted at
  // Begin with zero duration.
  (void)when;
  (void)seq;
}

void ChromeTraceWriter::OnInstant(const char* name, sim::SimTime when) {
  Push(Event{'i', pid_, when, 0, name});
}

void ChromeTraceWriter::OnCounterSample(const char* name, sim::SimTime when,
                                        double value) {
  Event event{'C', pid_, when, 0, name};
  event.value = value;
  Push(event);
}

void ChromeTraceWriter::EmitSpan(const std::string& name, sim::SimTime start,
                                 sim::SimTime end, uint64_t span_id) {
  Event complete{'X', pid_, start, span_id, name};
  complete.cat = "span";
  complete.dur = end - start;
  Push(complete);
  Event flow_start{'s', pid_, start, span_id, name};
  flow_start.cat = "span";
  Push(flow_start);
  Event flow_end{'f', pid_, end, span_id, name};
  flow_end.cat = "span";
  Push(flow_end);
}

void ChromeTraceWriter::Write(std::ostream& out) const {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (size_t pid = 0; pid < process_names_.size(); ++pid) {
    out << (first ? "\n" : ",\n")
        << " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
        << ", \"tid\": 0, \"args\": {\"name\": \""
        << JsonEscape(process_names_[pid]) << "\"}}";
    first = false;
  }
  for (const Event& event : events_) {
    out << ",\n {\"name\": \"" << JsonEscape(event.name) << "\", \"ph\": \""
        << event.phase << "\", \"pid\": " << event.pid
        << ", \"tid\": 0, \"ts\": " << TraceTs(event.ts);
    switch (event.phase) {
      case 'X':
        if (event.cat == std::string("span")) {
          out << ", \"cat\": \"span\", \"dur\": " << TraceTs(event.dur)
              << ", \"args\": {\"span\": " << event.id << "}";
        } else {
          out << ", \"dur\": 0, \"args\": {\"seq\": " << event.id << "}";
        }
        break;
      case 'i':
        out << ", \"s\": \"p\"";
        break;
      case 'C':
        out << ", \"args\": {\"value\": " << JsonNumber(event.value) << "}";
        break;
      case 's':
      case 'f':
        out << ", \"cat\": \"" << event.cat << "\", \"id\": " << event.id;
        if (event.phase == 'f') out << ", \"bp\": \"e\"";
        break;
      default:
        break;
    }
    out << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ns\", \"droppedEvents\": " << dropped_
      << "}\n";
}

std::string ChromeTraceWriter::ToString() const {
  std::ostringstream out;
  Write(out);
  return out.str();
}

Status ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  Write(out);
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace xssd::obs
