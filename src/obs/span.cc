#include "obs/span.h"

namespace xssd::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kRequest:
      return "request";
    case Stage::kHostPoll:
      return "host.poll";
    case Stage::kReplicationWait:
      return "replication.wait";
    case Stage::kCmbStage:
      return "cmb.stage";
    case Stage::kDestagePage:
      return "destage.page";
    case Stage::kNvmeRead:
      return "nvme.read";
    case Stage::kNtbLink:
      return "ntb.link";
    case Stage::kFlashProgram:
      return "flash.program";
    case Stage::kReplicaFetch:
      return "replica.fetch";
    case Stage::kScrubRefresh:
      return "scrub.refresh";
  }
  return "unknown";
}

int StageDepth(Stage stage) {
  switch (stage) {
    case Stage::kRequest:
      return 0;
    case Stage::kHostPoll:
      return 1;
    case Stage::kReplicationWait:
      return 2;
    case Stage::kCmbStage:
    case Stage::kDestagePage:
    case Stage::kNvmeRead:
      return 3;
    case Stage::kReplicaFetch:
    case Stage::kScrubRefresh:
      return 2;
    case Stage::kNtbLink:
    case Stage::kFlashProgram:
      return 4;
  }
  return 0;
}

uint16_t SpanRecorder::InternNode(const std::string& tag) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] == tag) return static_cast<uint16_t>(i);
  }
  nodes_.push_back(tag);
  return static_cast<uint16_t>(nodes_.size() - 1);
}

SpanContext SpanRecorder::StartTrace(const char* kind, uint16_t node,
                                     uint64_t offset_begin,
                                     uint64_t offset_end) {
  Span span;
  span.id = spans_.size() + 1;
  span.trace_id = next_trace_++;
  span.stage = Stage::kRequest;
  span.node = node;
  span.start = sim_->Now();
  span.offset_begin = offset_begin;
  span.offset_end = offset_end;
  span.name = kind;
  spans_.push_back(span);
  return SpanContext{span.id};
}

SpanContext SpanRecorder::StartSpan(Stage stage, uint16_t node,
                                    SpanContext parent) {
  Span span;
  span.id = spans_.size() + 1;
  if (const Span* up = Find(parent.span_id)) {
    span.parent = parent.span_id;
    span.trace_id = up->trace_id;
  } else {
    // Orphan: timer- or completion-driven work with no ambient request.
    // Recorded under its own trace; joined by offset range at analysis.
    span.trace_id = next_trace_++;
  }
  span.stage = stage;
  span.node = node;
  span.start = sim_->Now();
  span.name = StageName(stage);
  spans_.push_back(span);
  return SpanContext{span.id};
}

void SpanRecorder::SetRange(SpanContext ctx, uint64_t begin, uint64_t end) {
  if (ctx.span_id == 0 || ctx.span_id > spans_.size()) return;
  Span& span = spans_[ctx.span_id - 1];
  span.offset_begin = begin;
  span.offset_end = end;
}

void SpanRecorder::EndSpanAt(SpanContext ctx, sim::SimTime when) {
  if (ctx.span_id == 0 || ctx.span_id > spans_.size()) return;
  Span& span = spans_[ctx.span_id - 1];
  if (span.closed) return;
  span.end = when < span.start ? span.start : when;
  span.closed = true;
}

}  // namespace xssd::obs
