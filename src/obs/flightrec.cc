#include "obs/flightrec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace xssd::obs {

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {
  options_.capacity = std::max<size_t>(1, options_.capacity);
  ring_.reserve(options_.capacity);
}

void FlightRecorder::Record(sim::SimTime when, std::string_view category,
                            std::string message) {
  Entry e;
  e.seq = appended_++;
  e.when = when;
  e.category.assign(category.data(), category.size());
  e.message = std::move(message);
  if (ring_.size() < options_.capacity) {
    ring_.push_back(std::move(e));
  } else {
    ring_[oldest_] = std::move(e);
    oldest_ = (oldest_ + 1) % options_.capacity;
    ++evicted_;
    if (m_evicted_) m_evicted_->Add();
  }
  if (m_appends_) m_appends_->Add();
}

std::vector<FlightRecorder::Entry> FlightRecorder::Snapshot() const {
  std::vector<Entry> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(oldest_ + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::Dump(std::ostream& out, std::string_view reason) const {
  out << "=== flight recorder dump (reason: " << reason << "; " << appended_
      << " recorded, " << evicted_ << " evicted, showing last "
      << ring_.size() << ") ===\n";
  for (size_t i = 0; i < ring_.size(); ++i) {
    const Entry& e = ring_[(oldest_ + i) % ring_.size()];
    char stamp[64];
    std::snprintf(stamp, sizeof(stamp), "[%6llu] t=%-12llu ",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.when));
    out << stamp << e.category << ": " << e.message << "\n";
  }
  out << "=== end flight recorder dump ===\n";
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  std::string_view reason) const {
  std::ofstream out(path, std::ios::app);
  if (!out) return Status::IoError("flightrec: cannot open " + path);
  Dump(out, reason);
  out.flush();
  if (!out) return Status::IoError("flightrec: write failed for " + path);
  return Status::OK();
}

Status FlightRecorder::StartDumpFile(std::string path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("flightrec: cannot open " + path);
  dump_path_ = std::move(path);
  return Status::OK();
}

void FlightRecorder::AutoDump(std::string_view reason) {
  ++auto_dumps_;
  if (m_auto_dumps_) m_auto_dumps_->Add();
  if (!dumped_reasons_.emplace(reason).second) {
    ++suppressed_dumps_;
    if (registry_) {
      registry_->GetCounter("obs.flightrec.suppressed_dumps")->Add();
    }
    return;
  }
  if (!dump_path_.empty()) {
    Status status = DumpToFile(dump_path_, reason);
    if (status.ok()) {
      std::fprintf(stderr, "flightrec: dumped to %s (%s)\n",
                   dump_path_.c_str(), std::string(reason).c_str());
      return;
    }
    std::fprintf(stderr, "flightrec: %s; dumping to stderr\n",
                 status.ToString().c_str());
  }
  Dump(std::cerr, reason);
}

void FlightRecorder::SetMetrics(MetricsRegistry* registry) {
  registry_ = registry;
  if (registry == nullptr) {
    m_appends_ = m_evicted_ = m_auto_dumps_ = nullptr;
    return;
  }
  m_appends_ = registry->GetCounter("obs.flightrec.appends");
  m_evicted_ = registry->GetCounter("obs.flightrec.evicted");
  m_auto_dumps_ = registry->GetCounter("obs.flightrec.auto_dumps");
}

}  // namespace xssd::obs
