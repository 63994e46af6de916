// tpcc_villars: the paper's headline workload (Figure 9, Villars-SRAM at 8
// workers). Closed loop: 8 simulated workers run the default TPC-C mix over
// 16 warehouses with pipelined group commit into the fast side's CMB.
// Primary latency: commit latency, txn start -> durable.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/log_backend.h"
#include "db/log_manager.h"
#include "db/log_record.h"
#include "db/tpcc.h"
#include "db/workload.h"
#include "harness.h"
#include "host/node.h"

namespace xssd::perfbench {
namespace {

constexpr uint32_t kWorkers = 8;
const sim::SimTime kWarmup = sim::Ms(20);
const sim::SimTime kWindow = sim::Ms(150);
const sim::SimTime kSegment = sim::Ms(2);

uint64_t DriverSeed(uint64_t seed) { return seed ^ 0x5BD1E995ull; }

/// Forwards the log manager's group flushes to the fast side and records
/// each flush's Status. LogManager resolves commit waiters as OK whatever
/// the backend reports, so this is where a failed commit becomes visible.
/// In traced runs it also parses every flushed group back into log records
/// (their CRCs verified) to count records for the CRC replay probe.
class CheckedBackend final : public db::LogBackend {
 public:
  CheckedBackend(db::LogBackend* inner, CallTimer* timer, bool plant_failure)
      : inner_(inner), timer_(timer), plant_failure_(plant_failure) {}

  void AppendDurable(const uint8_t* data, size_t len,
                     std::function<void(Status)> done) override {
    Account(len);
    if (timer_ != nullptr) ParseRecords(data, len);
    auto checked = [this, done = std::move(done)](Status status) {
      if (plant_failure_) {
        plant_failure_ = false;
        status = Status::IoError("planted commit failure");
      }
      if (!status.ok()) ++failed_flushes_;
      done(status);
    };
    if (timer_ != nullptr) {
      timer_->Time([&] { inner_->AppendDurable(data, len, checked); });
    } else {
      inner_->AppendDurable(data, len, checked);
    }
  }
  std::string name() const override { return inner_->name(); }
  int data_movements_per_byte() const override {
    return inner_->data_movements_per_byte();
  }

  uint64_t failed_flushes() const { return failed_flushes_; }
  uint64_t records() const { return records_; }
  uint64_t corrupt_records() const { return corrupt_records_; }

 private:
  void ParseRecords(const uint8_t* data, size_t len) {
    unparsed_.insert(unparsed_.end(), data, data + len);
    size_t offset = 0;
    while (offset < unparsed_.size()) {
      size_t at = offset;
      Result<db::LogRecord> record = db::ParseLogRecord(unparsed_, &at);
      if (!record.ok()) {
        if (record.status().code() != StatusCode::kOutOfRange) {
          ++corrupt_records_;  // a record split across groups is not corrupt
          offset = unparsed_.size();
        }
        break;
      }
      ++records_;
      offset = at;
    }
    unparsed_.erase(unparsed_.begin(),
                    unparsed_.begin() + static_cast<ptrdiff_t>(offset));
  }

  db::LogBackend* inner_;
  CallTimer* timer_;
  bool plant_failure_;
  uint64_t failed_flushes_ = 0;
  uint64_t records_ = 0;
  uint64_t corrupt_records_ = 0;
  std::vector<uint8_t> unparsed_;
};

/// The db arm of the traced run: the same seed and window on
/// db::NoLogBackend, so only the database layer (and the kernel under it)
/// costs host time. Returns host microseconds per committed txn.
double NoLogHostUsPerTxn(uint64_t seed) {
  sim::Simulator sim(sim::Simulator::SchedulerBackend::kWheel);
  db::NoLogBackend backend(&sim);
  db::LogManager log(&sim, &backend);
  db::Database database(&log);
  db::TpccWorkload workload(&database, db::TpccConfig{}, seed);
  workload.Populate();
  db::WorkloadDriver driver(&sim, &database, &workload, kWorkers,
                            DriverSeed(seed));
  driver.Run(kWarmup, 0);
  Clock::time_point start = Clock::now();
  db::WorkloadResult run = driver.Run(0, kWindow);
  return Ratio(SecondsSince(start) * 1e6,
               static_cast<double>(run.committed_txns));
}

}  // namespace

EpisodeResult RunTpccVillars(const EpisodeOptions& options) {
  EpisodeResult result;
  Clock::time_point setup_start = Clock::now();
  sim::Simulator sim(options.backend);
  std::unique_ptr<Probes> probes;
  if (options.traced) probes = std::make_unique<Probes>(&sim);
  CallTimer append_timer;

  Clock::time_point init_start = Clock::now();
  host::StorageNode node(&sim, PaperVillarsConfig(), PaperFabricConfig(),
                         "bench");
  Status status = node.Init();
  if (!status.ok()) {
    result.Fail(1, "node init: " + status.ToString());
    return result;
  }
  result.layer["setup.node_init_host_s"] = SecondsSince(init_start);
  if (probes) node.EnableMetrics(&probes->registry);

  db::VillarsLogBackend villars(&node.client());
  CheckedBackend backend(&villars, options.traced ? &append_timer : nullptr,
                         options.plant == "tpcc_commit_status");
  db::LogManager log(&sim, &backend);
  db::Database database(&log);
  db::TpccWorkload workload(&database, db::TpccConfig{}, options.seed);
  Clock::time_point populate_start = Clock::now();
  workload.Populate();
  result.layer["db.populate_host_s"] = SecondsSince(populate_start);
  db::WorkloadDriver driver(&sim, &database, &workload, kWorkers,
                            DriverSeed(options.seed));
  // Simulated warm-up: fills the log pipeline and the destage stream. Its
  // statistics are discarded (the measure window is empty).
  driver.Run(kWarmup, 0);
  result.setup_host_s = SecondsSince(setup_start);

  if (probes) {
    probes->registry.Reset();
    node.EnableSpans(&probes->spans, "dev");
    probes->Watch(&node.device().cmb(), &node.device().ftl());
  }
  const uint64_t flushes0 = backend.flushes();
  const uint64_t polls0 = node.client().credit_polls();
  const uint64_t records0 = backend.records();
  const uint64_t log_bytes0 = backend.bytes_logged();

  TimedPhase phase(&sim, probes ? &probes->timer : nullptr, kSegment);
  db::WorkloadResult run = driver.Run(0, kWindow);
  phase.End(run.committed_txns, &result);

  result.completed = run.committed_txns;
  result.sim_seconds = sim::ToSec(kWindow);
  result.latency_us = run.latency_us;

  // Correctness: every flush succeeded, every appended byte became durable,
  // and the device's credit covers everything the client wrote.
  if (backend.failed_flushes() > 0) {
    result.Fail(backend.failed_flushes(),
                std::to_string(backend.failed_flushes()) +
                    " log flushes returned a non-OK status");
  }
  result.Check(log.durable_lsn() == log.next_lsn(),
               "log not fully durable after the drain");
  result.Check(node.client().credit_cache() >= node.client().written(),
               "device credit does not cover the appended log");
  result.Check(backend.bytes_logged() == node.client().written(),
               "bytes flushed differ from bytes appended to the device");
  if (backend.corrupt_records() > 0) {
    result.Fail(backend.corrupt_records(), "flushed log records fail to parse");
  }
  result.attempted += run.committed_txns + backend.failed_flushes() +
                      backend.corrupt_records();

  Digest digest;
  digest.Mix(run.committed_txns);
  digest.Mix(run.log_bytes);
  digest.Mix(log.next_lsn());
  digest.Mix(node.client().written());
  digest.Mix(result.events);
  digest.Mix(sim.Now());
  digest.MixLatencies(run.latency_us);
  result.digest = digest.value();

  if (!options.traced) return result;

  const uint64_t ops = run.committed_txns;
  const uint64_t flushes = backend.flushes() - flushes0;
  auto& layer = result.layer;
  AddDeviceLayerMetrics(probes->registry, {""}, ops, &result);
  probes->AddExtremes(&result);
  layer["db.log_bytes_per_txn"] = run.avg_log_bytes_per_txn;
  layer["db.group_flushes_per_ktxn"] =
      PerOp(static_cast<double>(flushes) * 1000, ops);
  layer["db.host_us_per_txn"] = NoLogHostUsPerTxn(options.seed);
  layer["host.credit_polls_per_append"] =
      PerOp(static_cast<double>(node.client().credit_polls() - polls0),
            flushes);
  layer["host.append_call_host_ns"] = append_timer.mean_ns();
  AddBreakdown(probes->spans, {"append", "fsync"}, "fsync",
               options.plant == "breakdown_conservation", &result);

  // CRC volume: every log record plus the device's pages and OOB records.
  const uint64_t records = backend.records() - records0;
  const uint64_t log_bytes = backend.bytes_logged() - log_bytes0;
  std::vector<std::pair<size_t, uint64_t>> chunks =
      DeviceCrcChunks(probes->registry, {""});
  chunks.emplace_back(records == 0 ? 0 : log_bytes / records, records);
  AddCrcMetrics(chunks, ops, &result);
  return result;
}

}  // namespace xssd::perfbench
