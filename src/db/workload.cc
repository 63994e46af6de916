#include "db/workload.h"

#include "common/logging.h"

namespace xssd::db {

WorkloadDriver::WorkloadDriver(sim::Simulator* sim, Database* db,
                               TpccWorkload* workload, uint32_t worker_count,
                               uint64_t seed)
    : sim_(sim),
      db_(db),
      workload_(workload),
      worker_count_(worker_count),
      rng_(seed) {}

void WorkloadDriver::WorkerStep(Worker* worker) {
  if (stopping_) {
    worker->stopped = true;
    return;
  }
  TpccTxnType type = workload_->NextType();
  if (worker->txn) {
    worker->txn->Begin();
  } else {
    worker->txn.emplace(db_);
  }
  sim::SimTime cpu = workload_->Prepare(type, &*worker->txn);
  // ±20% execution-time jitter.
  cpu = static_cast<sim::SimTime>(cpu * (0.8 + 0.4 * rng_.NextDouble()));
  worker->started = sim_->Now();

  sim_->Schedule(cpu, [this, worker]() {
    db_->log()->WaitForSpace(worker->txn->LogBytes(),
                             [this, worker]() { CommitAndContinue(worker); });
  });
}

void WorkloadDriver::CommitAndContinue(Worker* worker) {
  // Throughput counts every commit inside the window; latency only covers
  // transactions that also *started* inside it (so queueing built up before
  // the window does not skew the distribution).
  const sim::SimTime started = measuring_ ? worker->started : kNotTimed;
  worker->txn->Commit([this, started](Status status) {
    if (!status.ok()) return;
    if (measuring_) {
      ++committed_;
      if (started != kNotTimed) {
        latency_us_.Add(sim::ToUs(sim_->Now() - started));
      }
    }
  });
  // Pipelined commit: the worker moves on immediately.
  WorkerStep(worker);
}

WorkloadResult WorkloadDriver::Run(sim::SimTime warmup,
                                   sim::SimTime measure) {
  measuring_ = false;
  stopping_ = false;
  committed_ = 0;
  latency_us_.Clear();

  workers_.clear();
  for (uint32_t i = 0; i < worker_count_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->id = i;
  }
  for (auto& worker : workers_) {
    WorkerStep(worker.get());
  }

  sim_->RunFor(warmup);
  measuring_ = true;
  log_bytes_start_ = db_->log()->backend()->bytes_logged();
  sim_->RunFor(measure);
  measuring_ = false;
  stopping_ = true;
  uint64_t log_bytes =
      db_->log()->backend()->bytes_logged() - log_bytes_start_;

  // Let in-flight transactions drain (not counted).
  sim_->RunFor(sim::Ms(50));

  // A warm-up-only run has an empty window and no rates.
  auto rate = [measure](uint64_t count) {
    return measure > 0 ? static_cast<double>(count) / sim::ToSec(measure)
                       : 0.0;
  };
  WorkloadResult result;
  result.committed_txns = committed_;
  result.txns_per_sec = rate(committed_);
  result.latency_us = latency_us_;
  result.log_bytes = log_bytes;
  result.log_bytes_per_sec = rate(log_bytes);
  result.avg_log_bytes_per_txn =
      committed_ ? static_cast<double>(log_bytes) / committed_ : 0;
  return result;
}

}  // namespace xssd::db
