#ifndef XSSD_DB_WORKLOAD_H_
#define XSSD_DB_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "db/database.h"
#include "db/tpcc.h"
#include "sim/stats.h"

namespace xssd::db {

/// \brief Result of one workload run.
struct WorkloadResult {
  uint64_t committed_txns = 0;
  double txns_per_sec = 0;
  /// Commit latency (txn start → durable) in microseconds.
  sim::LatencyRecorder latency_us;
  uint64_t log_bytes = 0;
  double log_bytes_per_sec = 0;
  double avg_log_bytes_per_txn = 0;
};

/// \brief Drives N worker "threads" (simulated cores) over a TPC-C mix
/// with pipelined group commit — the load generator of Figure 9.
///
/// Each worker loops: pick a transaction, charge its CPU time, commit
/// (append WAL + register durability waiter), continue. A worker stalls
/// only when the log buffer is full (back-pressure) — matching ERMIA's
/// pipelined commit behaviour where the log is the only brake.
class WorkloadDriver {
 public:
  WorkloadDriver(sim::Simulator* sim, Database* db, TpccWorkload* workload,
                 uint32_t worker_count, uint64_t seed = 7);

  /// Run for `warmup + measure` of virtual time; statistics cover only the
  /// measurement window. An empty window (`measure == 0`) reports zero
  /// rates.
  WorkloadResult Run(sim::SimTime warmup, sim::SimTime measure);

 private:
  struct Worker {
    uint32_t id;
    bool stopped = false;
    /// Reused for each of the worker's transactions, keeping its buffers.
    std::optional<Transaction> txn;
    sim::SimTime started = 0;  ///< when the current transaction began
  };

  /// A commit's start time when its latency is not recorded.
  static constexpr sim::SimTime kNotTimed = UINT64_MAX;

  void WorkerStep(Worker* worker);
  void CommitAndContinue(Worker* worker);

  sim::Simulator* sim_;
  Database* db_;
  TpccWorkload* workload_;
  uint32_t worker_count_;
  sim::Rng rng_;

  bool measuring_ = false;
  bool stopping_ = false;
  uint64_t committed_ = 0;
  uint64_t log_bytes_start_ = 0;
  sim::LatencyRecorder latency_us_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace xssd::db

#endif  // XSSD_DB_WORKLOAD_H_
