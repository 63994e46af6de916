#ifndef XSSD_CHECK_CONFORMANCE_H_
#define XSSD_CHECK_CONFORMANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/reference_model.h"
#include "check/schedule.h"
#include "fault/fault_injector.h"
#include "sim/time.h"

namespace xssd::check {

/// Knobs for one conformance run.
struct CheckOptions {
  /// Enable the planted Figure 5 ordering bug in the primary's CMB
  /// (CmbModule::set_test_only_early_credit). Used to prove the oracle can
  /// catch a real ordering violation and the shrinker can minimize it.
  bool plant_early_credit_bug = false;
};

/// Outcome of one schedule run against the reference model.
struct CheckResult {
  bool ok = false;
  std::vector<Divergence> divergences;
  /// First divergence as "rule: detail" ("" when ok).
  std::string first_divergence;

  size_t ops_executed = 0;
  size_t ops_skipped = 0;  ///< host ops dropped because the device crashed
  bool crashed = false;
  bool graceful_crash = false;
  bool recovered = false;
  bool failed_over = false;  ///< a kFailover op promoted a new primary
  uint64_t promotions = 0;   ///< supervisor promotions (must be <= 1)
  uint64_t appended = 0;
  uint64_t recovered_bytes = 0;
  fault::FaultInjector::Totals fault_totals;
};

/// \brief Execute `schedule` on a freshly wired DES stack (primary +
/// schedule.secondaries replicas) and cross-check every observable step
/// against a ReferenceModel. Fully deterministic: the same (schedule,
/// options) pair yields the same CheckResult on every run and platform.
///
/// Flow: wire nodes -> replication setup -> attach model observers -> arm
/// the compiled fault plan -> execute host ops in order (each bounded by a
/// 10 ms deadline) -> if a crash clause fired, settle, reboot, RecoverLog,
/// validate the recovered prefix, and (standalone only) reconnect and
/// re-append; otherwise run the quiescence epilogue (final fsync, destage
/// settle, tail-read the remainder, secondary byte-exactness).
///
/// Schedules containing a kFailover op run the replicas under the HA
/// supervisor (src/ha) instead of a static ReplicationGroup: the op kills
/// the primary, awaits exactly-once promotion, re-homes the model's
/// observation taps onto the promoted device (ReferenceModel::OnFailover
/// enforces the fencing rule: acknowledged bytes survive promotion under
/// eager/chain), and the remaining host ops continue against the new
/// primary.
CheckResult RunSchedule(const Schedule& schedule,
                        const CheckOptions& options = {});

}  // namespace xssd::check

#endif  // XSSD_CHECK_CONFORMANCE_H_
