#include "check/conformance.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "ha/supervisor.h"
#include "host/node.h"
#include "host/recovery.h"
#include "sim/simulator.h"

namespace xssd::check {

namespace {

/// Virtual-time budget per host op. Ops that outlive it are abandoned
/// (their callbacks stay armed; the simulator keeps draining them). A
/// timeout is a liveness divergence unless the run crashed or the schedule
/// carries flash-write faults that can legally stall destaging.
constexpr sim::SimTime kOpDeadline = sim::Ms(10);

/// Small-but-real device (the integration-test geometry): enough flash for
/// the 64-slot destage ring to wrap, small enough that 500 schedules fit in
/// a CI minute. Retransmission is enabled so NTB fault windows heal instead
/// of wedging eager replication forever.
core::VillarsConfig HarnessConfig() {
  core::VillarsConfig config;
  config.geometry.channels = 2;
  config.geometry.dies_per_channel = 2;
  config.geometry.blocks_per_plane = 16;
  config.geometry.pages_per_block = 32;
  config.destage.ring_lba_count = 64;
  config.transport.retransmit_timeout = sim::Us(200);
  return config;
}

/// Run `op`, pumping the simulator until its callback delivers a Status or
/// `budget` virtual time elapses. On timeout the op is abandoned — its
/// callback stays armed (captures keep state alive via shared_ptr) and is
/// ignored if it fires later. Returns nullopt on timeout.
std::optional<Status> AwaitBounded(
    sim::Simulator& sim, sim::SimTime budget,
    const std::function<void(std::function<void(Status)>)>& op) {
  auto result = std::make_shared<std::optional<Status>>();
  op([result](Status status) {
    if (!result->has_value()) *result = std::move(status);
  });
  auto deadline = std::make_shared<bool>(false);
  sim.Schedule(budget, [deadline]() { *deadline = true; });
  sim.RunWhile([&]() { return result->has_value() || *deadline; });
  return *result;
}

class Harness {
 public:
  Harness(const Schedule& schedule, const CheckOptions& options)
      : schedule_(schedule), options_(options) {}

  CheckResult Run();

 private:
  /// The node currently serving as primary — nodes_[0] until a kFailover
  /// op re-homes the harness onto the promoted member.
  host::StorageNode& primary() { return *nodes_[active_]; }

  bool BuildCluster();
  void AttachObservers();
  void DetachObservers(host::StorageNode& node);
  void ArmFaults();

  void ExecAppend(const Op& op);
  bool ExecFsync();  ///< true when the sync completed with OK
  void ExecRead(const Op& op);
  void ExecFailover();

  void CrashEpilogue();
  void QuiescenceEpilogue();
  void SettlePastFaultWindows();

  /// True when `kind` appears among the schedule's fault clauses.
  bool HasFaultKind(fault::FaultKind kind) const;

  const Schedule& schedule_;
  const CheckOptions& options_;

  sim::Simulator sim_;
  std::vector<std::unique_ptr<host::StorageNode>> nodes_;
  std::unique_ptr<ReferenceModel> model_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<ha::ReplicaSupervisor> supervisor_;  ///< failover mode
  size_t active_ = 0;  ///< index of the current primary

  uint64_t appended_ = 0;       ///< bytes submitted through Append
  uint64_t tail_returned_ = 0;  ///< bytes handed back by tail reads
  bool reads_poisoned_ = false; ///< a read failed/timed out; cursors desynced
  bool crash_drained_ = false;  ///< graceful crash finished its destage
  bool crash_fired_ = false;
  bool crash_graceful_ = false;

  CheckResult result_;
};

bool Harness::BuildCluster() {
  host::XLogClientOptions client_options;
  client_options.sync_stall_timeout = sim::Ms(2);

  bool supervised = schedule_.HasFailover() && schedule_.secondaries > 0;
  core::VillarsConfig config = HarnessConfig();
  if (supervised) {
    ha::ReplicaSupervisor::ConfigureDevice(&config);
  }
  nodes_.push_back(std::make_unique<host::StorageNode>(
      &sim_, config, pcie::FabricConfig{}, "pri", client_options));
  for (uint32_t i = 0; i < schedule_.secondaries; ++i) {
    // In supervised mode every member carries client options: any of them
    // can be promoted and must then serve the workload.
    nodes_.push_back(std::make_unique<host::StorageNode>(
        &sim_, config, pcie::FabricConfig{}, "sec" + std::to_string(i),
        supervised ? client_options : host::XLogClientOptions{}));
  }
  for (auto& node : nodes_) {
    if (!node->Init().ok()) return false;
  }
  if (supervised) {
    ha::HaConfig ha_config;
    ha_config.protocol = schedule_.protocol;
    ha_config.update_period = sim::UsF(0.8);
    // Failure detection window 100us x 25 = 2.5ms: far beyond any fault
    // window the generator emits (<= 600us), so injected link flaps never
    // cause a spurious election — only the kFailover kill does.
    ha_config.heartbeat_period = sim::Us(100);
    ha_config.suspicion_threshold = 25;
    std::vector<host::StorageNode*> raw;
    for (auto& node : nodes_) raw.push_back(node.get());
    supervisor_ =
        std::make_unique<ha::ReplicaSupervisor>(&sim_, raw, ha_config);
    if (!supervisor_->Setup().ok()) return false;
    supervisor_->Start();
  } else if (schedule_.secondaries > 0) {
    std::vector<host::StorageNode*> raw;
    for (auto& node : nodes_) raw.push_back(node.get());
    host::ReplicationGroup group(raw);
    if (!group.Setup(schedule_.protocol, sim::UsF(0.8)).ok()) return false;
  }
  return true;
}

void Harness::AttachObservers() {
  core::VillarsDevice& device = primary().device();
  device.cmb().SetArrivalObserver(
      [this](uint64_t stream_offset, const Bytes& data) {
        model_->OnArrival(stream_offset, data.data(), data.size());
      });
  device.cmb().SetCreditObserver(
      [this](uint64_t credit) { model_->OnCredit(credit); });
  device.transport().SetShadowHook([this](uint32_t index, uint64_t value) {
    model_->OnShadow(index, value);
  });
  device.destage().SetEmitObserver(
      [this](const core::DestagePageHeader& header, uint64_t lba) {
        model_->OnEmit(header, lba);
      });
  device.destage().SetDurableObserver([this](uint64_t begin, uint64_t end) {
    model_->OnPageDurable(begin, end);
  });
  device.destage().SetDestagedObserver(
      [this](uint64_t destaged) { model_->OnDestaged(destaged); });
}

void Harness::DetachObservers(host::StorageNode& node) {
  node.device().cmb().SetArrivalObserver({});
  node.device().cmb().SetCreditObserver({});
  node.device().transport().SetShadowHook({});
  node.device().destage().SetEmitObserver({});
  node.device().destage().SetDurableObserver({});
  node.device().destage().SetDestagedObserver({});
}

void Harness::ArmFaults() {
  injector_ = std::make_unique<fault::FaultInjector>(
      &sim_, schedule_.CompileFaultPlan("check"), schedule_.seed);
  // install_crash_handler=false: the harness owns crash semantics so it can
  // observe the drain and the graceful flag.
  primary().ArmFaults(injector_.get(), /*install_crash_handler=*/false);
  injector_->SetCrashHandler([this](const fault::FaultSpec& spec) {
    crash_fired_ = true;
    crash_graceful_ = spec.graceful;
    if (spec.graceful) {
      primary().device().PowerFail([this]() { crash_drained_ = true; });
    } else {
      primary().device().CrashHard();
    }
  });
}

bool Harness::HasFaultKind(fault::FaultKind kind) const {
  for (const Op& op : schedule_.ops) {
    if (op.kind == Op::Kind::kFault && op.fault == kind) return true;
  }
  return false;
}

void Harness::ExecAppend(const Op& op) {
  auto data = std::make_shared<std::vector<uint8_t>>(op.len);
  for (uint32_t i = 0; i < op.len; ++i) {
    (*data)[i] = PayloadByte(schedule_.seed, appended_ + i);
  }
  model_->OnAppend(data->data(), data->size());
  appended_ += op.len;
  result_.appended += op.len;

  auto status = AwaitBounded(
      sim_, kOpDeadline,
      [&](std::function<void(Status)> done) {
        primary().client().Append(data->data(), data->size(),
                                  [data, done](Status s) { done(s); });
      });
  if (!status.has_value() && !crash_fired_) {
    model_->ReportFailure("harness.append_stall",
                          "append of " + std::to_string(op.len) +
                              " bytes made no progress for " +
                              std::to_string(sim::ToUs(kOpDeadline)) +
                              "us with no crash in flight");
  }
}

bool Harness::ExecFsync() {
  uint64_t written = primary().client().written();
  auto status = AwaitBounded(sim_, kOpDeadline,
                             [&](std::function<void(Status)> done) {
                               primary().client().Sync(std::move(done));
                             });
  if (!status.has_value()) {
    if (!crash_fired_) {
      model_->ReportFailure(
          "harness.fsync_stall",
          "fsync at write position " + std::to_string(written) +
              " made no progress for " +
              std::to_string(sim::ToUs(kOpDeadline)) +
              "us with no crash in flight");
    }
    return false;
  }
  model_->OnSyncComplete(written, primary().client().credit_cache(),
                         status->ok(), primary().device().halted());
  return status->ok();
}

void Harness::ExecRead(const Op& op) {
  if (reads_poisoned_) return;
  uint64_t available = appended_ - tail_returned_;
  size_t len = static_cast<size_t>(
      std::min<uint64_t>(op.len, available));
  if (len == 0) return;

  auto bytes = std::make_shared<std::vector<uint8_t>>();
  auto status = AwaitBounded(
      sim_, kOpDeadline, [&](std::function<void(Status)> done) {
        primary().client().ReadTail(
            &primary().driver(), len,
            [bytes, done](Status s, std::vector<uint8_t> data) {
              *bytes = std::move(data);
              done(s);
            });
      });
  if (!status.has_value()) {
    // Abandoned mid-accumulation: the client's cursor no longer matches
    // ours, so stop issuing reads. Only a liveness bug if nothing could
    // legally stall destaging.
    reads_poisoned_ = true;
    if (!crash_fired_ &&
        !HasFaultKind(fault::FaultKind::kFlashProgramFail) &&
        !HasFaultKind(fault::FaultKind::kNvmeTimeout)) {
      model_->ReportFailure("harness.read_stall",
                            "tail read of " + std::to_string(len) +
                                " bytes never completed with no crash or "
                                "flash/nvme fault in the schedule");
    }
    return;
  }
  if (!status->ok()) {
    reads_poisoned_ = true;
    if (!crash_fired_ && !HasFaultKind(fault::FaultKind::kNvmeTimeout) &&
        !HasFaultKind(fault::FaultKind::kFlashReadUncorrectable)) {
      model_->ReportFailure("read.io_error",
                            "tail read failed with no injected read fault: " +
                                status->ToString());
    }
    return;
  }
  model_->OnTailRead(*bytes);
  tail_returned_ += bytes->size();
}

void Harness::ExecFailover() {
  if (supervisor_ == nullptr) return;  // standalone schedule: nothing to do
  uint64_t before = supervisor_->promotions();
  primary().device().CrashHard();

  // Detection (2.5ms) + election + admin chains + client reconnect all fit
  // comfortably inside 20ms of virtual time.
  auto deadline = std::make_shared<bool>(false);
  sim_.Schedule(sim::Ms(20), [deadline]() { *deadline = true; });
  sim_.RunWhile(
      [&]() { return supervisor_->promotions() > before || *deadline; });

  if (supervisor_->promotions() == before) {
    model_->ReportFailure("failover.no_promotion",
                          "no member was promoted within 20ms of the "
                          "primary's death");
    return;
  }
  size_t leader = supervisor_->leader_index();
  if (supervisor_->promotions() != before + 1 || leader == active_ ||
      nodes_[leader]->device().halted()) {
    model_->ReportFailure(
        "failover.exactly_once",
        "expected exactly one promotion to a live member, saw " +
            std::to_string(supervisor_->promotions() - before) +
            " (leader index " + std::to_string(leader) + ")");
    return;
  }

  // Re-home the harness and the model onto the promoted device. State is
  // read synchronously at the promotion event, before any further sim
  // progress, so the adopted destage position cannot race new activity.
  DetachObservers(primary());
  active_ = leader;
  core::VillarsDevice& device = primary().device();
  bool acked_must_survive =
      schedule_.protocol != core::ReplicationProtocol::kLazy;
  model_->OnFailover(acked_must_survive, device.cmb().local_credit(),
                     device.destage().next_sequence(),
                     device.destage().destage_cursor(),
                     device.destage().destaged());
  AttachObservers();

  // The promoted client resumed at the device tail; appends continue from
  // there (PayloadByte is keyed on absolute offsets, so the re-appended
  // suffix reproduces the discarded bytes exactly). The old read cursor
  // belongs to the dead client.
  appended_ = device.cmb().local_credit();
  tail_returned_ = std::min(tail_returned_, appended_);
  reads_poisoned_ = true;
  result_.failed_over = true;
}

void Harness::SettlePastFaultWindows() {
  // Recovery and the quiescence checks must not race still-open fault
  // windows (an nvme timeout window would fail recovery's ring reads for
  // reasons that are injected, not bugs). Advance past every bounded
  // window end; the generator never emits open-ended windows.
  uint64_t latest_end_us = 0;
  for (const Op& op : schedule_.ops) {
    if (op.kind == Op::Kind::kFault && op.duration_us > 0) {
      latest_end_us = std::max(latest_end_us, op.at_us + op.duration_us);
    }
  }
  sim::SimTime latest_end = sim::Us(latest_end_us) + sim::Us(1);
  if (latest_end > sim_.Now()) sim_.RunFor(latest_end - sim_.Now());
}

void Harness::CrashEpilogue() {
  result_.crashed = true;
  result_.graceful_crash = crash_graceful_;

  if (crash_graceful_) {
    auto deadline = std::make_shared<bool>(false);
    sim_.Schedule(sim::Ms(50), [deadline]() { *deadline = true; });
    sim_.RunWhile([&]() { return crash_drained_ || *deadline; });
    if (!crash_drained_) {
      model_->ReportFailure("crash.drain_stall",
                            "graceful power-fail destage never finished");
      return;
    }
  } else {
    // Let in-flight flash programs complete; their durable/destaged
    // accounting still runs on a halted device (flash is flash).
    sim_.RunFor(sim::Ms(2));
  }
  SettlePastFaultWindows();

  core::VillarsDevice& device = primary().device();
  uint64_t credit_final = device.cmb().local_credit();
  uint64_t destaged_final = device.destage().destaged();
  // The full-credit recovery promise holds for a graceful halt unless the
  // schedule armed flash write faults, which can legally pin a page (and
  // with it the destaged prefix) below the credit.
  bool strong = crash_graceful_ &&
                !HasFaultKind(fault::FaultKind::kFlashProgramFail) &&
                !HasFaultKind(fault::FaultKind::kFlashEraseFail);
  model_->OnCrash(strong, credit_final, destaged_final);

  device.Reboot();
  Result<host::RecoveredLog> recovered =
      host::RecoverLog(sim_, primary().driver(),
                       device.destage().ring_start_lba(),
                       device.destage().ring_lba_count());
  if (!recovered.ok()) {
    model_->ReportFailure("recovery.failed", recovered.status().ToString());
    return;
  }
  result_.recovered = true;
  result_.recovered_bytes = recovered->data.size();
  model_->OnRecovery(recovered->start_offset, recovered->data,
                     recovered->epoch);

  // The device is in a fresh epoch now; so is the model.
  model_->OnReboot();

  if (schedule_.secondaries > 0) {
    // Replicated crash schedules end at recovery validation: the
    // promote-and-continue path is exercised by kFailover schedules, which
    // run under the HA supervisor and check the fencing rule end to end
    // (ExecFailover / ReferenceModel::OnFailover).
    return;
  }

  // Standalone: the rebooted device must serve a fresh append + fsync.
  if (!primary().client().Reconnect().ok()) {
    model_->ReportFailure("reboot.reconnect",
                          "client reconnect failed after reboot");
    return;
  }
  appended_ = 0;
  tail_returned_ = 0;
  reads_poisoned_ = true;  // pre-crash cursor is meaningless now
  crash_fired_ = false;    // liveness rules apply again post-reboot
  Op post;
  post.kind = Op::Kind::kAppend;
  post.len = 512;
  ExecAppend(post);
  ExecFsync();
}

void Harness::QuiescenceEpilogue() {
  bool synced_ok = ExecFsync();
  uint64_t synced = primary().client().written();
  SettlePastFaultWindows();

  // Everything credited must destage once traffic stops (the latency
  // threshold bounds the wait for the final partial page).
  core::VillarsDevice& device = primary().device();
  auto deadline = std::make_shared<bool>(false);
  sim_.Schedule(sim::Ms(20), [deadline]() { *deadline = true; });
  sim_.RunWhile([&]() {
    return crash_fired_ ||
           device.destage().destaged() >= device.cmb().local_credit() ||
           *deadline;
  });
  if (crash_fired_) {
    // A crash clause with a high hit count can trip only now, while the
    // quiescence destage drains through its site. Late or not, it is
    // still a crash run.
    CrashEpilogue();
    return;
  }
  if (device.destage().destaged() < device.cmb().local_credit() &&
      !HasFaultKind(fault::FaultKind::kFlashProgramFail) &&
      !HasFaultKind(fault::FaultKind::kFlashEraseFail)) {
    model_->ReportFailure(
        "harness.destage_stall",
        "destaged " + std::to_string(device.destage().destaged()) +
            " never reached credit " +
            std::to_string(device.cmb().local_credit()) +
            " with no flash write faults in the schedule");
  }

  // Read back whatever the schedule's reads left over.
  if (appended_ > tail_returned_) {
    Op rest;
    rest.kind = Op::Kind::kRead;
    rest.len = static_cast<uint32_t>(
        std::min<uint64_t>(appended_ - tail_returned_, 64 * 1024));
    ExecRead(rest);
  }

  // Replication postconditions: after a clean final fsync the protocol's
  // durability set must hold the full stream, byte-exact (paper §4.2).
  // After a failover the group is the promoted primary plus the surviving
  // live members — the dead ex-primary is exempt.
  if (schedule_.secondaries > 0 && synced_ok) {
    bool check_all =
        schedule_.protocol == core::ReplicationProtocol::kEager;
    bool check_last =
        schedule_.protocol == core::ReplicationProtocol::kChain;
    std::vector<size_t> members;  // current secondaries, chain order
    for (size_t j = 0; j < nodes_.size(); ++j) {
      if (j == active_ || nodes_[j]->device().halted()) continue;
      members.push_back(j);
    }
    for (size_t i = 0; i < members.size(); ++i) {
      bool must_hold = check_all || (check_last && i == members.size() - 1);
      if (!must_hold) continue;
      core::CmbModule& cmb = nodes_[members[i]]->device().cmb();
      if (cmb.local_credit() < synced) {
        model_->ReportFailure(
            "replication.lag",
            "secondary " + std::to_string(members[i]) + " credit " +
                std::to_string(cmb.local_credit()) +
                " below fsynced position " + std::to_string(synced) +
                " under " +
                (check_all ? std::string("eager") : std::string("chain")) +
                " replication");
        continue;
      }
      uint64_t n = std::min<uint64_t>(cmb.local_credit(), appended_);
      n = std::min<uint64_t>(n, model_->stream().size());
      if (n == 0) continue;
      std::vector<uint8_t> replica(n);
      cmb.CopyOut(0, replica.data(), n);
      if (std::memcmp(replica.data(), model_->stream().data(), n) != 0) {
        model_->ReportFailure("replication.bytes",
                              "secondary " + std::to_string(members[i]) +
                                  " replica differs from the appended "
                                  "stream in the first " +
                                  std::to_string(n) + " bytes");
      }
    }
  }
}

CheckResult Harness::Run() {
  model_ = std::make_unique<ReferenceModel>(0, 0);  // re-made after wiring

  if (!BuildCluster()) {
    result_.first_divergence = "harness.setup: cluster wiring failed";
    result_.divergences.push_back(
        Divergence{"harness.setup", "cluster wiring failed"});
    return result_;
  }
  core::DestageModule& destage = primary().device().destage();
  model_ = std::make_unique<ReferenceModel>(destage.ring_start_lba(),
                                            destage.ring_lba_count());
  if (options_.plant_early_credit_bug) {
    primary().device().cmb().set_test_only_early_credit(true);
  }
  AttachObservers();
  ArmFaults();

  for (const Op& op : schedule_.ops) {
    if (crash_fired_) {
      // The device is gone; the remaining host ops would only grind
      // against a halted device. The crash epilogue owns the rest.
      ++result_.ops_skipped;
      continue;
    }
    switch (op.kind) {
      case Op::Kind::kAppend:
        ExecAppend(op);
        break;
      case Op::Kind::kFsync:
        ExecFsync();
        break;
      case Op::Kind::kRead:
        ExecRead(op);
        break;
      case Op::Kind::kFailover:
        ExecFailover();
        break;
      case Op::Kind::kFault:
      case Op::Kind::kCrash:
        break;  // compiled into the fault plan before the run
    }
    ++result_.ops_executed;
    if (!model_->ok()) break;  // first divergence ends the run
  }

  if (model_->ok()) {
    if (crash_fired_) {
      CrashEpilogue();
    } else {
      QuiescenceEpilogue();
    }
  }

  if (supervisor_ != nullptr) {
    supervisor_->Stop();
    result_.promotions = supervisor_->promotions();
  }
  result_.fault_totals = injector_->totals();
  result_.divergences = model_->divergences();
  result_.ok = model_->ok();
  result_.first_divergence = model_->Describe();
  return result_;
}

}  // namespace

CheckResult RunSchedule(const Schedule& schedule,
                        const CheckOptions& options) {
  Harness harness(schedule, options);
  return harness.Run();
}

}  // namespace xssd::check
