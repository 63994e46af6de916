#include "check/schedule.h"

#include <charconv>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "core/registers.h"
#include "ha/supervisor.h"
#include "sim/random.h"
#include "sim/time.h"

namespace xssd::check {

namespace {

// Generation bounds. Total appended bytes stay well under the 128 KiB CMB
// ring so a secondary's full-stream CopyOut (used by the cross-check) never
// wraps, and runs stay fast enough for a 500-schedule CI campaign.
constexpr uint64_t kMaxTotalAppend = 64 * 1024;
constexpr uint64_t kMaxSmallAppend = 512;
constexpr uint64_t kMaxLargeAppend = 8192;

const char* ProtocolName(core::ReplicationProtocol p) {
  switch (p) {
    case core::ReplicationProtocol::kEager: return "eager";
    case core::ReplicationProtocol::kLazy: return "lazy";
    case core::ReplicationProtocol::kChain: return "chain";
  }
  return "eager";
}

Result<core::ReplicationProtocol> ProtocolFromName(std::string_view name) {
  if (name == "eager") return core::ReplicationProtocol::kEager;
  if (name == "lazy") return core::ReplicationProtocol::kLazy;
  if (name == "chain") return core::ReplicationProtocol::kChain;
  return Status::InvalidArgument("schedule: unknown protocol '" +
                                 std::string(name) + "'");
}

/// The crash sites the fuzzer aims at — the instrumented points, one per
/// protocol stage (persist / emit / completion). Unprefixed so they match
/// whatever device name the harness uses; only the primary is armed, so
/// secondaries never trip them.
const char* const kCrashSites[] = {
    "cmb.persist",
    "destage.emit_page",
    "destage.page_complete",
};

/// Largest microsecond field whose nanosecond value stays below 2^63, the
/// fault-plan loader's rule.
constexpr uint64_t kMaxUs = (uint64_t{1} << 63) / 1000;
/// Secondaries the harness can wire: one NTB peer slot each, or, under the
/// failover supervisor, the members its heartbeat windows leave room for.
constexpr uint32_t kMaxSecondaries = core::kMaxPeers;
constexpr uint32_t kMaxFailoverSecondaries = ha::kHeartbeatWindowBase - 1;

/// Reads the next field as a plain decimal in [lo, hi]. A sign, a trailing
/// character or an out-of-range value fails, where `istream >>` would wrap
/// "-1" around.
template <typename T>
bool ReadNumber(std::istream& fields, T* out, T lo = 0,
                T hi = std::numeric_limits<T>::max()) {
  std::string token;
  if (!(fields >> token)) return false;
  T value = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

bool Schedule::HasCrash() const {
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kCrash) return true;
  }
  return false;
}

bool Schedule::HasFailover() const {
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kFailover) return true;
  }
  return false;
}

uint64_t Schedule::TotalAppendBytes() const {
  uint64_t total = 0;
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kAppend) total += op.len;
  }
  return total;
}

fault::FaultPlan Schedule::CompileFaultPlan(const std::string& name) const {
  fault::FaultPlanBuilder builder(name);
  for (const Op& op : ops) {
    if (op.kind == Op::Kind::kFault) {
      builder.Window(op.fault, sim::Us(op.at_us),
                     op.duration_us == 0 ? fault::FaultSpec::kForever
                                         : sim::Us(op.duration_us),
                     op.probability, sim::Us(op.delay_us));
    } else if (op.kind == Op::Kind::kCrash) {
      builder.Crash(op.site, op.after_hits, op.graceful);
    }
  }
  return builder.Build();
}

Schedule GenerateSchedule(uint64_t seed, size_t target_ops) {
  // Independent sub-streams so op choices do not perturb parameter draws.
  sim::Rng rng(seed ^ 0xC0FFEEull);

  Schedule schedule;
  schedule.seed = seed;

  uint64_t topology = rng.Uniform(100);
  if (topology < 45) {
    schedule.secondaries = 0;
  } else if (topology < 75) {
    schedule.secondaries = 1;
  } else {
    schedule.secondaries = 2;
  }
  switch (rng.Uniform(3)) {
    case 0: schedule.protocol = core::ReplicationProtocol::kEager; break;
    case 1: schedule.protocol = core::ReplicationProtocol::kLazy; break;
    default: schedule.protocol = core::ReplicationProtocol::kChain; break;
  }

  uint64_t append_budget = kMaxTotalAppend;
  bool crash_placed = false;
  bool failover_placed = false;

  while (schedule.ops.size() < target_ops) {
    Op op;
    uint64_t roll = rng.Uniform(100);
    if (roll < 55) {
      op.kind = Op::Kind::kAppend;
      uint64_t len = rng.Bernoulli(0.2)
                         ? rng.UniformRange(1024, kMaxLargeAppend)
                         : rng.UniformRange(1, kMaxSmallAppend);
      if (len > append_budget) len = append_budget;
      if (len == 0) {
        op.kind = Op::Kind::kFsync;  // budget exhausted: sync instead
      } else {
        op.len = static_cast<uint32_t>(len);
        append_budget -= len;
      }
    } else if (roll < 70) {
      op.kind = Op::Kind::kFsync;
    } else if (roll < 82) {
      op.kind = Op::Kind::kRead;
      op.len = static_cast<uint32_t>(rng.UniformRange(1, 4096));
    } else if (roll < 92 || crash_placed || failover_placed) {
      op.kind = Op::Kind::kFault;
      op.at_us = rng.Uniform(3000);
      switch (rng.Uniform(5)) {
        case 0:
          op.fault = fault::FaultKind::kFlashProgramFail;
          op.duration_us = rng.UniformRange(100, 1000);
          op.probability = 0.3;
          break;
        case 1:
          op.fault = fault::FaultKind::kNtbLinkDown;
          op.duration_us = rng.UniformRange(50, 400);
          break;
        case 2:
          op.fault = fault::FaultKind::kNtbLinkStall;
          op.duration_us = rng.UniformRange(100, 600);
          op.delay_us = rng.UniformRange(5, 50);
          break;
        case 3:
          op.fault = fault::FaultKind::kPcieStoreDelay;
          op.duration_us = rng.UniformRange(100, 800);
          op.delay_us = rng.UniformRange(1, 20);
          break;
        default:
          op.fault = fault::FaultKind::kNvmeTimeout;
          op.duration_us = rng.UniformRange(100, 500);
          op.probability = 0.5;
          op.delay_us = rng.UniformRange(10, 100);
          break;
      }
    } else if (schedule.secondaries == 2 && rng.Bernoulli(0.5)) {
      // Only 3-member clusters fail over: a 2-member group has no live
      // majority after the primary dies, so the supervisor (correctly)
      // refuses to elect and the run would stall. Mutually exclusive with
      // crash clauses — both kill the primary, with different epilogues.
      op.kind = Op::Kind::kFailover;
      failover_placed = true;
    } else {
      op.kind = Op::Kind::kCrash;
      op.site = kCrashSites[rng.Uniform(3)];
      op.after_hits = static_cast<uint32_t>(rng.UniformRange(1, 6));
      op.graceful = rng.Bernoulli(0.5);
      crash_placed = true;
    }
    schedule.ops.push_back(std::move(op));
  }
  return schedule;
}

std::string ToText(const Schedule& schedule) {
  std::ostringstream out;
  out << "# xssd-check schedule v1\n";
  out << "seed " << schedule.seed << "\n";
  out << "protocol " << ProtocolName(schedule.protocol) << "\n";
  out << "secondaries " << schedule.secondaries << "\n";
  for (const Op& op : schedule.ops) {
    switch (op.kind) {
      case Op::Kind::kAppend:
        out << "append " << op.len << "\n";
        break;
      case Op::Kind::kFsync:
        out << "fsync\n";
        break;
      case Op::Kind::kRead:
        out << "read " << op.len << "\n";
        break;
      case Op::Kind::kFault:
        out << "fault " << fault::FaultKindName(op.fault) << " at_us "
            << op.at_us << " duration_us " << op.duration_us
            << " probability " << std::setprecision(17) << op.probability
            << " delay_us " << op.delay_us << "\n";
        break;
      case Op::Kind::kCrash:
        out << "crash " << op.site << " after_hits " << op.after_hits
            << " graceful " << (op.graceful ? 1 : 0) << "\n";
        break;
      case Op::Kind::kFailover:
        out << "failover\n";
        break;
    }
  }
  return out.str();
}

Result<Schedule> ScheduleFromText(std::string_view text) {
  Schedule schedule;
  std::istringstream in{std::string(text)};
  std::string line;
  size_t lineno = 0;
  size_t secondaries_line = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string word;
    fields >> word;
    auto bad = [&](const std::string& what) {
      return Status::InvalidArgument("schedule line " +
                                     std::to_string(lineno) + ": " + what);
    };
    if (word == "seed") {
      if (!ReadNumber(fields, &schedule.seed)) {
        return bad("seed needs a number");
      }
    } else if (word == "protocol") {
      std::string name;
      if (!(fields >> name)) return bad("protocol needs a name");
      auto protocol = ProtocolFromName(name);
      if (!protocol.ok()) return protocol.status();
      schedule.protocol = *protocol;
    } else if (word == "secondaries") {
      if (!ReadNumber(fields, &schedule.secondaries, 0u, kMaxSecondaries)) {
        return bad("secondaries must be an integer in [0, " +
                   std::to_string(kMaxSecondaries) + "]");
      }
      secondaries_line = lineno;
    } else if (word == "append" || word == "read") {
      Op op;
      op.kind = word == "append" ? Op::Kind::kAppend : Op::Kind::kRead;
      if (!ReadNumber(fields, &op.len, 1u)) {
        return bad(word + " needs a length in [1, 2^32)");
      }
      schedule.ops.push_back(op);
    } else if (word == "fsync") {
      Op op;
      op.kind = Op::Kind::kFsync;
      schedule.ops.push_back(op);
    } else if (word == "failover") {
      Op op;
      op.kind = Op::Kind::kFailover;
      schedule.ops.push_back(op);
    } else if (word == "fault") {
      Op op;
      op.kind = Op::Kind::kFault;
      std::string kind_name;
      if (!(fields >> kind_name)) return bad("fault needs a kind");
      auto kind = fault::FaultKindFromName(kind_name);
      if (!kind.ok()) return kind.status();
      op.fault = *kind;
      std::string key;
      while (fields >> key) {
        uint64_t* us = key == "at_us"         ? &op.at_us
                       : key == "duration_us" ? &op.duration_us
                       : key == "delay_us"    ? &op.delay_us
                                              : nullptr;
        if (us != nullptr) {
          if (!ReadNumber(fields, us, uint64_t{0}, kMaxUs)) {
            return bad(key + " must be microseconds in [0, 2^63 ns)");
          }
        } else if (key == "probability") {
          if (!(fields >> op.probability) ||
              !(op.probability >= 0 && op.probability <= 1)) {
            return bad("probability must be in [0, 1]");
          }
        } else {
          return bad("unknown fault field '" + key + "'");
        }
      }
      schedule.ops.push_back(std::move(op));
    } else if (word == "crash") {
      Op op;
      op.kind = Op::Kind::kCrash;
      if (!(fields >> op.site)) return bad("crash needs a site");
      std::string key;
      while (fields >> key) {
        if (key == "after_hits") {
          if (!ReadNumber(fields, &op.after_hits, 1u)) {
            return bad("after_hits must be an integer in [1, 2^32)");
          }
        } else if (key == "graceful") {
          int flag = 0;
          if (!ReadNumber(fields, &flag, 0, 1)) {
            return bad("graceful needs 0 or 1");
          }
          op.graceful = flag != 0;
        } else {
          return bad("unknown crash field '" + key + "'");
        }
      }
      schedule.ops.push_back(std::move(op));
    } else {
      return bad("unknown directive '" + word + "'");
    }
  }
  if (schedule.HasFailover() &&
      schedule.secondaries > kMaxFailoverSecondaries) {
    return Status::InvalidArgument(
        "schedule line " + std::to_string(secondaries_line) +
        ": a failover schedule has at most " +
        std::to_string(kMaxFailoverSecondaries) + " secondaries");
  }
  return schedule;
}

}  // namespace xssd::check
