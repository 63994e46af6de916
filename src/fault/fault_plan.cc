#include "fault/fault_plan.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace xssd::fault {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kFlashProgramFail, "flash.program_fail"},
    {FaultKind::kFlashEraseFail, "flash.erase_fail"},
    {FaultKind::kFlashReadUncorrectable, "flash.read_uncorrectable"},
    {FaultKind::kFlashRetention, "flash.retention"},
    {FaultKind::kFlashDisturb, "flash.disturb"},
    {FaultKind::kNtbLinkDown, "ntb.link_down"},
    {FaultKind::kNtbLinkStall, "ntb.link_stall"},
    {FaultKind::kPcieStoreDelay, "pcie.store_delay"},
    {FaultKind::kPcieStoreTruncate, "pcie.store_truncate"},
    {FaultKind::kNvmeTimeout, "nvme.timeout"},
    {FaultKind::kCrash, "crash"},
};

Status BadField(const std::string& where, const std::string& what) {
  return Status::InvalidArgument("fault plan: " + where + ": " + what);
}

/// Microsecond JSON field -> SimTime; rejects negatives, non-finite values
/// and times of 2^63 ns or more, which sim::UsF cannot round.
Result<sim::SimTime> TimeField(const obs::JsonValue& v, const std::string& ctx) {
  if (!v.is_number() || !std::isfinite(v.number) || v.number < 0 ||
      v.number * 1000.0 >= 0x1p63) {
    return BadField(ctx, "must be microseconds in [0, 2^63 ns)");
  }
  return sim::UsF(v.number);
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

Result<FaultKind> FaultKindFromName(std::string_view name) {
  for (const auto& entry : kKindNames) {
    if (name == entry.name) return entry.kind;
  }
  return Status::InvalidArgument("fault plan: unknown fault kind '" +
                                 std::string(name) + "'");
}

Result<FaultPlan> ParseFaultPlan(std::string_view json) {
  auto doc = obs::ParseJson(json);
  if (!doc.ok()) return doc.status();
  if (!doc->is_object()) {
    return Status::InvalidArgument("fault plan: top level must be an object");
  }

  FaultPlan plan;
  for (const auto& [key, value] : doc->fields) {
    if (key == "name") {
      if (!value.is_string()) return BadField("name", "must be a string");
      plan.name = value.string;
    } else if (key == "faults") {
      if (!value.is_array()) return BadField("faults", "must be an array");
      for (size_t i = 0; i < value.items.size(); ++i) {
        const obs::JsonValue& entry = value.items[i];
        const std::string ctx = "faults[" + std::to_string(i) + "]";
        if (!entry.is_object()) return BadField(ctx, "must be an object");

        FaultSpec spec;
        bool saw_kind = false;
        for (const auto& [fkey, fval] : entry.fields) {
          if (fkey == "kind") {
            if (!fval.is_string()) return BadField(ctx, "kind must be a string");
            auto kind = FaultKindFromName(fval.string);
            if (!kind.ok()) return kind.status();
            spec.kind = *kind;
            saw_kind = true;
          } else if (fkey == "at_us") {
            auto t = TimeField(fval, ctx + ".at_us");
            if (!t.ok()) return t.status();
            spec.at = *t;
          } else if (fkey == "duration_us") {
            auto t = TimeField(fval, ctx + ".duration_us");
            if (!t.ok()) return t.status();
            spec.duration = *t;
          } else if (fkey == "delay_us") {
            auto t = TimeField(fval, ctx + ".delay_us");
            if (!t.ok()) return t.status();
            spec.delay = *t;
          } else if (fkey == "magnitude") {
            if (!fval.is_number() || fval.number < 0) {
              return BadField(ctx, "magnitude must be a non-negative number");
            }
            spec.magnitude = fval.number;
          } else if (fkey == "probability") {
            if (!fval.is_number() || fval.number < 0 || fval.number > 1) {
              return BadField(ctx, "probability must be in [0, 1]");
            }
            spec.probability = fval.number;
          } else if (fkey == "site") {
            if (!fval.is_string()) return BadField(ctx, "site must be a string");
            spec.site = fval.string;
          } else if (fkey == "after_hits") {
            if (!fval.is_number() || fval.number < 1 ||
                fval.number > UINT32_MAX ||
                fval.number != std::floor(fval.number)) {
              return BadField(ctx,
                              "after_hits must be an integer in [1, 2^32)");
            }
            spec.after_hits = static_cast<uint32_t>(fval.number);
          } else if (fkey == "graceful") {
            if (!fval.is_bool()) return BadField(ctx, "graceful must be a bool");
            spec.graceful = fval.boolean;
          } else {
            return BadField(ctx, "unknown field '" + fkey + "'");
          }
        }
        if (!saw_kind) return BadField(ctx, "missing 'kind'");
        if (spec.kind == FaultKind::kCrash && spec.site.empty()) {
          return BadField(ctx, "crash faults require a 'site'");
        }
        plan.faults.push_back(std::move(spec));
      }
    } else {
      return BadField(key, "unknown top-level field");
    }
  }
  return plan;
}

Result<FaultPlan> LoadFaultPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open fault plan " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  auto plan = ParseFaultPlan(buf.str());
  if (plan.ok() && plan->name.empty()) {
    plan->name = path;  // unnamed file plans report their path
  }
  return plan;
}

FaultPlanBuilder::FaultPlanBuilder(std::string name) {
  plan_.name = std::move(name);
}

FaultPlanBuilder& FaultPlanBuilder::Window(FaultKind kind, sim::SimTime at,
                                           sim::SimTime duration,
                                           double probability,
                                           sim::SimTime delay,
                                           double magnitude) {
  FaultSpec spec;
  spec.kind = kind;
  spec.at = at;
  spec.duration = duration;
  spec.probability = probability;
  spec.delay = delay;
  spec.magnitude = magnitude;
  plan_.faults.push_back(std::move(spec));
  return *this;
}

FaultPlanBuilder& FaultPlanBuilder::Crash(std::string site,
                                          uint32_t after_hits, bool graceful) {
  FaultSpec spec;
  spec.kind = FaultKind::kCrash;
  spec.site = std::move(site);
  spec.after_hits = after_hits;
  spec.graceful = graceful;
  plan_.faults.push_back(std::move(spec));
  return *this;
}

FaultPlanBuilder& FaultPlanBuilder::Add(const FaultSpec& spec) {
  plan_.faults.push_back(spec);
  return *this;
}

}  // namespace xssd::fault
