// HA campaign: run a three-member replicated cluster under the autonomous
// replication supervisor (src/ha) while a named fault plan kills, partitions,
// or flaps the primary, then verify the failover invariants:
//
//   - zero acknowledged-byte loss: every byte a successful fsync covered is
//     present, bit for bit, on the surviving leader;
//   - exactly-once promotion, and exactly one live primary at the end;
//   - fencing: a deposed primary's stale pushes are rejected by the term
//     fence (visible in fenced_writes), never admitted into a survivor;
//   - convergence: after healing, every live member holds the same log.
//
//   ha_campaign --plan kill-primary --seed 3 --metrics out.json
//
// --plan takes a name under bench/plans/ (kill-primary,
// partition-split-brain, flap) or a path to a plan file. The scenario is
// classified from the plan's shape, so edited plan files keep working:
//   - a crash clause            -> kill-primary (hard-kill the leader);
//   - an ntb.link_down window at least as long as the failure-detection
//     window (heartbeat_period x suspicion_threshold) -> partition; the
//     longest window governs the old primary's *inbound* heartbeat path
//     (set_scratchpad_fault_injector) and every other clause its outbound
//     data path, so its outbound link heals first and its stale retransmits
//     must be fenced by the new term before it learns it was deposed;
//   - only sub-detection-window faults -> flap (no membership churn
//     allowed).
// A (plan, seed) pair is bit-deterministic: two runs produce identical
// metric snapshots.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "ha/supervisor.h"
#include "host/node.h"
#include "host/xcalls.h"
#include "sim/random.h"

namespace xssd {
namespace {

enum class Scenario { kKillPrimary, kPartition, kFlap };

Scenario Classify(const fault::FaultPlan& plan, sim::SimTime detection) {
  for (const fault::FaultSpec& spec : plan.faults) {
    if (spec.kind == fault::FaultKind::kCrash) return Scenario::kKillPrimary;
  }
  for (const fault::FaultSpec& spec : plan.faults) {
    if (spec.kind == fault::FaultKind::kNtbLinkDown &&
        spec.duration >= detection) {
      return Scenario::kPartition;
    }
  }
  return Scenario::kFlap;
}

// Partition plans split in two: the longest ntb.link_down clause governs the
// old primary's inbound heartbeat (scratchpad) path, everything else its
// outbound data path. The stagger — outbound heals first — is what forces
// the deposed primary to retransmit into fenced intake slots before it can
// hear the new leader and stand down.
void SplitPartitionPlan(const fault::FaultPlan& plan,
                        fault::FaultPlan* outbound,
                        fault::FaultPlan* inbound) {
  size_t longest = plan.faults.size();
  sim::SimTime best_end = 0;
  for (size_t i = 0; i < plan.faults.size(); ++i) {
    const fault::FaultSpec& spec = plan.faults[i];
    if (spec.kind == fault::FaultKind::kNtbLinkDown &&
        spec.end() >= best_end) {
      longest = i;
      best_end = spec.end();
    }
  }
  outbound->name = plan.name + "/outbound";
  inbound->name = plan.name + "/inbound";
  for (size_t i = 0; i < plan.faults.size(); ++i) {
    (i == longest ? inbound : outbound)->faults.push_back(plan.faults[i]);
  }
}

// Log contents are a pure function of the absolute stream offset, so any
// prefix of any member can be checked without tracking which client wrote
// it.
uint8_t PatternByte(uint64_t offset) {
  return static_cast<uint8_t>(offset * 131 + 17);
}

constexpr uint64_t kAckedBytes = 24000;   ///< phase 1, fsync'd before faults
constexpr uint64_t kChainBytes = 30000;   ///< kill-primary: posted mid-crash
constexpr uint64_t kSuffixBytes = 8000;   ///< partition: un-acked suffix
constexpr uint64_t kPostBytes = 6000;     ///< written on the new leader

int RunCampaign(bench::BenchReporter& reporter, const fault::FaultPlan& plan,
                uint64_t seed) {
  const ha::HaConfig ha_config;  // eager, 50 us heartbeats, 5-miss suspicion
  const sim::SimTime detection =
      ha_config.heartbeat_period *
      static_cast<sim::SimTime>(ha_config.suspicion_threshold);
  const Scenario scenario = Classify(plan, detection);

  sim::Simulator sim;
  core::VillarsConfig config = bench::CampaignVillarsConfig(seed);
  ha::ReplicaSupervisor::ConfigureDevice(&config);

  std::vector<std::unique_ptr<host::StorageNode>> nodes;
  std::vector<host::StorageNode*> raw;
  for (size_t i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<host::StorageNode>(
        &sim, config, pcie::FabricConfig{}, "n" + std::to_string(i)));
    if (!nodes.back()->Init().ok()) {
      std::fprintf(stderr, "node init failed\n");
      return 1;
    }
    raw.push_back(nodes.back().get());
  }
  ha::ReplicaSupervisor supervisor(&sim, raw, ha_config);
  Status setup = supervisor.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "supervisor setup failed: %s\n",
                 setup.ToString().c_str());
    return 1;
  }
  supervisor.Start();
  supervisor.SetFlightRecorder(reporter.flight_recorder());
  reporter.AttachTimeSeries(&sim, plan.name.empty() ? "plan" : plan.name);
  // Always-on span recording: the scenario's metrics snapshot carries a
  // latency-breakdown block, and the conservation invariant below becomes
  // part of the campaign's pass/fail verdict.
  obs::SpanRecorder spans(&sim);
  for (size_t i = 0; i < 3; ++i) {
    nodes[i]->EnableMetrics(&reporter.registry(),
                            "n" + std::to_string(i) + ".");
    nodes[i]->EnableSpans(&spans, "n" + std::to_string(i));
    nodes[i]->device().EnableFlightRecorder(reporter.flight_recorder());
  }

  bench::Gate gate{plan.name + " seed " + std::to_string(seed)};
  auto credit = [&](size_t i) {
    return nodes[i]->device().cmb().local_credit();
  };
  auto live_primaries = [&]() {
    size_t primaries = 0;
    for (auto& node : nodes) {
      if (!node->device().halted() &&
          node->device().transport().role() == core::Role::kPrimary) {
        ++primaries;
      }
    }
    return primaries;
  };
  auto fenced_total = [&]() {
    uint64_t fenced = 0;
    for (auto& node : nodes) {
      fenced += node->device().transport().fenced_writes();
    }
    return fenced;
  };
  auto prefix_matches = [&](size_t i, uint64_t n) {
    std::vector<uint8_t> buf(n);
    nodes[i]->device().cmb().CopyOut(0, buf.data(), n);
    for (uint64_t off = 0; off < n; ++off) {
      if (buf[off] != PatternByte(off)) return false;
    }
    return true;
  };
  auto run_until = [&](sim::SimTime t) {
    if (sim.Now() < t) sim.RunFor(t - sim.Now());
  };

  // Reference stream, sliced into seeded random-sized appends.
  std::vector<uint8_t> stream(kAckedBytes + kChainBytes + kSuffixBytes +
                              kPostBytes);
  for (uint64_t off = 0; off < stream.size(); ++off) {
    stream[off] = PatternByte(off);
  }
  sim::Rng rng(seed ^ 0x8A1EC7ull);
  auto append_chunked = [&](host::XLogClient& client, const uint8_t* data,
                            uint64_t bytes) {
    uint64_t done = 0;
    while (done < bytes) {
      uint64_t chunk =
          std::min<uint64_t>(bytes - done, 256 + rng.Uniform(1500));
      if (host::x_pwrite(sim, client, data + done, chunk) !=
          static_cast<ssize_t>(chunk)) {
        break;
      }
      done += chunk;
    }
    return done;
  };

  // Phase 1 (all scenarios): build an acknowledged prefix. After the fsync
  // ack, losing any of these bytes is a failover bug by definition.
  fault::FaultPlan outbound_plan, inbound_plan;
  std::unique_ptr<fault::FaultInjector> injector, inbound_injector;
  if (scenario == Scenario::kPartition) {
    SplitPartitionPlan(plan, &outbound_plan, &inbound_plan);
    injector =
        std::make_unique<fault::FaultInjector>(&sim, outbound_plan, seed);
    inbound_injector =
        std::make_unique<fault::FaultInjector>(&sim, inbound_plan, seed);
    nodes[0]->ntb().set_fault_injector(injector.get());
    // After set_fault_injector, which points both paths at the outbound
    // injector, re-point the inbound scratchpad path at its own plan.
    nodes[0]->ntb().set_scratchpad_fault_injector(inbound_injector.get());
  } else if (scenario == Scenario::kFlap) {
    injector = std::make_unique<fault::FaultInjector>(&sim, plan, seed);
    nodes[0]->ntb().set_fault_injector(injector.get());
  }
  if (injector) {
    injector->SetMetrics(&reporter.registry());
    injector->SetFlightRecorder(reporter.flight_recorder());
  }
  if (inbound_injector) {
    inbound_injector->SetFlightRecorder(reporter.flight_recorder());
  }

  gate.Check(append_chunked(nodes[0]->client(), stream.data(), kAckedBytes) ==
                 kAckedBytes,
             "phase-1 append did not complete");
  gate.Check(host::x_fsync(sim, nodes[0]->client()) == 0,
             "phase-1 fsync failed");
  const uint64_t acked = credit(0);
  gate.Check(acked >= kAckedBytes,
             "phase-1 fsync acked fewer bytes than written");

  const std::string label = plan.name.empty() ? "plan" : plan.name;
  size_t leader = 0;

  if (scenario == Scenario::kKillPrimary) {
    // Arm the crash clause only now, so its hit counter starts after the
    // acked watermark is established.
    injector = std::make_unique<fault::FaultInjector>(&sim, plan, seed);
    injector->SetMetrics(&reporter.registry());
    injector->SetFlightRecorder(reporter.flight_recorder());
    nodes[0]->ArmFaults(injector.get(), /*install_crash_handler=*/false);
    bool killed = false;
    injector->SetCrashHandler([&](const fault::FaultSpec&) {
      nodes[0]->device().CrashHard();
      killed = true;
    });

    // Keep appending (callback-chained, so the mid-append kill cannot wedge
    // the campaign) until the clause fires.
    uint64_t posted = acked;
    bool posted_all = false;
    std::function<void()> append_next = [&]() {
      if (killed || nodes[0]->device().halted()) return;
      uint64_t chunk = std::min<uint64_t>(acked + kChainBytes - posted,
                                          256 + rng.Uniform(1500));
      if (chunk == 0) {
        posted_all = true;
        return;
      }
      nodes[0]->client().Append(stream.data() + posted, chunk,
                                [&](Status) { append_next(); });
      posted += chunk;
    };
    append_next();
    sim.RunWhile([&]() { return posted_all || killed; });
    for (int i = 0; i < 100 && !killed; ++i) sim.RunFor(sim::Ms(1));
    gate.Check(injector->crashed(), "kill-primary: crash clause never fired");

    sim.RunFor(sim::Ms(4));  // detect, elect, promote, fence in survivors
    leader = supervisor.leader_index();
    gate.Check(supervisor.promotions() == 1,
               "promotion did not happen exactly once");
    gate.Check(leader != 0, "dead member still believed leader");
    gate.Check(supervisor.term() == 2, "promotion did not advance the term");
    gate.Check(live_primaries() == 1, "not exactly one live primary");
    gate.Check(credit(leader) >= acked,
               "promoted leader lost acknowledged bytes");
    gate.Check(prefix_matches(leader, credit(leader)),
               "promoted log differs from the reference stream");

    // The new leader serves writes; eager acks require the surviving
    // secondary to be fenced in at the new term.
    gate.Check(append_chunked(nodes[leader]->client(),
                              stream.data() + nodes[leader]->client().written(),
                              kPostBytes) == kPostBytes,
               "post-failover append did not complete");
    gate.Check(host::x_fsync(sim, nodes[leader]->client()) == 0,
               "post-failover fsync failed");
    gate.Check(supervisor.promotions() == 1, "a second promotion happened");
    gate.Check(supervisor.demotions() == 0, "kill-primary caused a demotion");
    size_t other = 3 - leader;  // the surviving secondary (member 0 is dead)
    gate.Check(credit(other) == credit(leader),
               "surviving secondary did not converge");
    gate.Check(prefix_matches(other, credit(other)),
               "surviving secondary's log differs from the reference stream");
  } else if (scenario == Scenario::kPartition) {
    sim::SimTime first_at = fault::FaultSpec::kForever;
    sim::SimTime outbound_end = 0;
    for (const fault::FaultSpec& spec : outbound_plan.faults) {
      first_at = std::min(first_at, spec.at);
      outbound_end = std::max(outbound_end, spec.end());
    }
    sim::SimTime inbound_end = outbound_end;
    for (const fault::FaultSpec& spec : inbound_plan.faults) {
      first_at = std::min(first_at, spec.at);
      inbound_end = std::max(inbound_end, spec.end());
    }
    gate.Check(sim.Now() < first_at,
               "phase-1 workload overran the partition start; raise at_us");

    // Inside the partition, the isolated primary keeps accepting appends it
    // can no longer replicate. The suffix uses an inverted pattern: were
    // fencing ever to leak one of these bytes into a survivor, the final
    // byte-compare would see it.
    run_until(first_at + sim::Us(50));
    std::vector<uint8_t> doomed(kSuffixBytes);
    for (uint64_t off = 0; off < kSuffixBytes; ++off) {
      doomed[off] = static_cast<uint8_t>(PatternByte(acked + off) ^ 0xFF);
    }
    gate.Check(host::x_pwrite(sim, nodes[0]->client(), doomed.data(),
                              doomed.size()) ==
                   static_cast<ssize_t>(doomed.size()),
               "partition: local append on the isolated primary failed");

    // Majority side elects while the minority's outbound link is down; once
    // it heals, the deposed primary's retransmits must die at the fence.
    run_until(outbound_end + sim::Us(600));
    gate.Check(supervisor.promotions() == 1,
               "majority did not promote exactly once");
    leader = supervisor.leader_index();
    gate.Check(leader != 0, "partitioned member still believed leader");
    gate.Check(supervisor.term() == 2, "promotion did not advance the term");
    gate.Check(fenced_total() >= 1,
               "no stale write from the deposed primary was fenced");

    // Inbound heal: the deposed primary hears the new leader, truncates its
    // divergent suffix, and rejoins as a secondary.
    run_until(inbound_end + sim::Ms(2));
    gate.Check(supervisor.demotions() == 1, "deposed primary never stood down");
    gate.Check(supervisor.joins() >= 1,
               "deposed primary was never re-admitted");
    gate.Check(live_primaries() == 1,
               "not exactly one live primary after heal");

    gate.Check(append_chunked(nodes[leader]->client(),
                              stream.data() + nodes[leader]->client().written(),
                              kPostBytes) == kPostBytes,
               "post-failover append did not complete");
    gate.Check(host::x_fsync(sim, nodes[leader]->client()) == 0,
               "post-failover fsync failed");
    sim.RunFor(sim::Ms(2));  // stream the rejoined member to convergence
    gate.Check(credit(leader) >= acked, "new leader lost acknowledged bytes");
    for (size_t i = 0; i < 3; ++i) {
      gate.Check(credit(i) == credit(leader), "member did not converge");
      gate.Check(prefix_matches(i, credit(i)),
                 "member log differs from the reference stream");
    }
  } else {
    // Flap: every fault window is shorter than the failure-detection
    // window, so the supervisor must sit on its hands while retransmission
    // heals the dropped traffic.
    run_until(sim::Us(1500));
    sim.RunFor(sim::Ms(2));
    gate.Check(supervisor.promotions() == 0, "flap caused a promotion");
    gate.Check(supervisor.demotions() == 0, "flap caused a demotion");
    gate.Check(supervisor.removals() == 0, "flap caused a membership removal");
    gate.Check(supervisor.leader_index() == 0, "flap moved the leader");
    gate.Check(live_primaries() == 1, "not exactly one live primary");
    gate.Check(append_chunked(nodes[0]->client(), stream.data() + acked,
                              kSuffixBytes) == kSuffixBytes,
               "post-flap append did not complete");
    gate.Check(host::x_fsync(sim, nodes[0]->client()) == 0,
               "post-flap fsync failed");
    leader = 0;
    for (size_t i = 0; i < 3; ++i) {
      gate.Check(credit(i) == credit(0), "member did not converge after flap");
      gate.Check(prefix_matches(i, credit(i)),
                 "member log differs from the reference stream");
    }
    gate.Check(injector->totals().ntb_dropped >= 1, "plan injected no faults");
  }
  gate.Check(credit(leader) >= acked, "final leader lost acknowledged bytes");

  obs::BreakdownReporter breakdown("ha_campaign");
  breakdown.AddRun(label, spans);
  breakdown.ExportGauges(&reporter.registry(),
                         "bench.ha_campaign." + label + ".");
  gate.Check(breakdown.conservation_violations() == 0,
             "latency attribution violated segment/e2e conservation");

  reporter.SetResult(label, "acked", static_cast<double>(acked));
  reporter.SetResult(label, "final_credit",
                     static_cast<double>(credit(leader)));
  reporter.SetResult(label, "promotions",
                     static_cast<double>(supervisor.promotions()));
  reporter.SetResult(label, "demotions",
                     static_cast<double>(supervisor.demotions()));
  reporter.SetResult(label, "removals",
                     static_cast<double>(supervisor.removals()));
  reporter.SetResult(label, "joins", static_cast<double>(supervisor.joins()));
  reporter.SetResult(label, "fenced_writes",
                     static_cast<double>(fenced_total()));
  reporter.SetResult(label, "invariant_failures",
                     static_cast<double>(gate.failures));
  // Nonzero means some scenario step asked for a past timestamp and the
  // scheduler clamped it to Now() — an ordering bug in the scenario.
  reporter.SetResult(label, "schedule_past_clamps",
                     static_cast<double>(sim.past_schedule_clamps()));
  std::printf("plan=%s seed=%llu acked=%llu final=%llu promotions=%llu "
              "fenced=%llu %s\n",
              label.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(acked),
              static_cast<unsigned long long>(credit(leader)),
              static_cast<unsigned long long>(supervisor.promotions()),
              static_cast<unsigned long long>(fenced_total()),
              gate.failures == 0 ? "OK" : "FAILED");
  supervisor.Stop();
  return gate.failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xssd

int main(int argc, char** argv) {
  using namespace xssd;
  std::string plan_arg = "kill-primary";
  uint64_t seed = 1;
  bench::BenchReporter reporter(
      argc, argv, "ha_campaign",
      {{"--plan NAME|PATH", &plan_arg,
        "plan under bench/plans/ or plan file (default kill-primary)"},
       {"--seed N", &seed, "seed (default 1)"}});
  Result<fault::FaultPlan> plan = bench::LoadPlan(plan_arg);
  if (!plan.ok()) {
    reporter.Fail("cannot load plan '" + plan_arg +
                  "': " + plan.status().ToString());
  }
  if (reporter.sampling_enabled()) {
    // Split-brain sentinel, one rule per member: any window where a
    // device's term fence rejects ring writes is worth an alert — after a
    // failover that is the deposed leader still writing.
    for (int i = 0; i < 3; ++i) {
      obs::SloRule fenced;
      fenced.name = "fenced_writes_n" + std::to_string(i);
      fenced.metric = "n" + std::to_string(i) + ".transport.fenced_writes";
      fenced.pred = obs::SloRule::Pred::kGt;
      fenced.threshold = 0;
      fenced.for_windows = 1;
      reporter.AddSloRule(fenced);
    }
  }

  bench::PrintHeader("HA campaign: " + plan->name + " (seed " +
                     std::to_string(seed) + ")");
  int rc = RunCampaign(reporter, *plan, seed);
  int finish_rc = reporter.Finish();
  return rc != 0 ? rc : finish_rc;
}
