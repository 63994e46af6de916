// The campaigns check their own invariants and exit non-zero on any
// failure; these gates add what a single run cannot see: each seed
// reproduces byte for byte, the faults a plan promises were injected,
// sampling perturbs nothing, and diagnostics stay bounded (Succeeded).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace xssd::gate {
namespace {

using obs::JsonValue;

/// Run `bench` with `args` plus --seed for each seed, twice, and require
/// byte-identical snapshots. Returns the first run's snapshot per seed.
std::vector<JsonValue> ExpectSeedsReproduce(
    const std::string& bench, const std::vector<std::string>& args,
    const std::vector<int>& seeds) {
  const std::string prefix = args.empty() ? "" : args.back() + "-";
  std::vector<BenchSpec> specs;
  for (int seed : seeds) {
    for (const char* run : {"run", "rerun"}) {
      std::vector<std::string> seeded = args;
      seeded.insert(seeded.end(), {"--seed", std::to_string(seed),
                                   "--metrics", "metrics.json"});
      specs.push_back(
          {prefix + "seed" + std::to_string(seed) + "-" + run, bench, seeded});
    }
  }
  std::vector<BenchRun> runs = RunBenches(specs);
  std::vector<JsonValue> snapshots;
  for (size_t i = 0; i < runs.size(); i += 2) {
    SCOPED_TRACE(runs[i].dir);
    EXPECT_TRUE(Succeeded(runs[i]));
    EXPECT_TRUE(Succeeded(runs[i + 1]));
    std::string metrics = runs[i].Read("metrics.json");
    EXPECT_TRUE(BytesEqual(metrics, runs[i + 1].Read("metrics.json")));
    snapshots.push_back(ParseOrFail(metrics));
  }
  return snapshots;
}

TEST(FaultCampaignGate, PlansReproduceAndInjectTheirFaults) {
  const std::pair<const char*, const char*> plans[] = {
      {"flash-fail", "fault.flash.program_fails"},
      {"ntb-flap", "fault.ntb.dropped_writes"},
      {"crash-mid-destage", "fault.crashes"},
      {"retention-stress", "fault.flash.retention_boosts"}};
  for (const auto& [plan, headline] : plans) {
    for (const JsonValue& snapshot : ExpectSeedsReproduce(
             "fault_campaign", {"--plan", plan}, {1, 2, 3})) {
      EXPECT_GT(NumberAt(snapshot, {"counters", headline}), 0) << headline;
    }
  }
}

// Promotions, demotions, fencing and acknowledged bytes are the campaign's
// own checks.
TEST(HaCampaignGate, PlansReproduce) {
  for (const char* plan : {"kill-primary", "partition-split-brain", "flap"}) {
    ExpectSeedsReproduce("ha_campaign", {"--plan", plan}, {1, 2, 3});
  }
}

TEST(FtlCampaignGate, SeedsReproduce) {
  for (const JsonValue& snapshot :
       ExpectSeedsReproduce("ftl_campaign", {}, {1, 2, 3})) {
    EXPECT_GT(NumberAt(snapshot, {"gauges",
                                  "bench.ftl_campaign.crash.pages_scanned"}),
              0);
  }
}

// Sampling on (which also arms the campaign's watchdog rules) moves no
// metric outside obs.*; the flight-recorder file holds the injected
// mid-GC power cut; sampled output is itself byte-deterministic.
TEST(FtlCampaignGate, SamplingPerturbsNothingAndRecordsTheCrash) {
  const std::string plain = "--seed 7 --metrics metrics.json";
  const std::vector<std::string> sampled =
      Args(plain + " --timeseries ts.json --flightrec flightrec.txt");
  std::vector<BenchRun> runs = RunBenches({
      {"plain", "ftl_campaign", Args(plain)},
      {"sampled", "ftl_campaign", sampled},
      {"sampled-rerun", "ftl_campaign", sampled},
  });
  for (const BenchRun& run : runs) ASSERT_TRUE(Succeeded(run));
  const BenchRun& on = runs[1];
  EXPECT_TRUE(JsonEqualIgnoringObs(runs[0].Read("metrics.json"),
                                   on.Read("metrics.json")));
  EXPECT_TRUE(TimeSeriesHasWindows(on.Read("ts.json")));
  EXPECT_NE(on.Read("flightrec.txt")
                .find("crash clause fired at site ftl.gc.relocate"),
            std::string::npos);
  EXPECT_TRUE(BytesEqual(on.Read("ts.json"), runs[2].Read("ts.json")));
  EXPECT_TRUE(
      BytesEqual(on.Read("flightrec.txt"), runs[2].Read("flightrec.txt")));
}

TEST(ScrubCampaignGate, SeedReproduces) {
  ExpectSeedsReproduce("scrub_campaign", {}, {1});
}

// The oracle must catch the planted early-credit bug and the shrinker
// must minimize it; the campaign exits non-zero otherwise.
TEST(CheckCampaignGate, PlantedBugIsCaughtAndShrunk) {
  EXPECT_TRUE(Succeeded(RunBench(
      {"run", "check_campaign",
       Args("--plant-bug --runs 50 --seed 1 --ops 40 --shrink --dump-dir . "
            "--metrics metrics.json")})));
}

}  // namespace
}  // namespace xssd::gate
