#ifndef XSSD_TESTS_GATE_HARNESS_H_
#define XSSD_TESTS_GATE_HARNESS_H_

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace xssd::gate {

/// \brief One bench invocation. It runs in a fresh directory of its own,
/// where relative output paths (`--metrics metrics.json`) land, with
/// XSSD_SIM_SCHEDULER always set: an inherited value cannot turn an
/// equivalence check into a self-comparison.
struct BenchSpec {
  std::string tag;  ///< run directory name, unique within the test
  std::string bench;
  std::vector<std::string> args;
  std::string scheduler = "wheel";
  bool example = false;  ///< `bench` names an examples/ program
};

/// A finished run: its directory (outputs plus stdout.txt / stderr.txt)
/// and exit status (128 + signal when the bench died on a signal).
struct BenchRun {
  std::string dir;
  int exit_code = -1;

  std::string Read(const std::string& file) const;
  std::string Stdout() const { return Read("stdout.txt"); }
  std::string Stderr() const { return Read("stderr.txt"); }
};

/// Split a space-separated argument line.
std::vector<std::string> Args(std::string_view line);

/// Run the specs (a few at a time) and return their results in order.
std::vector<BenchRun> RunBenches(const std::vector<BenchSpec>& specs);
BenchRun RunBench(const BenchSpec& spec);

/// Exit status 0 and bounded diagnostics: stderr stays under 1 MiB.
::testing::AssertionResult Succeeded(const BenchRun& run);

std::string ReadFile(const std::string& path);
/// `relative` inside the source checkout.
std::string SourcePath(const std::string& relative);

::testing::AssertionResult BytesEqual(std::string_view a, std::string_view b);
/// Equal as JSON once every object key starting with "obs." is dropped:
/// the observability self-metrics are the only thing sampling may move.
::testing::AssertionResult JsonEqualIgnoringObs(std::string_view a,
                                                std::string_view b);
/// Byte-equal once each text's last line (fig13's trailer naming the
/// metrics path) is dropped.
::testing::AssertionResult RowsEqual(std::string_view a, std::string_view b);
/// An `xssd.timeseries.v1` document whose samplers closed a window.
::testing::AssertionResult TimeSeriesHasWindows(std::string_view text);

/// Parse failures are test failures and yield null.
obs::JsonValue ParseOrFail(std::string_view text);
/// Value at a path of object keys: NaN / "" when absent, so any floor
/// comparison against a missing number fails.
double NumberAt(const obs::JsonValue& doc,
                std::initializer_list<std::string_view> path);
std::string StringAt(const obs::JsonValue& doc,
                     std::initializer_list<std::string_view> path);

/// kernel_bench checks that hold in any build: schema, the stats of every
/// backend, identical event counts, wheel/heap peak_pending agreement.
std::vector<std::string> KernelBenchViolations(const obs::JsonValue& doc);
/// kernel_bench `runs` against bench/baselines/kernel_floor.json, each
/// metric at its median over the runs, so one noisy run can neither fail
/// nor pass a floor.
std::vector<std::string> KernelFloorViolations(
    const std::vector<obs::JsonValue>& runs, const obs::JsonValue& floor);
/// obs_bench `runs` against bench/baselines/obs_floor.json, likewise.
std::vector<std::string> ObsFloorViolations(
    const std::vector<obs::JsonValue>& runs, const obs::JsonValue& floor);

}  // namespace xssd::gate

#endif  // XSSD_TESTS_GATE_HARNESS_H_
