#include "harness.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

extern char** environ;

namespace xssd::gate {
namespace {

using obs::JsonValue;

/// Concurrent benches per test: enough to keep a gate test short, few
/// enough that ctest -j4 stays within memory (a fig09 run holds ~250 MB).
constexpr size_t kMaxConcurrentRuns = 3;
constexpr size_t kMaxStderrBytes = 1 << 20;

std::string RunDir(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::filesystem::path dir =
      std::filesystem::path(XSSD_GATE_OUT_DIR) / test / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Start `spec` in `dir` with stdout/stderr redirected into it; -1 when
/// the process could not be started.
pid_t Spawn(const BenchSpec& spec, const std::string& dir) {
  std::vector<std::string> args = {
      std::string(spec.example ? XSSD_EXAMPLE_DIR : XSSD_BENCH_DIR) + "/" +
      spec.bench};
  args.insert(args.end(), spec.args.begin(), spec.args.end());
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string_view(*e).rfind("XSSD_SIM_SCHEDULER=", 0) != 0) {
      env.emplace_back(*e);
    }
  }
  if (!spec.scheduler.empty()) {
    env.push_back("XSSD_SIM_SCHEDULER=" + spec.scheduler);
  }
  std::vector<char*> argv, envp;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);

  const std::string out = dir + "/stdout.txt";
  const std::string err = dir + "/stderr.txt";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, out.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addchdir_np(&actions, dir.c_str());
  pid_t pid = -1;
  int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                       envp.data());
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

const JsonValue* At(const JsonValue& doc,
                    std::initializer_list<std::string_view> path) {
  const JsonValue* v = &doc;
  for (std::string_view key : path) {
    if (v == nullptr) return nullptr;
    v = v->Find(key);
  }
  return v;
}

/// JSON text of `v` with every "obs." object key dropped and object keys
/// sorted, so two documents compare equal exactly when their non-obs
/// content does.
void AppendWithoutObs(const JsonValue& v, std::string* out) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      *out += obs::JsonNumber(v.number);
      return;
    case JsonValue::Type::kString:
      *out += "\"" + obs::JsonEscape(v.string) + "\"";
      return;
    case JsonValue::Type::kArray:
      *out += "[";
      for (const JsonValue& item : v.items) {
        AppendWithoutObs(item, out);
        *out += ",";
      }
      *out += "]";
      return;
    case JsonValue::Type::kObject: {
      std::map<std::string_view, const JsonValue*> kept;
      for (const auto& [key, value] : v.fields) {
        if (key.rfind("obs.", 0) != 0) kept.emplace(key, &value);
      }
      *out += "{";
      for (const auto& [key, value] : kept) {
        *out += "\n\"" + obs::JsonEscape(key) + "\": ";
        AppendWithoutObs(*value, out);
        *out += ",";
      }
      *out += "}";
      return;
    }
  }
}

/// Median over `runs` of the number at `path`: NaN, which fails every
/// floor, when a run lacks it.
double MedianAt(const std::vector<JsonValue>& runs,
                std::initializer_list<std::string_view> path) {
  std::vector<double> xs;
  for (const JsonValue& run : runs) {
    xs.push_back(NumberAt(run, path));
    if (std::isnan(xs.back())) return xs.back();
  }
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

std::string_view DropLastLine(std::string_view text) {
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  size_t cut = text.rfind('\n');
  return cut == std::string_view::npos ? std::string_view()
                                       : text.substr(0, cut + 1);
}

}  // namespace

std::vector<std::string> Args(std::string_view line) {
  std::vector<std::string> words;
  std::istringstream in{std::string(line)};
  for (std::string word; in >> word;) words.push_back(word);
  return words;
}

std::string BenchRun::Read(const std::string& file) const {
  return ReadFile(dir + "/" + file);
}

std::vector<BenchRun> RunBenches(const std::vector<BenchSpec>& specs) {
  std::vector<BenchRun> runs(specs.size());
  std::map<pid_t, size_t> live;
  size_t next = 0;
  while (next < specs.size() || !live.empty()) {
    if (next < specs.size() && live.size() < kMaxConcurrentRuns) {
      runs[next].dir = RunDir(specs[next].tag);
      pid_t pid = Spawn(specs[next], runs[next].dir);
      if (pid < 0) ADD_FAILURE() << "cannot start " << specs[next].bench;
      if (pid >= 0) live[pid] = next;
      ++next;
      continue;
    }
    int status = 0;
    pid_t pid = waitpid(-1, &status, 0);
    if (pid < 0) break;
    auto it = live.find(pid);
    if (it == live.end()) continue;
    runs[it->second].exit_code =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    live.erase(it);
  }
  return runs;
}

BenchRun RunBench(const BenchSpec& spec) { return RunBenches({spec})[0]; }

::testing::AssertionResult Succeeded(const BenchRun& run) {
  std::string err = run.Stderr();
  if (run.exit_code == 0 && err.size() < kMaxStderrBytes) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << run.dir << ": exit " << run.exit_code << ", " << err.size()
         << " bytes on stderr, ending:\n"
         << err.substr(err.size() - std::min<size_t>(err.size(), 2000));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string SourcePath(const std::string& relative) {
  return std::string(XSSD_SOURCE_DIR) + "/" + relative;
}

::testing::AssertionResult BytesEqual(std::string_view a, std::string_view b) {
  if (a == b) return ::testing::AssertionSuccess();
  size_t at = std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
              a.begin();
  size_t line = a.rfind('\n', at == 0 ? 0 : at - 1);
  line = line == std::string_view::npos ? 0 : line + 1;
  return ::testing::AssertionFailure()
         << "sizes " << a.size() << " vs " << b.size()
         << ", first difference at byte " << at << ", in the line\n"
         << a.substr(line, a.find('\n', at) - line);
}

::testing::AssertionResult HashIs(std::string_view name, std::string_view bytes,
                                  uint64_t want) {
  uint64_t fnv = 0xCBF29CE484222325ull;
  for (unsigned char byte : bytes) fnv = (fnv ^ byte) * 0x100000001B3ull;
  if (fnv == want) return ::testing::AssertionSuccess();
  char hex[2][19];
  std::snprintf(hex[0], sizeof hex[0], "0x%016llX",
                static_cast<unsigned long long>(fnv));
  std::snprintf(hex[1], sizeof hex[1], "0x%016llX",
                static_cast<unsigned long long>(want));
  return ::testing::AssertionFailure()
         << name << " (" << bytes.size() << " bytes) hashes to " << hex[0]
         << ", pinned " << hex[1];
}

::testing::AssertionResult JsonEqualIgnoringObs(std::string_view a,
                                                std::string_view b) {
  Result<JsonValue> da = obs::ParseJson(a);
  Result<JsonValue> db = obs::ParseJson(b);
  if (!da.ok() || !db.ok()) {
    return ::testing::AssertionFailure() << "unparsable JSON";
  }
  std::string ta, tb;
  AppendWithoutObs(*da, &ta);
  AppendWithoutObs(*db, &tb);
  return BytesEqual(ta, tb);
}

::testing::AssertionResult RowsEqual(std::string_view a, std::string_view b) {
  return BytesEqual(DropLastLine(a), DropLastLine(b));
}

::testing::AssertionResult TimeSeriesHasWindows(std::string_view text) {
  JsonValue doc = ParseOrFail(text);
  double windows = 0;
  if (const JsonValue* runs = doc.Find("runs")) {
    for (const auto& [label, run] : runs->fields) {
      windows += NumberAt(run, {"windows"});
    }
  }
  if (StringAt(doc, {"schema"}) == "xssd.timeseries.v1" && windows > 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "not an xssd.timeseries.v1 document with a closed window";
}

JsonValue ParseOrFail(std::string_view text) {
  Result<JsonValue> doc = obs::ParseJson(text);
  if (!doc.ok()) {
    ADD_FAILURE() << "unparsable JSON: " << doc.status().ToString();
    return JsonValue();
  }
  return *doc;
}

double NumberAt(const JsonValue& doc,
                std::initializer_list<std::string_view> path) {
  const JsonValue* v = At(doc, path);
  return v != nullptr && v->is_number()
             ? v->number
             : std::numeric_limits<double>::quiet_NaN();
}

std::string StringAt(const JsonValue& doc,
                     std::initializer_list<std::string_view> path) {
  const JsonValue* v = At(doc, path);
  return v != nullptr && v->is_string() ? v->string : "";
}

std::vector<std::string> KernelBenchViolations(const JsonValue& doc) {
  std::vector<std::string> bad;
  if (StringAt(doc, {"schema"}) != "xssd.kernel-bench.v4") {
    bad.push_back("schema is not xssd.kernel-bench.v4");
  }
  for (std::string_view mix : {"uniform", "pipeline", "fuzz", "fabric"}) {
    for (std::string_view backend : {"wheel", "heap"}) {
      const std::string where = std::string(mix) + "/" + std::string(backend);
      for (std::string_view key :
           {"wall_sec", "events_per_sec", "peak_pending", "pool_chunk_allocs",
            "callback_heap_fallbacks", "allocs_per_event"}) {
        if (!(NumberAt(doc, {"mixes", mix, backend, key}) >= 0)) {
          bad.push_back(where + " lacks " + std::string(key));
        }
      }
      // The same virtual workload on both backends.
      const double events = NumberAt(doc, {"mixes", mix, backend, "events"});
      if (!(events > 0) ||
          events != NumberAt(doc, {"mixes", mix, "wheel", "events"})) {
        bad.push_back(where + " ran no or different events");
      }
    }
    // peak_pending is sampled at event execution, so it is backend-invariant.
    if (NumberAt(doc, {"mixes", mix, "wheel", "peak_pending"}) !=
        NumberAt(doc, {"mixes", mix, "heap", "peak_pending"})) {
      bad.push_back(std::string(mix) + " wheel/heap peak_pending differ");
    }
  }
  return bad;
}

std::vector<std::string> KernelFloorViolations(
    const std::vector<JsonValue>& runs, const JsonValue& floor) {
  std::vector<std::string> bad;
  auto need = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  for (std::string_view mix : {"uniform", "pipeline", "fuzz", "fabric"}) {
    const std::string m(mix);
    need(MedianAt(runs, {"mixes", mix, "wheel", "events_per_sec"}) >=
             NumberAt(floor, {"min_events_per_sec", mix}),
         m + " wheel events/s under min_events_per_sec");
    need(MedianAt(runs, {"mixes", mix, "wheel", "allocs_per_event"}) <=
             NumberAt(floor, {"max_allocs_per_event"}),
         m + " wheel allocs/event over max_allocs_per_event");
  }
  need(MedianAt(runs, {"mixes", "fuzz", "wheel_vs_heap_speedup"}) >=
           NumberAt(floor, {"min_fuzz_wheel_vs_heap_speedup"}),
       "fuzz wheel/heap speedup under min_fuzz_wheel_vs_heap_speedup");
  return bad;
}

std::vector<std::string> ObsFloorViolations(const std::vector<JsonValue>& runs,
                                            const JsonValue& floor) {
  std::vector<std::string> bad;
  auto need = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };
  for (const JsonValue& run : runs) {
    need(StringAt(run, {"schema"}) == "xssd.obs-bench.v1",
         "schema is not xssd.obs-bench.v1");
  }
  need(MedianAt(runs, {"sampler_off", "events_per_sec"}) >=
           NumberAt(floor, {"min_unsampled_events_per_sec"}),
       "under min_unsampled_events_per_sec");
  need(MedianAt(runs, {"sampler_on", "events_per_sec"}) >=
           NumberAt(floor, {"min_sampled_events_per_sec"}),
       "under min_sampled_events_per_sec");
  need(MedianAt(runs, {"sampler_overhead_ratio"}) <=
           NumberAt(floor, {"max_sampler_overhead_ratio"}),
       "over max_sampler_overhead_ratio");
  need(MedianAt(runs, {"flightrec", "appends_per_sec"}) >=
           NumberAt(floor, {"min_flightrec_appends_per_sec"}),
       "under min_flightrec_appends_per_sec");
  return bad;
}

}  // namespace xssd::gate
