// rrsim benchmark program: runs one workload in this process and prints its
// metrics as one JSON object on the last line of standard output.
//
//   rrsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scale full|toy] [--expect-checksum HEX]
//                   [--scratch DIR] [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics: set-up is repeated (with the
// TraceCache cleared each time) and its median reported, then the timed
// phase repeats on warm inputs until S seconds have passed; medians again.
// Each set-up and timed phase is scaled to a reference host speed by the
// reference computation timed just before it (hostref.h); the unscaled
// medians are printed on the info line.
// --trace 1 makes one traced run that reports the per-layer metrics.
// Every timed phase's outcome checksum must equal --expect-checksum when
// given, and the first run's otherwise; a mismatch or an exception counts
// as a failed run.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hostref.h"
#include "rrsim/util/stats.h"
#include "rrsim/workload/trace_cache.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (smoke.py checks).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},
    {"jobs_per_s", "jobs/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Every workload reports every per-layer metric; 0 marks a layer the
// workload does not exercise (NOTES.md maps metrics to workloads).
constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"workload.ns_per_job", "ns"},
    {"workload.calibrate_s", "s"},
    {"workload.cache_hits", "count"},
    {"workload.cache_misses", "count"},
    {"workload.resident_trace_mb", "MiB"},
    {"workload.spool_mb", "MiB"},
    {"core.jobs", "count"},
    {"core.run_s.p50", "s"},
    {"core.run_s.p90", "s"},
    {"core.live_state_mb", "MiB"},
    {"exec.sweep_s", "s"},
    {"exec.busy_s", "s"},
    {"exec.idle_frac", "ratio"},
    {"exec.pdes_windows", "count"},
    {"exec.jobs_per_window", "ratio"},
    {"exec.pdes_speedup_2w", "ratio"},
    {"grid.replicas_per_job", "ratio"},
    {"grid.useful_replica_ratio", "ratio"},
    {"grid.cancels_per_job", "ratio"},
    {"grid.replicas_dropped", "count"},
    {"grid.duplicate_starts", "count"},
    {"sched.passes_per_job", "ratio"},
    {"sched.declines_per_job", "ratio"},
    {"sched.starts_per_job", "ratio"},
    {"metrics.fold_ns_per_job", "ns"},
    {"trace.wall_untraced_s", "s"},
    {"trace.wall_traced_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.spans", "count"},
    {"host.reference_s", "s"},
};

// Repetition floors and the share of the run given to set-up.
constexpr std::size_t kMinRuns = 5;
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 21;
constexpr double kSetupShare = 0.4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::optional<std::uint64_t> expect;
  std::string scratch;
  std::string trace_out;
  double load_at_start = 0.0;  ///< 1-minute load average when the run began
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: rrsim_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|toy] "
               "[--expect-checksum HEX] [--scratch DIR] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, int base, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (s.empty() || *end != '\0' || s[0] == '-') {
    usage(std::string("bad value for ") + flag + ": " + s);
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, 10, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v, 10, "--seconds"));
      if (a.seconds < 1) usage("--seconds must be >= 1");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
      have_trace = true;
    } else if (flag == "--scale") {
      if (v != "full" && v != "toy") usage("--scale must be full or toy");
      a.scale = v == "toy" ? Scale::kToy : Scale::kFull;
    } else if (flag == "--expect-checksum") {
      a.expect = parse_u64(v, 16, "--expect-checksum");
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0.0 : rrsim::util::quantile(xs, 0.5);
}

// VmHWM: the process's peak resident set, in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double load_average_1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<std::uint64_t> reference;  // pin, else first run's
  RunOutcome last;

  // Counts one timed phase; returns whether it produced the expected
  // outcome.
  bool check(const RunOutcome& out) {
    ++attempted;
    last = out;
    if (!reference) reference = out.checksum;
    if (out.checksum == *reference) return true;
    ++failed;
    std::fprintf(stderr, "failed run: checksum %016llx, expected %016llx\n",
                 static_cast<unsigned long long>(out.checksum),
                 static_cast<unsigned long long>(*reference));
    return false;
  }
  void fail(const std::exception& e) {
    ++attempted;
    ++failed;
    std::fprintf(stderr, "failed run: %s\n", e.what());
  }
};

// Unscaled medians of an untraced run, reported beside the metrics.
struct HostTimes {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double reference_s = 0.0;
};

void print_result(const Args& args, const Workload& w, const Tally& tally,
                  std::span<const MetricDef> defs,
                  const std::map<std::string, double>& values,
                  std::size_t setups, const HostTimes& host) {
  const bool pin_matched =
      tally.failed == 0 && tally.attempted > 0 && args.expect.has_value();
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"scale\": \"%s\", "
      "\"trace\": %d, \"workers\": %d, \"nproc\": %ld, "
      "\"loadavg_1m_at_start\": %.2f, "
      "\"timed_runs\": %zu, \"setups\": %zu, \"host_wall_s\": %.6f, "
      "\"host_setup_s\": %.6f, \"reference_s\": %.6f, "
      "\"checksum\": \"%016llx\", \"pin_matched\": %s, "
      "\"summary\": \"%s\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.scale == Scale::kToy ? "toy" : "full", args.trace ? 1 : 0,
      w.workers(), sysconf(_SC_NPROCESSORS_ONLN), args.load_at_start,
      tally.attempted, setups, host.wall_s, host.setup_s, host.reference_s,
      static_cast<unsigned long long>(tally.last.checksum),
      pin_matched ? "true" : "false", tally.last.summary.c_str());
  bool finite = true;
  std::string metrics;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(v);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name,
                  std::isfinite(v) ? v : 0.0, d.unit);
    metrics += buf;
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0 && finite;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              tally.attempted == 0 ? std::size_t{1} : tally.attempted,
              tally.attempted == 0 ? std::size_t{1} : tally.failed,
              metrics.c_str());
  std::fflush(stdout);
}

void measure(const Args& args, Workload& w) {
  const Clock::time_point start = Clock::now();
  Tally tally;
  tally.reference = args.expect;
  // Host times as measured, and scaled to the reference host speed by the
  // reference computation timed just before each phase (hostref.h).
  std::vector<double> setups_raw;
  std::vector<double> setups;
  std::vector<double> walls_raw;
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<double> refs;
  try {
    do {
      rrsim::workload::TraceCache::global().clear();
      const double ref = reference_seconds(1);
      const Clock::time_point t = Clock::now();
      w.setup();
      setups_raw.push_back(seconds_since(t));
      setups.push_back(setups_raw.back() * kReferenceSeconds / ref);
      refs.push_back(ref);
      std::fprintf(stderr, "setup %zu: %.4f s (reference %.4f s)\n",
                   setups.size(), setups_raw.back(), ref);
    } while (setups.size() < kMinSetups ||
             (seconds_since(start) < kSetupShare * args.seconds &&
              setups.size() < kMaxSetups));
  } catch (const std::exception& e) {
    tally.fail(e);
  }
  while (!setups.empty() &&
         (tally.attempted < kMinRuns || seconds_since(start) < args.seconds)) {
    try {
      const double ref = reference_seconds(w.workers());
      const RunOutcome out = w.run();
      std::fprintf(stderr, "timed run %zu: %.4f s (reference %.4f s)\n",
                   tally.attempted + 1, out.seconds, ref);
      if (tally.check(out)) {
        const double scaled = out.seconds * kReferenceSeconds / ref;
        walls_raw.push_back(out.seconds);
        walls.push_back(scaled);
        rates.push_back(static_cast<double>(out.jobs) / scaled);
        refs.push_back(ref);
      }
    } catch (const std::exception& e) {
      tally.fail(e);
    }
  }
  const std::map<std::string, double> values = {
      {"wall_s", median(walls)},
      {"jobs_per_s", median(rates)},
      {"setup_s", median(setups)},
      {"peak_rss_mb", peak_rss_mb()},
  };
  const HostTimes host{median(walls_raw), median(setups_raw), median(refs)};
  print_result(args, w, tally, kEndToEnd, values, setups.size(), host);
}

void traced(const Args& args, Workload& w) {
  Tracer tracer;
  Layers layers;
  Tally tally;
  tally.reference = args.expect;
  try {
    Tracer::Scope root(tracer, "bench.traced_run");
    std::uint64_t generated = 0;
    {
      Tracer::Scope s(tracer, "workload.generate");
      generated = w.generate(tracer, layers);
    }
    const double generate_s = tracer.total("workload.generate") -
                              tracer.total("workload.calibrate_params");
    layers["workload.generate_s"] = generate_s;
    layers["workload.ns_per_job"] =
        generate_s * 1e9 / static_cast<double>(generated == 0 ? 1 : generated);
    layers["workload.calibrate_s"] = tracer.total("workload.calibrate_params");
    rrsim::workload::TraceCache::global().clear();
    {
      Tracer::Scope s(tracer, "core.setup");
      w.setup();
    }
    // The untraced reference: the same timed phase, no span inside it.
    layers["host.reference_s"] = reference_seconds(w.workers());
    const RunOutcome untraced = w.run();
    tally.check(untraced);
    layers["trace.wall_untraced_s"] = untraced.seconds;
    tally.check(w.run_traced(tracer, layers));
  } catch (const std::exception& e) {
    tally.fail(e);
  }
  layers["trace.overhead_s"] =
      layers["trace.wall_traced_s"] - layers["trace.wall_untraced_s"];
  layers["trace.spans"] = static_cast<double>(tracer.spans().size());
  if (!args.trace_out.empty() && !tracer.write_json(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    ++tally.failed;
  }
  print_result(args, w, tally, kPerLayer, layers, 1,
               HostTimes{layers["trace.wall_untraced_s"], 0.0,
                         layers["host.reference_s"]});
}

// Scratch directory for the workload's own input files, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::string pattern =
        (std::filesystem::path(parent) / "rrsim-perfbench-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      usage("cannot create a scratch directory under " + parent);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  args.load_at_start = load_average_1m();
  std::string parent = args.scratch;
  if (parent.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    parent = tmp != nullptr && *tmp != '\0' ? tmp : ".";
  }
  const ScratchDir scratch(parent);
  std::unique_ptr<Workload> w;
  try {
    w = make_workload(args.workload, args.seed, args.scale, scratch.path());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot prepare %s: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  if (!w) {
    std::fprintf(stderr, "error: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    traced(args, *w);
  } else {
    measure(args, *w);
  }
  return 0;
}
