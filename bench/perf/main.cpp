// bench_perf entry point: argument parsing, run hygiene, the output header,
// and the result lines. See perf.h for the workloads and README.md for the
// metrics.
//
//   bench_perf --workload <ladder|cutgap|failures|adversary|serve>
//              [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//              [--work-dir <dir>] [--commit <id>]
//
// Output: '#' header and note lines, one "<workload> <metric> <value>
// <unit>" line per metric, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// check passed, 1 when any failed (or the workload threw), 2 on usage or
// hygiene errors (a TOPOBENCH_* variable set, a non-Release build).
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "perf.h"
#include "util/json.h"
#include "util/thread_pool.h"

extern char** environ;

namespace {

constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_perf: %s\n"
               "usage: bench_perf --workload "
               "<ladder|cutgap|failures|adversary|serve> [--seed <u64>]\n"
               "                  [--seconds <s>] [--trace <0|1>] "
               "[--work-dir <dir>] [--commit <id>]\n",
               why);
  return kExitUsage;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || s[0] == '-') return false;
  out = v;
  return true;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options opts;
  std::string commit = "unknown";
  opts.work_dir = "build-perf/work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, opts.seed)) return usage("--seed needs a u64");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(opts.seconds > 0.0)) {
        return usage("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opts.trace = val[0] == '1';
    } else if (arg == "--work-dir") {
      opts.work_dir = val;
    } else if (arg == "--commit") {
      commit = val;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  using Workload = void (*)(const perf::Options&, perf::Report&);
  Workload run = nullptr;
  if (opts.workload == "ladder") run = perf::run_ladder;
  if (opts.workload == "cutgap") run = perf::run_cutgap;
  if (opts.workload == "failures") run = perf::run_failures;
  if (opts.workload == "adversary") run = perf::run_adversary;
  if (opts.workload == "serve") run = perf::run_serve;
  if (run == nullptr) return usage("unknown or missing --workload");
  opts.trace_file = opts.work_dir + "/trace-" + opts.workload + "-" +
                    std::to_string(opts.seed) + ".json";

  // Hygiene: the library's environment knobs would change what runs (pool
  // size, shard, store), and only an optimized build measures anything.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TOPOBENCH_", 10) == 0) {
      std::fprintf(stderr, "bench_perf: refusing to run with %s set\n", *e);
      return kExitUsage;
    }
  }
  if (std::strcmp(PERF_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "bench_perf: build type is '%s', not Release\n",
                 PERF_BUILD_TYPE);
    return kExitUsage;
  }
  // A server that dies mid-request must surface as an error, not a signal.
  std::signal(SIGPIPE, SIG_IGN);

  std::printf(
      "# bench_perf workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "pool_threads=%zu compiler=\"%s\" build=%s commit=%s\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, std::thread::hardware_concurrency(),
      tb::ThreadPool::shared().size(), compiler(), PERF_BUILD_TYPE,
      commit.c_str());
  std::fflush(stdout);

  perf::Report report;
  try {
    std::filesystem::create_directories(opts.work_dir);
    run(opts, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return kExitFailed;
  }

  for (const std::string& note : report.notes()) {
    std::printf("# %s\n", note.c_str());
  }
  if (opts.trace) std::printf("# trace_file %s\n", opts.trace_file.c_str());
  std::printf("# fail_ratio %.17g\n",
              report.attempted > 0
                  ? static_cast<double>(report.failed) / report.attempted
                  : 1.0);
  tb::json::Value metrics = tb::json::Value::object();
  for (const perf::Metric& m : report.metrics()) {
    std::printf("%s %s %.17g %s\n", opts.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    tb::json::Value v = tb::json::Value::object();
    v.set("value", tb::json::Value::number_v(m.value));
    v.set("unit", tb::json::Value::string_v(m.unit));
    metrics.set(m.name, std::move(v));
  }
  const bool correct =
      report.correct() && report.failed == 0 && report.attempted > 0;
  tb::json::Value out = tb::json::Value::object();
  out.set("correct", tb::json::Value::boolean_v(correct));
  out.set("attempted",
          tb::json::Value::number_v(static_cast<double>(report.attempted)));
  out.set("failed",
          tb::json::Value::number_v(static_cast<double>(report.failed)));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", tb::json::dump(out).c_str());
  return correct ? 0 : kExitFailed;
}
