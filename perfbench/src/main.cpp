// ldmo_perfbench: one workload of the LDMO benchmark per invocation.
//
//   ldmo_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--setup-only] [--smoke]
//
// Prints a "host" line and, as its last line, a JSON object with the keys
// correct, attempted, failed and metrics (each metric with its value, unit
// and sample count). --trace 0 measures the end-to-end metrics, --trace 1
// the per-layer ones; the binary reports what it measured, and
// perfbench/run.py, the benchmark's entry point, checks that against
// BENCHMARK.json and orders it. Exits 1 when an output check fails, 2 on a
// usage error and 3 when built without optimization.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "kernels/kernels.h"
#include "obs/json.h"
#include "runtime/thread_pool.h"
#include "workloads.h"

namespace {

using namespace ldmo;
using namespace ldmo::perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "ldmo_perfbench: %s\n"
               "usage: ldmo_perfbench --workload flow_raw_128px|"
               "flow_cnn_64px_1t|serve_skewed_64px --seed N --seconds S "
               "--trace 0|1 [--setup-only] [--smoke]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
      return line.substr(line.find_first_not_of(" \t", colon + 1));
  }
  return "unknown";
}

std::string host_record() {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("nproc", static_cast<long long>(runtime::hardware_threads()));
  w.kv("cpu_model", cpu_model());
  w.kv("kernel_backend", std::string(kernels::to_string(kernels::active())));
  w.kv("compiler", std::string(LDMO_PERFBENCH_COMPILER));
  w.kv("build_type", std::string(LDMO_PERFBENCH_BUILD_TYPE));
  w.end_object();
  return w.str();
}

bool parse(int argc, char** argv, Args& args, std::string& error) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" || flag == "--seed" ||
               flag == "--seconds" || flag == "--trace") {
      const char* v = value();
      if (v == nullptr) {
        error = flag + " needs a value";
        return false;
      }
      char* end = nullptr;
      if (flag == "--workload") {
        args.workload = v;
      } else if (flag == "--seed") {
        args.seed = std::strtoull(v, &end, 10);
        have_seed = *end == '\0';
      } else if (flag == "--seconds") {
        args.seconds = std::strtod(v, &end);
        have_seconds = *end == '\0' && args.seconds > 0.0;
      } else {
        have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
        args.trace = std::strcmp(v, "1") == 0;
      }
    } else {
      error = "unknown argument " + flag;
      return false;
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = Clock::now();
  std::string error;
  if (!parse(argc, argv, args, error)) return usage(error.c_str());

#ifndef __OPTIMIZE__
  std::fprintf(stderr, "ldmo_perfbench: refusing to report from an "
                       "unoptimized build\n");
  return 3;
#endif
  if (std::string(LDMO_PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "ldmo_perfbench: refusing to report from a '%s' "
                         "build; configure with -DCMAKE_BUILD_TYPE=Release\n",
                 LDMO_PERFBENCH_BUILD_TYPE);
    return 3;
  }

  // flow_raw_128px: ILT dominates; runs at the machine's thread budget.
  // flow_cnn_64px_1t: the paper's CNN-ranked flow, serial.
  RunResult result;
  if (args.workload == "flow_raw_128px") {
    result = run_flow(
        {litho_128px(), /*cnn=*/false, runtime::hardware_threads()}, args);
  } else if (args.workload == "flow_cnn_64px_1t") {
    result = run_flow({litho_64px(), /*cnn=*/true, 1}, args);
  } else if (args.workload == "serve_skewed_64px") {
    result = run_serve(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.trace) result.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);

  if (args.setup_only) result.attempted = 1;  // the one set-up it made

  std::printf("host %s\n", host_record().c_str());
  for (const std::string& why : result.check_failures)
    std::fprintf(stderr, "ldmo_perfbench: check failed: %s\n", why.c_str());

  const bool correct = result.check_failures.empty() && result.failed == 0;
  obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", result.attempted);
  w.kv("failed", result.failed);
  w.key("metrics");
  w.begin_object();
  for (const Metric& m : result.metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.kv("samples", m.samples);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
