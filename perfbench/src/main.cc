// perfbench_runner: runs one benchmark workload in this process, on this
// thread, and prints one JSON object on stdout with every metric it
// measured, the query tallies, the result digest and the build's
// provenance. run.py turns that into the benchmark's result line.
//
//   perfbench_runner --workload paper-churn --seed 1 --seconds 10 --trace 0
//
// Refuses to run unless built as Release.

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "sketch/fm_sketch.h"
#include "stats.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <n> [--trace 0|1]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Metric names and units are plain identifiers; failure reasons may carry
// library messages, so strings are escaped.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseUint(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<uint32_t>(number);
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      options.traced = number == 1;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench_runner: refusing to measure a '%s' build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 3;
  }

  perfbench::Report report;
  std::string error;
  if (!perfbench::RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "perfbench_runner: %s\n", error.c_str());
    return 1;
  }
  report.Add("peak_rss_mb", PeakRssMb(), "MB");

  std::string out = "{\"workload\": " + Quote(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"result_digest\": " +
                    Quote(perfbench::Hex(report.result_digest)) +
                    ", \"provenance\": {\"build_type\": " + Quote(build_type) +
                    ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
                    ", \"sketch_kernel\": " +
                    Quote(validity::sketch::ActiveSketchKernel()) +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    "}, \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    out += (i ? ", " : "") + Quote(report.failures[i]);
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    out += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " +
           Number(m.value) + ", \"unit\": " + Quote(m.unit) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  return 0;
}
