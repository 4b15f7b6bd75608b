// The benchmark's three workloads. Each runs single-threaded, does a fixed
// amount of simulated work derived from (seed, seconds), and reports every
// end-to-end and per-layer metric it measures (README.md maps each metric
// to its layer and the public call it times).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the number of passes over the fixed query list: about this many
  /// host seconds of untraced work at the workload's nominal rate. The
  /// passes, not the clock, end the run.
  uint32_t seconds = 10;
  /// Also run every query traced (per-layer spans) next to its untraced
  /// run, and cross-check the two.
  bool traced = false;
};

/// Runs the timed passes, each after a timed set-up (the fastest is
/// reported), traced too when asked, and the correctness checks. False
/// (with `error`) only when the workload name is unknown or the run cannot
/// report valid figures; query failures are counted in the report instead.
bool RunWorkload(const RunOptions& options, Report* report,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
