// OpenMP start-up guard. In some fresh processes every OpenMP parallel
// region stalls for milliseconds during the first second or so, while the
// steady cost of an empty region is a few microseconds; a stage timed in
// that window reports the stall, not the work. Before the first timed
// stage the benchmark runs empty regions until no region has stalled for
// a quiet window, up to a fixed bound, and reports what it saw.
#pragma once

#include <cstdint>

namespace perfbench {

struct OmpGuardResult {
  double region_us = 0.0;       ///< median empty-region time, last window
  double worst_us = 0.0;        ///< slowest region seen
  std::int64_t regions = 0;     ///< regions run
  std::int64_t stall_regions = 0;  ///< regions slower than 500 us
  double waited_s = 0.0;        ///< time spent in the guard
  bool bound_hit = false;       ///< still stalling when the bound ran out
};

/// Runs empty regions until none has stalled (> 500 us) for 0.2 s, for
/// at most 3 s; `bound_hit` flags a run still stalling at the bound.
OmpGuardResult settle_openmp();

}  // namespace perfbench
