#include "omp_guard.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {
constexpr double kStallUs = 500.0;  // a region slower than this is a stall
constexpr double kQuietS = 0.2;     // steady once no stall for this long
constexpr double kBoundS = 3.0;     // give up (and flag the run) after this
}  // namespace

OmpGuardResult settle_openmp() {
  OmpGuardResult r;
  std::atomic<int> sink{0};
  const std::int64_t start = now_ns();
  std::int64_t last_stall = start;
  std::vector<double> window;  // region times since the last stall
  for (;;) {
    const std::int64_t t0 = now_ns();
#pragma omp parallel
    { sink.fetch_add(1, std::memory_order_relaxed); }
    const std::int64_t t1 = now_ns();
    const double us = static_cast<double>(t1 - t0) * 1e-3;
    ++r.regions;
    r.worst_us = std::max(r.worst_us, us);
    if (us > kStallUs) {
      ++r.stall_regions;
      last_stall = t1;
      window.clear();
    } else {
      window.push_back(us);
    }
    const double elapsed = static_cast<double>(t1 - start) * 1e-9;
    const double quiet = static_cast<double>(t1 - last_stall) * 1e-9;
    // last_stall starts at `start`, so a quiet window also means the guard
    // ran at least that long.
    if (quiet >= kQuietS) break;
    if (elapsed >= kBoundS) {
      r.bound_hit = true;
      break;
    }
  }
  r.waited_s = static_cast<double>(now_ns() - start) * 1e-9;
  r.region_us = median(std::move(window));
  return r;
}

}  // namespace perfbench
