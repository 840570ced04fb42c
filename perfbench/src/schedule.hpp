// Seeded input streams for the pipeline benchmark: a splitmix64 stream
// (kept here, apart from the library's own Rng, so that a change to the
// program under test cannot change the benchmark's inputs), per-purpose
// seed derivation, and the open-loop Poisson arrival schedule.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, fast, and fully determined by its seed.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n).
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_;
};

/// Independent seed for one named purpose of a run ("dataset", "farm",
/// "soup", "queries", ...): the run seed and the purpose tag are mixed
/// through splitmix64, so streams never share state.
inline std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t tag) {
  SeedStream s(run_seed * 0x2545f4914f6cdd1dULL + tag);
  s.next();
  return s.next();
}

/// Purpose tags for derive_seed.
enum SeedTag : std::uint64_t {
  kSeedDataset = 1,
  kSeedFarm = 2,
  kSeedSoup = 3,
  kSeedClosedLoop = 4,
  kSeedOpenLoop = 5,
  kSeedLayers = 6,
};

/// One open-loop arrival: when the query is due (seconds from the start
/// of the phase) and which node it asks about.
struct Arrival {
  double due_s = 0.0;
  std::int64_t node = 0;
};

/// `count` Poisson arrivals at `rate_qps` (exponential inter-arrival
/// gaps) over uniform node ids in [0, num_nodes). Same arguments, same
/// schedule.
inline std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                             double rate_qps,
                                             std::int64_t count,
                                             std::int64_t num_nodes) {
  SeedStream rng(seed);
  std::vector<Arrival> out(static_cast<std::size_t>(count));
  double t = 0.0;
  for (auto& a : out) {
    t += -std::log1p(-rng.uniform()) / rate_qps;
    a.due_s = t;
    a.node = rng.below(num_nodes);
  }
  return out;
}

}  // namespace perfbench
