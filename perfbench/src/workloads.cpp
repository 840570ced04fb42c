#include "workloads.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  using gsoup::Arch;
  using gsoup::serve::QueryMode;
  // Souping trials grow as a trial gets cheaper, so each median rests on
  // more samples where a sample is short and noisy. Open-loop rates are
  // well below each server's capacity at the batch sizes they produce.
  static const std::vector<Workload> kWorkloads = {
      {.name = "products-sage",
       .preset = 3,
       .arch = Arch::kSage,
       .soup_trials = 5,
       .mode = QueryMode::kSubgraph,
       .open_rate_qps = 800.0},
      {.name = "reddit-gat",
       .preset = 2,
       .arch = Arch::kGat,
       .soup_trials = 7,
       .mode = QueryMode::kCachedFull,
       .open_rate_qps = 20000.0},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
