// The benchmark's workloads: which dataset preset, architecture, number of
// souping trials and serving mode each one runs. Why each exists is
// written in BENCHMARK.json and the README.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/graph_context.hpp"
#include "serve/engine.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  int preset = 0;  ///< paper_dataset_specs index: 2 reddit, 3 products
  gsoup::Arch arch = gsoup::Arch::kGcn;
  std::int64_t soup_trials = 3;   ///< GIS/LS/PLS trials, distinct seeds
  gsoup::serve::QueryMode mode = gsoup::serve::QueryMode::kSubgraph;
  double open_rate_qps = 500.0;   ///< open loop, fixed Poisson rate
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Settings shared by every workload.
inline constexpr std::int64_t kIngredients = 4;  ///< N
inline constexpr std::int64_t kLanes = 4;        ///< W, farm worker lanes
inline constexpr int kOmpThreads = 4;  ///< OMP_NUM_THREADS for the whole run
/// One worker: a kSubgraph worker runs each batch on its own OpenMP team
/// of kOmpThreads, so a second worker would put twice as many compute
/// threads as there are cores on the machine.
inline constexpr std::size_t kServerWorkers = 1;
inline constexpr std::int64_t kIngredientEpochs = 40;
inline constexpr std::int64_t kGisGranularity = 30;
inline constexpr std::int64_t kLsEpochs = 40;
inline constexpr std::int64_t kPlsEpochs = 60;
inline constexpr std::int64_t kPlsParts = 32;    ///< K
inline constexpr std::int64_t kPlsBudget = 8;    ///< R
inline constexpr double kDatasetScale = 1.0;
/// Closed loop: 2 clients keeping 64 queries outstanding each, two full
/// batches (ServerConfig::max_batch): one in the worker, one queued.
inline constexpr int kClosedClients = 2;
inline constexpr int kClosedWindow = 64;

}  // namespace perfbench
