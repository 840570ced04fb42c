// Per-layer measurements of the traced run: each times one public call
// of a library module at the workload's shapes (median of repeats after a
// warm-up call), from outside the library.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pls.hpp"
#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "trace.hpp"
#include "train/ingredient_farm.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

struct LayerInputs {
  const gsoup::GnnModel& model;
  std::shared_ptr<const gsoup::GraphContext> ctx;
  const gsoup::Dataset& data;
  std::span<const gsoup::Ingredient> ingredients;
  const gsoup::ParamStore& soup;           ///< the served soup
  const gsoup::Partitioning& partitioning; ///< from the last PLS trial
  std::uint64_t seed = 0;
};

/// Append the module-level metrics measured by direct calls (ag.*,
/// tensor.*, exec.*, nn.*, core.build_soup_values_ms,
/// partition.union_subgraph_ms, train.evaluate_split_ms) to `out`.
void measure_layers(const LayerInputs& in, Tracer& tracer, MetricList& out);

}  // namespace perfbench
