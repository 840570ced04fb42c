// Correctness oracles for the pipeline benchmark. Each compares the
// program's output against a computation made apart from it (double
// precision sums, the benchmark's own argmax count) or against a property
// the method must have. None compares against saved output.
//
// Every oracle returns a Verdict; a failed verdict carries the first
// offending value so a broken run says what broke.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/param.hpp"
#include "tensor/tensor.hpp"
#include "train/ingredient_farm.hpp"

namespace perfbench {

struct Verdict {
  bool ok = true;
  std::string what;  ///< empty when ok
};

/// One answered query.
struct Answer {
  std::int64_t node = 0;
  std::int32_t label = -1;
  float score = 0.0f;
};

/// The benchmark's own accuracy: argmax of each `nodes` row of `logits`
/// (first maximum wins) compared with `labels`, as correct / |nodes|.
double argmax_accuracy(const gsoup::Tensor& logits,
                       std::span<const std::int32_t> labels,
                       std::span<const std::int64_t> nodes);

/// `reported` accuracy equals the benchmark's own count.
Verdict check_accuracy(const std::string& what, double reported,
                       const gsoup::Tensor& logits,
                       std::span<const std::int32_t> labels,
                       std::span<const std::int64_t> nodes);

/// Every soup element lies within the ingredients' elementwise
/// [min, max], up to float rounding: a convex combination can do no
/// other.
Verdict check_convex(const gsoup::ParamStore& soup,
                     std::span<const gsoup::Ingredient> ingredients);

/// The soup equals Σ_i w[group(name)][i] · W_i computed in double, where
/// the group of a parameter is its layer. US passes weights 1/N.
Verdict check_weighted_sum(const gsoup::ParamStore& soup,
                           std::span<const gsoup::Ingredient> ingredients,
                           const std::vector<std::vector<float>>& weights);

/// Each group's weights are non-negative and sum to 1.
Verdict check_simplex(const std::vector<std::vector<float>>& weights);

/// GIS keeps a mix only if it does not lose validation accuracy and it
/// evaluates every one of g ratios for each of the N-1 later ingredients.
Verdict check_gis(double soup_val_acc,
                  std::span<const gsoup::Ingredient> ingredients,
                  std::int64_t evaluations, std::int64_t granularity);

/// The paper's memory property: PLS mixes in less memory than LS.
Verdict check_pls_memory(std::size_t pls_peak_bytes,
                         std::size_t ls_peak_bytes);

/// Same names, shapes, layers and bit patterns.
Verdict check_bit_identical(const gsoup::ParamStore& a,
                            const gsoup::ParamStore& b);

/// The served label is the argmax of the node's reference logits row
/// when the row's top-two margin is decisive (otherwise it must be within
/// the margin of the maximum), and the score matches the reference logit
/// of its label within a small tolerance.
Verdict check_answer(const Answer& answer,
                     const gsoup::Tensor& reference_logits);

}  // namespace perfbench
