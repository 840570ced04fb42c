#include "oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

namespace {

Verdict fail(const std::string& what) { return {false, what}; }

/// Each ingredient's data pointer for one parameter.
std::vector<const float*> ingredient_data(
    std::span<const gsoup::Ingredient> ingredients, const std::string& name) {
  std::vector<const float*> out;
  for (const auto& ing : ingredients) {
    out.push_back(ing.params.get(name).data());
  }
  return out;
}

}  // namespace

double argmax_accuracy(const gsoup::Tensor& logits,
                       std::span<const std::int32_t> labels,
                       std::span<const std::int64_t> nodes) {
  const std::int64_t classes = logits.shape(1);
  const float* base = logits.data();
  std::int64_t correct = 0;
  for (const std::int64_t v : nodes) {
    const float* row = base + v * classes;
    const auto best = std::max_element(row, row + classes) - row;
    if (best == labels[static_cast<std::size_t>(v)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

Verdict check_accuracy(const std::string& what, double reported,
                       const gsoup::Tensor& logits,
                       std::span<const std::int32_t> labels,
                       std::span<const std::int64_t> nodes) {
  const double own = argmax_accuracy(logits, labels, nodes);
  if (std::abs(own - reported) > 1e-12) {
    std::ostringstream os;
    os << what << ": reported accuracy " << reported
       << " but the benchmark counts " << own;
    return fail(os.str());
  }
  return {};
}

Verdict check_convex(const gsoup::ParamStore& soup,
                     std::span<const gsoup::Ingredient> ingredients) {
  for (const auto& e : soup.entries()) {
    const float* s = e.tensor.data();
    const auto src = ingredient_data(ingredients, e.name);
    for (std::int64_t k = 0; k < e.tensor.numel(); ++k) {
      float lo = INFINITY, hi = -INFINITY;
      for (const float* p : src) {
        const float w = p[k];
        lo = std::min(lo, w);
        hi = std::max(hi, w);
      }
      const double tol =
          1e-5 * std::max(std::abs(lo), std::abs(hi)) + 1e-8;
      if (!(s[k] >= lo - tol && s[k] <= hi + tol)) {
        std::ostringstream os;
        os << "soup " << e.name << "[" << k << "] = " << s[k]
           << " lies outside the ingredients' range [" << lo << ", " << hi
           << "]";
        return fail(os.str());
      }
    }
  }
  return {};
}

Verdict check_weighted_sum(const gsoup::ParamStore& soup,
                           std::span<const gsoup::Ingredient> ingredients,
                           const std::vector<std::vector<float>>& weights) {
  for (const auto& e : soup.entries()) {
    const auto group = static_cast<std::size_t>(e.layer);
    if (group >= weights.size() ||
        weights[group].size() != ingredients.size()) {
      return fail("no weights for " + e.name);
    }
    const auto& w = weights[group];
    const float* s = e.tensor.data();
    const auto src = ingredient_data(ingredients, e.name);
    for (std::int64_t k = 0; k < e.tensor.numel(); ++k) {
      double ref = 0.0, mag = 0.0;
      for (std::size_t i = 0; i < src.size(); ++i) {
        const double x = src[i][k];
        ref += static_cast<double>(w[i]) * x;
        mag += std::abs(static_cast<double>(w[i]) * x);
      }
      if (std::abs(static_cast<double>(s[k]) - ref) > 1e-5 * mag + 1e-8) {
        std::ostringstream os;
        os << "soup " << e.name << "[" << k << "] = " << s[k]
           << " but the weighted sum in double is " << ref;
        return fail(os.str());
      }
    }
  }
  return {};
}

Verdict check_simplex(const std::vector<std::vector<float>>& weights) {
  if (weights.empty()) return fail("no weight groups");
  for (std::size_t g = 0; g < weights.size(); ++g) {
    double sum = 0.0;
    for (const float w : weights[g]) {
      if (!(w >= 0.0f)) {
        std::ostringstream os;
        os << "group " << g << " has a negative weight " << w;
        return fail(os.str());
      }
      sum += w;
    }
    if (std::abs(sum - 1.0) > 1e-5) {
      std::ostringstream os;
      os << "group " << g << " weights sum to " << sum;
      return fail(os.str());
    }
  }
  return {};
}

Verdict check_gis(double soup_val_acc,
                  std::span<const gsoup::Ingredient> ingredients,
                  std::int64_t evaluations, std::int64_t granularity) {
  double best = 0.0;
  for (const auto& ing : ingredients) best = std::max(best, ing.val_acc);
  const auto expected =
      (static_cast<std::int64_t>(ingredients.size()) - 1) * granularity;
  std::ostringstream os;
  if (soup_val_acc < best) {
    os << "GIS soup validation accuracy " << soup_val_acc
       << " is below the best ingredient's " << best;
    return fail(os.str());
  }
  if (evaluations != expected) {
    os << "GIS ran " << evaluations << " evaluations, expected "
       << expected;
    return fail(os.str());
  }
  return {};
}

Verdict check_pls_memory(std::size_t pls_peak_bytes,
                         std::size_t ls_peak_bytes) {
  if (pls_peak_bytes < ls_peak_bytes) return {};
  std::ostringstream os;
  os << "PLS mix peak " << pls_peak_bytes << " B is not below LS's "
     << ls_peak_bytes << " B";
  return fail(os.str());
}

Verdict check_bit_identical(const gsoup::ParamStore& a,
                            const gsoup::ParamStore& b) {
  if (!gsoup::ParamStore::compatible(a, b)) {
    return fail("parameter names, shapes or layers differ");
  }
  for (const auto& e : a.entries()) {
    const gsoup::Tensor& t = b.get(e.name);
    if (std::memcmp(e.tensor.data(), t.data(), e.tensor.bytes()) != 0) {
      return fail("parameter " + e.name + " differs bitwise");
    }
  }
  return {};
}

Verdict check_answer(const Answer& a, const gsoup::Tensor& reference_logits) {
  const std::int64_t n = reference_logits.shape(0);
  const std::int64_t classes = reference_logits.shape(1);
  if (a.node < 0 || a.node >= n || a.label < 0 || a.label >= classes) {
    std::ostringstream os;
    os << "answer for node " << a.node << " has label " << a.label;
    return fail(os.str());
  }
  const float* row = reference_logits.data() + a.node * classes;
  std::int64_t top = 0;
  for (std::int64_t c = 1; c < classes; ++c) {
    if (row[c] > row[top]) top = c;
  }
  float second = -INFINITY;
  for (std::int64_t c = 0; c < classes; ++c) {
    if (c != top) second = std::max(second, row[c]);
  }
  const double tol = 1e-4 * (1.0 + std::abs(row[top]));
  const bool decisive = row[top] - second > tol;
  if (decisive ? a.label != top : row[a.label] < row[top] - tol) {
    std::ostringstream os;
    os << "node " << a.node << " served label " << a.label
       << " but the reference argmax is " << top << " (margin "
       << row[top] - second << ")";
    return fail(os.str());
  }
  if (std::abs(a.score - row[a.label]) >
      1e-4 * (1.0 + std::abs(row[a.label]))) {
    std::ostringstream os;
    os << "node " << a.node << " served score " << a.score
       << " but the reference logit is " << row[a.label];
    return fail(os.str());
  }
  return {};
}

}  // namespace perfbench
