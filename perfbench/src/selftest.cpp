// Self-tests of the benchmark's own machinery: the percentile rule, the
// Poisson schedule, the span ledger, and every correctness oracle, which
// must accept a right answer and reject a deliberately wrong one.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "oracles.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::cerr << __FILE__ << ":" << __LINE__ << ": expected " #cond   \
                << "\n";                                                \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

void test_percentile_rule() {
  EXPECT(tail_percentile(1) == 50.0);
  EXPECT(tail_percentile(39) == 50.0);  // too few: median only
  EXPECT(tail_percentile(40) == 75.0);  // 10 samples beyond p75
  EXPECT(tail_percentile(100) == 90.0);
  EXPECT(tail_percentile(999) == 98.0);  // p99 would leave 9 beyond
  EXPECT(tail_percentile(1000) == 99.0);
  EXPECT(tail_percentile(kTailWindow) == 99.0);  // serve.p99_ms is a p99
  EXPECT(tail_percentile(kTailWindow - 1) < 99.0);  // and the fewest for it
  EXPECT(tail_percentile(2000) == 99.5);
  for (const std::size_t n : {40u, 100u, 999u, 1000u, 5000u, 20000u}) {
    EXPECT(samples_beyond(n, tail_percentile(n)) >= kSamplesBeyondTail);
  }
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(percentile_sorted(v, 50.0) == 50.0);
  EXPECT(percentile_sorted(v, 99.0) == 99.0);
  EXPECT(percentile_sorted(v, 100.0) == 100.0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);

  // 0.1 s slices of 10 events (100/s) for 4 s with a burst of 1000 in
  // one second, plus two stragglers that fill no whole window: the median
  // window ignores both.
  std::vector<std::int64_t> slices(42, 10);
  for (int s = 20; s < 30; ++s) slices[s] += 100;
  EXPECT(std::abs(windowed_rate(slices, 0.1, 4) - 100.0) < 1e-9);
  EXPECT(windowed_rate(slices, 0.1, 50) == 0.0);  // windows under a slice

  // 3000 samples in time order: windows of 1000, each with one 100 ms
  // outlier per 100 samples except the last, which has a burst of 50.
  std::vector<double> t, lat;
  for (int i = 0; i < 3000; ++i) {
    t.push_back(i);
    const bool slow = i >= 2000 ? i % 20 == 0 : i % 100 == 0;
    lat.push_back(slow ? 100.0 : 1.0 + (i % 7) * 0.1);
  }
  // p99 of a window with 10 outliers in 1000 is a normal sample.
  EXPECT(windowed_percentile(t, lat, 1000, 99.0) < 2.0);
  EXPECT(windowed_percentile(t, lat, 3000, 99.0) == 100.0);
  EXPECT(windowed_percentile(t, lat, 1000, 50.0) < 2.0);
}

void test_poisson_schedule() {
  const auto a = poisson_schedule(7, 500.0, 20000, 1234);
  const auto b = poisson_schedule(7, 500.0, 20000, 1234);
  const auto c = poisson_schedule(8, 500.0, 20000, 1234);
  bool same = true, differs = false, ordered = true, in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= a[i].due_s == b[i].due_s && a[i].node == b[i].node;
    differs |= a[i].due_s != c[i].due_s;
    ordered &= i == 0 || a[i].due_s > a[i - 1].due_s;
    in_range &= a[i].node >= 0 && a[i].node < 1234;
  }
  EXPECT(same);      // reproducible from its seed
  EXPECT(differs);   // and the seed matters
  EXPECT(ordered);
  EXPECT(in_range);
  // Mean gap 1/rate; the exponential's std/mean is 1, so 20000 gaps
  // put the sample mean within ~2.1% at 3 sigma.
  const double mean_gap = a.back().due_s / static_cast<double>(a.size());
  EXPECT(std::abs(mean_gap * 500.0 - 1.0) < 0.03);
  // Poisson: the gap's coefficient of variation is 1.
  double sum_sq = 0.0;
  for (std::size_t i = 1; i < a.size(); ++i) {
    const double g = a[i].due_s - a[i - 1].due_s - mean_gap;
    sum_sq += g * g;
  }
  const double cv = std::sqrt(sum_sq / static_cast<double>(a.size())) /
                    mean_gap;
  EXPECT(std::abs(cv - 1.0) < 0.05);
}

void test_ledger() {
  // stage [0,100] > a.x [10,40] > b.y [20,30]; stage > c.z [50,60].
  std::vector<Span> spans(4);
  spans[0] = {"stage.s", 0, 100'000'000, -1, {}};
  spans[1] = {"a.x", 10'000'000, 40'000'000, 0, {}};
  spans[2] = {"b.y", 20'000'000, 30'000'000, 1, {}};
  spans[3] = {"c.z", 50'000'000, 60'000'000, 0, {}};
  const auto rows = build_ledger(spans);
  EXPECT(rows.size() == 1);
  if (rows.size() != 1) return;
  const auto& r = rows[0];
  EXPECT(r.stage == "s");
  EXPECT(std::abs(r.wall_ms - 100.0) < 1e-9);
  EXPECT(std::abs(r.module_ms.at("a") - 20.0) < 1e-9);  // 30 minus child
  EXPECT(std::abs(r.module_ms.at("b") - 10.0) < 1e-9);
  EXPECT(std::abs(r.module_ms.at("c") - 10.0) < 1e-9);
  EXPECT(std::abs(r.unattributed_ms - 60.0) < 1e-9);
  double sum = r.unattributed_ms;
  for (const auto& [m, ms] : r.module_ms) sum += ms;
  EXPECT(std::abs(sum - r.wall_ms) < 1e-9);  // the ledger adds up
}

gsoup::Tensor tensor(std::vector<float> v) {
  const auto n = static_cast<std::int64_t>(v.size());
  return gsoup::Tensor::from_vector(v, {n});
}

/// Three ingredients of two one-tensor layers.
std::vector<gsoup::Ingredient> make_ingredients() {
  const float w[3][4] = {{1.0f, -2.0f, 0.5f, 3.0f},
                         {2.0f, -1.0f, 0.0f, 1.0f},
                         {4.0f, -4.0f, 1.5f, 2.0f}};
  std::vector<gsoup::Ingredient> out(3);
  for (int i = 0; i < 3; ++i) {
    out[i].params.add("layers.0.weight", tensor({w[i][0], w[i][1]}), 0);
    out[i].params.add("layers.1.weight", tensor({w[i][2], w[i][3]}), 1);
    out[i].val_acc = 0.5 + 0.1 * i;
  }
  return out;
}

gsoup::ParamStore mix(const std::vector<gsoup::Ingredient>& ings,
                      const std::vector<std::vector<float>>& weights) {
  gsoup::ParamStore out;
  for (const auto& e : ings[0].params.entries()) {
    const auto& wg = weights[static_cast<std::size_t>(e.layer)];
    std::vector<float> v(static_cast<std::size_t>(e.tensor.numel()), 0.0f);
    for (std::size_t k = 0; k < v.size(); ++k) {
      for (std::size_t i = 0; i < ings.size(); ++i) {
        v[k] += wg[i] * ings[i].params.get(e.name).data()[k];
      }
    }
    out.add(e.name, tensor(v), e.layer);
  }
  return out;
}

void test_oracles() {
  const auto ings = make_ingredients();
  const std::vector<std::vector<float>> uniform(
      2, std::vector<float>(3, 1.0f / 3.0f));
  const std::vector<std::vector<float>> learned = {{0.2f, 0.5f, 0.3f},
                                                   {0.7f, 0.1f, 0.2f}};
  const auto us = mix(ings, uniform);
  const auto ls = mix(ings, learned);
  EXPECT(check_convex(us, ings).ok);
  EXPECT(check_convex(ls, ings).ok);
  EXPECT(check_weighted_sum(us, ings, uniform).ok);
  EXPECT(check_weighted_sum(ls, ings, learned).ok);
  EXPECT(check_simplex(learned).ok);
  // A non-convex soup: one element past the ingredients' maximum.
  auto bad = ls.clone();
  bad.get_mutable("layers.0.weight").data()[0] = 4.5f;
  EXPECT(!check_convex(bad, ings).ok);
  EXPECT(!check_weighted_sum(bad, ings, learned).ok);
  // The right soup against the wrong weights.
  EXPECT(!check_weighted_sum(ls, ings, uniform).ok);
  // Weights off the simplex.
  EXPECT(!check_simplex({{0.6f, 0.6f, -0.2f}}).ok);
  EXPECT(!check_simplex({{0.3f, 0.3f, 0.3f}}).ok);

  EXPECT(check_gis(0.7, ings, 2 * 30, 30).ok);
  EXPECT(!check_gis(0.69, ings, 2 * 30, 30).ok);  // below best ingredient
  EXPECT(!check_gis(0.7, ings, 2 * 30 - 1, 30).ok);
  EXPECT(check_pls_memory(100, 101).ok);
  EXPECT(!check_pls_memory(101, 101).ok);

  auto flipped = ls.clone();
  std::uint32_t bits;
  float* p = flipped.get_mutable("layers.1.weight").data();
  std::memcpy(&bits, p, 4);
  bits ^= 1u;  // lowest mantissa bit
  std::memcpy(p, &bits, 4);
  EXPECT(check_bit_identical(ls, ls.clone()).ok);
  EXPECT(!check_bit_identical(ls, flipped).ok);

  // Logits of 3 nodes x 3 classes; node 2's top two are tied.
  const auto logits = gsoup::Tensor::from_vector(
      {2.0f, 0.0f, 1.0f, -1.0f, 3.0f, 0.5f, 1.0f, 1.0f, 0.0f}, {3, 3});
  const std::vector<std::int32_t> labels = {0, 1, 1};
  const std::vector<std::int64_t> nodes = {0, 1, 2};
  EXPECT(std::abs(argmax_accuracy(logits, labels, nodes) - 2.0 / 3.0) <
         1e-12);
  EXPECT(check_accuracy("t", 2.0 / 3.0, logits, labels, nodes).ok);
  EXPECT(!check_accuracy("t", 1.0, logits, labels, nodes).ok);

  // Right answers, including either side of node 2's tie.
  for (const Answer a : {Answer{0, 0, 2.0f}, Answer{1, 1, 3.0f},
                         Answer{2, 0, 1.0f}, Answer{2, 1, 1.0f}}) {
    EXPECT(check_answer(a, logits).ok);
  }
  EXPECT(!check_answer({1, 2, 0.5f}, logits).ok);  // flipped label
  EXPECT(!check_answer({1, 1, 3.1f}, logits).ok);  // wrong score
  EXPECT(!check_answer({2, 2, 0.0f}, logits).ok);  // not among the tied
  EXPECT(!check_answer({5, 0, 0.0f}, logits).ok);  // no such node
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_percentile_rule();
  perfbench::test_poisson_schedule();
  perfbench::test_ledger();
  perfbench::test_oracles();
  if (perfbench::failures > 0) {
    std::cerr << perfbench::failures << " self-test expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
