#include "layers.hpp"

#include <algorithm>

#include "ag/graph_ops.hpp"
#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "core/alpha.hpp"
#include "partition/union_subgraph.hpp"
#include "schedule.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "train/metrics.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gsoup::Arch;
using gsoup::GraphContext;
using gsoup::Tensor;

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

/// Median wall time of `reps` calls of `fn`, after one warm-up call.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  fn();
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median(std::move(ms));
}

Tensor random_tensor(std::int64_t rows, std::int64_t cols,
                     SeedStream& rng) {
  Tensor t = Tensor::empty({rows, cols});
  float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }
  return t;
}

struct TapeTimes {
  double forward_ms = 0.0;
  double backward_ms = 0.0;
  std::size_t peak_bytes = 0;
};

/// One Learned-Souping epoch on the tape, timed in its two directions:
/// soup values -> GnnModel::forward (timed) -> validation loss ->
/// ag::backward (timed). Median of `reps` after a warm-up epoch.
TapeTimes tape_epoch(const gsoup::GnnModel& model, const GraphContext& ctx,
                     const gsoup::Dataset& data,
                     std::span<const gsoup::Ingredient> ingredients,
                     const gsoup::AlphaSet& alphas, int reps) {
  const auto val_nodes = data.split_nodes(gsoup::Split::kVal);
  const gsoup::ag::Value features = gsoup::ag::constant(data.features);
  std::vector<double> fwd, bwd;
  TapeTimes out;
  for (int r = 0; r <= reps; ++r) {
    gsoup::PeakMemoryScope mem;
    const auto values = alphas.build_soup_values(ingredients);
    const std::int64_t t0 = now_ns();
    const auto logits = model.forward(ctx, features, values);
    const double f = ms_since(t0);
    const auto loss = gsoup::ag::cross_entropy(logits, data.labels,
                                               val_nodes);
    const std::int64_t t1 = now_ns();
    gsoup::ag::backward(loss);
    const double b = ms_since(t1);
    for (const auto& l : alphas.logits()) l->clear_grad();
    if (r == 0) {
      out.peak_bytes = mem.peak_above_entry();
      continue;
    }
    fwd.push_back(f);
    bwd.push_back(b);
  }
  out.forward_ms = median(std::move(fwd));
  out.backward_ms = median(std::move(bwd));
  return out;
}

}  // namespace

void measure_layers(const LayerInputs& in, Tracer& tracer, MetricList& out) {
  ScopedSpan stage(tracer, "stage.layers");
  SeedStream rng(derive_seed(in.seed, kSeedLayers));
  gsoup::Rng lib_rng(derive_seed(in.seed, kSeedLayers));
  const GraphContext& ctx = *in.ctx;
  const gsoup::Dataset& data = in.data;
  const auto& cfg = in.model.config();
  const std::int64_t n = data.num_nodes();
  const std::int64_t edges = data.num_edges();
  const auto num_ingredients =
      static_cast<std::int64_t>(in.ingredients.size());

  // --- partition / nn: one PLS subgraph draw and its context.
  gsoup::Subgraph sub;
  {
    ScopedSpan span(tracer, "partition.partition_union_subgraph");
    out.push_back({"partition.union_subgraph_ms", median_ms(5, [&] {
                     const auto selected = gsoup::sample_partitions(
                         kPlsParts, kPlsBudget, lib_rng);
                     sub = gsoup::partition_union_subgraph(
                         data, in.partitioning, selected);
                   }),
                   "ms"});
    span.arg("nodes", static_cast<double>(sub.data.num_nodes()));
    span.arg("edges", static_cast<double>(sub.data.num_edges()));
  }
  // A draw without validation nodes has no loss; redraw like PLS does.
  for (int attempt = 0;
       attempt < 8 && sub.data.split_size(gsoup::Split::kVal) == 0;
       ++attempt) {
    const auto selected =
        gsoup::sample_partitions(kPlsParts, kPlsBudget, lib_rng);
    sub = gsoup::partition_union_subgraph(data, in.partitioning, selected);
  }
  std::unique_ptr<GraphContext> sub_ctx;
  {
    ScopedSpan span(tracer, "nn.graph_context_subgraph");
    out.push_back({"nn.subgraph_context_build_ms", median_ms(5, [&] {
                     sub_ctx = std::make_unique<GraphContext>(
                         sub.data.graph, cfg.arch);
                   }),
                   "ms"});
    span.arg("nodes", static_cast<double>(sub.data.num_nodes()));
  }

  // --- nn / core / train: the souping inner loop's calls.
  {
    ScopedSpan span(tracer, "nn.param_interpolate");
    out.push_back({"nn.interpolate_ms", median_ms(20, [&] {
                     const auto mixed = gsoup::ParamStore::interpolate(
                         in.ingredients[0].params, in.ingredients[1].params,
                         0.5f);
                   }),
                   "ms"});
  }
  {
    ScopedSpan span(tracer, "train.evaluate_split");
    out.push_back({"train.evaluate_split_ms", median_ms(5, [&] {
                     gsoup::evaluate_split(in.model, ctx, data, in.soup,
                                           gsoup::Split::kVal);
                   }),
                   "ms"});
  }
  const gsoup::AlphaSet alphas(in.ingredients.front().params,
                               num_ingredients,
                               gsoup::AlphaGranularity::kLayer, lib_rng);
  {
    ScopedSpan span(tracer, "core.build_soup_values");
    out.push_back({"core.build_soup_values_ms", median_ms(10, [&] {
                     const auto values =
                         alphas.build_soup_values(in.ingredients);
                   }),
                   "ms"});
  }

  // --- ag: tape forward/backward of the souping loss, full graph and
  // one PLS subgraph.
  {
    ScopedSpan span(tracer, "ag.tape_epoch_full");
    const TapeTimes full =
        tape_epoch(in.model, ctx, data, in.ingredients, alphas, 5);
    out.push_back({"ag.forward_ms", full.forward_ms, "ms"});
    out.push_back({"ag.backward_ms", full.backward_ms, "ms"});
    out.push_back({"ag.epoch_peak_bytes",
                   static_cast<double>(full.peak_bytes), "bytes"});
  }
  {
    ScopedSpan span(tracer, "ag.tape_epoch_subgraph");
    const TapeTimes part =
        tape_epoch(in.model, *sub_ctx, sub.data, in.ingredients, alphas, 5);
    out.push_back({"ag.sub_forward_ms", part.forward_ms, "ms"});
    out.push_back({"ag.sub_backward_ms", part.backward_ms, "ms"});
  }

  // --- ag kernels at the workload's shapes. GAT contexts carry no
  // weighted adjacency, so SpMM there runs over a GCN context of the same
  // graph; non-GAT workloads time attention over a GAT context likewise.
  std::unique_ptr<GraphContext> spmm_owned, attn_owned;
  const GraphContext* spmm_ctx = &ctx;
  const GraphContext* attn_ctx = &ctx;
  if (cfg.arch == Arch::kGat) {
    spmm_owned = std::make_unique<GraphContext>(ctx.shared_plan(), Arch::kGcn);
    spmm_ctx = spmm_owned.get();
  } else {
    attn_owned = std::make_unique<GraphContext>(ctx.shared_plan(), Arch::kGat);
    attn_ctx = attn_owned.get();
  }
  {
    ScopedSpan span(tracer, "ag.spmm");
    const std::int64_t d = cfg.arch == Arch::kGat
                               ? cfg.hidden_dim * cfg.heads
                               : cfg.hidden_dim;
    const bool sage = cfg.arch == Arch::kSage;
    const gsoup::Csr& a = sage ? spmm_ctx->mean() : spmm_ctx->gcn();
    const gsoup::Csr& at = sage ? spmm_ctx->mean_t() : spmm_ctx->gcn_t();
    const auto x = gsoup::ag::constant(random_tensor(n, d, rng));
    gsoup::ag::NoGradGuard no_grad;
    const double ms = median_ms(10, [&] {
      const auto y = gsoup::ag::spmm(a, at, x, spmm_ctx->spmm_layout(),
                                     spmm_ctx->spmm_layout_t());
    });
    // Bytes a single pass must move: CSR structure and weights, one
    // gathered source row per edge, one written output row per node.
    const double bytes = 8.0 * static_cast<double>(n + 1) +
                         8.0 * static_cast<double>(edges) +
                         4.0 * static_cast<double>(edges * d) +
                         4.0 * static_cast<double>(n * d);
    out.push_back({"ag.spmm_ms", ms, "ms"});
    out.push_back({"ag.spmm_gbps", bytes / (ms * 1e-3) * 1e-9, "GB/s"});
    span.arg("nodes", static_cast<double>(n));
    span.arg("edges", static_cast<double>(edges));
    span.arg("width", static_cast<double>(d));
  }
  {
    ScopedSpan span(tracer, "ag.gat_attention");
    // The GAT cell's hidden layer: 4 heads of width 16.
    const std::int64_t heads = 4, d = 16;
    const auto h = gsoup::ag::make_leaf(random_tensor(n, heads * d, rng),
                                        true);
    const auto sd = gsoup::ag::make_leaf(random_tensor(n, heads, rng), true);
    const auto ss = gsoup::ag::make_leaf(random_tensor(n, heads, rng), true);
    std::vector<double> fwd, bwd;
    for (int r = 0; r <= 5; ++r) {
      const std::int64_t t0 = now_ns();
      const auto y = gsoup::ag::gat_attention(
          attn_ctx->raw(), attn_ctx->raw_t(), h, sd, ss, heads, 0.2f,
          attn_ctx->attn_layout(), attn_ctx->attn_layout_t());
      const double f = ms_since(t0);
      const auto loss = gsoup::ag::sum(y);
      const std::int64_t t1 = now_ns();
      gsoup::ag::backward(loss);
      const double b = ms_since(t1);
      h->clear_grad();
      sd->clear_grad();
      ss->clear_grad();
      if (r == 0) continue;  // warm-up
      fwd.push_back(f);
      bwd.push_back(b);
    }
    out.push_back({"ag.gat_attention_ms", median(fwd), "ms"});
    out.push_back({"ag.gat_attention_bwd_ms", median(bwd), "ms"});
    span.arg("edges", static_cast<double>(edges));
    span.arg("heads", static_cast<double>(heads));
  }

  // --- tensor: the first layer's dense transform.
  {
    ScopedSpan span(tracer, "tensor.matmul");
    const Tensor w = random_tensor(cfg.in_dim, cfg.hidden_dim, rng);
    const double ms = median_ms(10, [&] {
      const Tensor y = gsoup::ops::matmul(data.features, w);
    });
    const double flops = 2.0 * static_cast<double>(n) *
                         static_cast<double>(cfg.in_dim) *
                         static_cast<double>(cfg.hidden_dim);
    out.push_back({"tensor.matmul_ms", ms, "ms"});
    out.push_back({"tensor.matmul_gflops", flops / (ms * 1e-3) * 1e-9,
                   "GFLOP/s"});
  }

  // --- exec: the serving engine's two query paths.
  {
    ScopedSpan span(tracer, "exec.full_logits");
    gsoup::serve::InferenceEngine engine(cfg, in.soup, in.ctx, data.features,
                                         gsoup::serve::QueryMode::kCachedFull);
    out.push_back({"exec.full_forward_ms", median_ms(5, [&] {
                     engine.invalidate();
                     engine.full_logits();
                   }),
                   "ms"});
  }
  {
    ScopedSpan span(tracer, "exec.query");
    gsoup::serve::InferenceEngine engine(cfg, in.soup, in.ctx, data.features,
                                         gsoup::serve::QueryMode::kSubgraph);
    constexpr std::int64_t kBatch = 64;
    std::vector<std::int64_t> batch(kBatch);
    auto draw = [&] {
      for (auto& v : batch) v = rng.below(n);
    };
    Tensor logits = Tensor::empty({kBatch, cfg.out_dim});
    out.push_back({"exec.query_batch_ms", median_ms(20, [&] {
                     draw();
                     engine.query(batch, logits);
                   }),
                   "ms"});
    std::vector<double> nodes;
    for (int r = 0; r < 5; ++r) {
      draw();
      const auto plan = engine.compile_query_plan(batch);
      std::int64_t widest = 0;
      for (const auto& layer : plan->layers) {
        widest = std::max(widest, layer.num_src());
      }
      nodes.push_back(static_cast<double>(widest));
    }
    out.push_back({"exec.query_subgraph_nodes", median(nodes), "count"});
    span.arg("batch", static_cast<double>(kBatch));
  }
}

}  // namespace perfbench
