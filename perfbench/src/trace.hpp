// In-memory span tracer for the pipeline benchmark, and the per-stage
// ledger computed from its spans.
//
// Spans are recorded by the benchmark's own code around each call into
// the library (the library itself is not instrumented here). A span is
// named "<module>.<call>" after the source module of the function it
// wraps (graph, nn, partition, train, core, ag, tensor, exec, serve,
// util) or "bench.<what>" for the benchmark's own work (correctness
// checks); the top level of each pipeline stage is "stage.<name>".
//
// The ledger splits each stage's wall time into the self time of every
// module below it (a span's duration minus its direct children's) plus
// the stage span's own self time, the unattributed remainder. The rows
// add up to the stage's wall time by construction.
//
// Spans are single-threaded (the benchmark's main thread), kept in a
// vector and written out once when the run ends. Every stage span closes
// with the process's RSS high-water mark so far as an argument, so the
// trace shows which stage set peak_rss_bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The process's high-water resident set size so far (getrusage).
double peak_rss_bytes();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Pause or resume recording (spans already open are still closed).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span under the innermost open one; -1 when disabled.
  std::int32_t begin(std::string name);
  void end(std::int32_t id);
  void arg(std::int32_t id, std::string key, double value);
  /// Record an already-timed span under the innermost open one, for
  /// durations measured by the library itself (SoupReport::seconds).
  void record(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(std::string key, double value) {
    tracer_.arg(id_, std::move(key), value);
  }

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Module of a span name: the part before the first '.'.
std::string span_module(const std::string& name);

/// One stage's ledger, summed over every occurrence of the stage.
struct LedgerRow {
  std::string stage;  ///< "setup", "phase1", "gis", ...
  std::int64_t occurrences = 0;
  double wall_ms = 0.0;
  std::map<std::string, double> module_ms;  ///< self time per module
  double unattributed_ms = 0.0;             ///< the stage span's self time
};

/// Ledger rows for every "stage.*" span name, in first-seen order.
std::vector<LedgerRow> build_ledger(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("traceEvents", one complete event per span,
/// args carry the parent span id) followed by `extra_fields`, a
/// pre-rendered JSON member list (may be empty).
std::string trace_json(const std::vector<Span>& spans,
                       const std::string& extra_fields);

}  // namespace perfbench
