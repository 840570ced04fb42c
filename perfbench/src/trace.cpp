#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>

#include "json.hpp"

namespace perfbench {

std::int32_t Tracer::begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_.back().start_ns = now_ns();
  return id;
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (span_module(span.name) == "stage") {
    span.args.emplace_back("rss_hwm_bytes", peak_rss_bytes());
  }
  // Spans close in LIFO order on the one tracing thread.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::arg(std::int32_t id, std::string key, double value) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                         value);
}

void Tracer::record(std::string name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
}

std::string span_module(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::vector<LedgerRow> build_ledger(const std::vector<Span>& spans) {
  const std::size_t n = spans.size();
  std::vector<double> child_ms(n, 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  // Owning stage of every span: the nearest "stage.*" ancestor-or-self.
  // Parents precede children in the vector, so one forward pass works.
  std::vector<std::int32_t> stage_of(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (span_module(spans[i].name) == "stage") {
      stage_of[i] = static_cast<std::int32_t>(i);
    } else if (spans[i].parent >= 0) {
      stage_of[i] = stage_of[static_cast<std::size_t>(spans[i].parent)];
    }
  }
  std::vector<LedgerRow> rows;
  auto row_for = [&](const std::string& stage) -> LedgerRow& {
    for (auto& r : rows) {
      if (r.stage == stage) return r;
    }
    rows.emplace_back();
    rows.back().stage = stage;
    return rows.back();
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (stage_of[i] < 0) continue;
    const Span& stage = spans[static_cast<std::size_t>(stage_of[i])];
    LedgerRow& row = row_for(stage.name.substr(6));  // strip "stage."
    const double dur = static_cast<double>(spans[i].end_ns -
                                           spans[i].start_ns) * 1e-6;
    const double self = dur - child_ms[i];
    if (stage_of[i] == static_cast<std::int32_t>(i)) {
      ++row.occurrences;
      row.wall_ms += dur;
      row.unattributed_ms += self;
    } else {
      row.module_ms[span_module(spans[i].name)] += self;
    }
  }
  return rows;
}

std::string trace_json(const std::vector<Span>& spans,
                       const std::string& extra_fields) {
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const auto& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":" + json::str(s.name) + ",\"cat\":" +
           json::str(span_module(s.name)) + ",\"ph\":\"X\",\"pid\":1," +
           "\"tid\":1,\"ts\":" +
           json::num(static_cast<double>(s.start_ns - origin) * 1e-3) +
           ",\"dur\":" +
           json::num(static_cast<double>(s.end_ns - s.start_ns) * 1e-3) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent);
    for (const auto& [key, value] : s.args) {
      out += ',';
      out += json::str(key);
      out += ':';
      out += json::num(value);
    }
    out += "}}";
  }
  out += "]";
  if (!extra_fields.empty()) {
    out += ',';
    out += extra_fields;
  }
  return out + "}\n";
}

}  // namespace perfbench
