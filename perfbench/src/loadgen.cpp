#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using gsoup::serve::QueryResult;

/// Open loop: the generator sleeps until this long before a due time and
/// spins the rest, so its wake-up latency does not make it late ...
constexpr auto kOpenLoopSpin = std::chrono::microseconds(200);
/// ... and, while asleep, looks for answers at least this often (the
/// oldest outstanding one wakes it at once).
constexpr auto kOpenLoopPoll = std::chrono::microseconds(50);

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Account one resolved query; true when it was answered.
bool resolve(LoadResult& out, std::int64_t node, const QueryResult& r,
             const gsoup::Tensor& reference) {
  if (!r.ok()) {
    ++out.failed;
    return false;
  }
  ++out.answered;
  const Verdict v =
      check_answer({node, r.value().label, r.value().score}, reference);
  if (!v.ok && out.wrong++ == 0) out.first_wrong = v.what;
  return true;
}

void merge(LoadResult& into, const LoadResult& part) {
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.answered += part.answered;
  if (into.wrong == 0 && part.wrong > 0) into.first_wrong = part.first_wrong;
  into.wrong += part.wrong;
  if (into.per_slice.size() < part.per_slice.size()) {
    into.per_slice.resize(part.per_slice.size());
  }
  for (std::size_t s = 0; s < part.per_slice.size(); ++s) {
    into.per_slice[s] += part.per_slice[s];
  }
}

/// Closed-loop clients; a client stops submitting once `keep_going`
/// returns false, then drains its window. Answers are counted per
/// kSliceSeconds slice of the first `span_s` seconds.
template <typename KeepGoing>
LoadResult closed_loop(gsoup::serve::BatchServer& server,
                       const gsoup::Tensor& reference, int clients,
                       int window, double span_s, std::uint64_t seed,
                       KeepGoing keep_going) {
  struct InFlight {
    std::int64_t node;
    std::future<QueryResult> result;
  };
  const std::int64_t num_nodes = reference.shape(0);
  const auto slices = static_cast<std::size_t>(span_s / kSliceSeconds);
  std::vector<LoadResult> parts(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& part = parts[static_cast<std::size_t>(c)];
      part.per_slice.assign(slices, 0);
      SeedStream rng(derive_seed(seed, static_cast<std::uint64_t>(c)));
      std::deque<InFlight> inflight;
      for (;;) {
        while (static_cast<int>(inflight.size()) < window && keep_going()) {
          const std::int64_t node = rng.below(num_nodes);
          ++part.attempted;
          inflight.push_back({node, server.submit(node)});
        }
        if (inflight.empty()) break;
        InFlight oldest = std::move(inflight.front());
        inflight.pop_front();
        if (!resolve(part, oldest.node, oldest.result.get(), reference)) {
          continue;
        }
        const auto slice = static_cast<std::size_t>(
            std::chrono::duration<double>(Clock::now() - start).count() /
            kSliceSeconds);
        if (slice < slices) ++part.per_slice[slice];
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult out;
  for (const auto& p : parts) merge(out, p);
  return out;
}

}  // namespace

LoadResult run_closed_loop(gsoup::serve::BatchServer& server,
                           const gsoup::Tensor& reference, int clients,
                           int window, double seconds, std::uint64_t seed) {
  const auto stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(seconds));
  return closed_loop(server, reference, clients, window, seconds, seed,
                     [stop] { return Clock::now() < stop; });
}

LoadResult run_closed_count(gsoup::serve::BatchServer& server,
                            const gsoup::Tensor& reference, int clients,
                            int window, std::int64_t count,
                            std::uint64_t seed) {
  std::atomic<std::int64_t> left{count};
  return closed_loop(server, reference, clients, window, 0.0, seed, [&left] {
    return left.fetch_sub(1, std::memory_order_relaxed) > 0;
  });
}

LoadResult run_open_loop(gsoup::serve::BatchServer& server,
                         const gsoup::Tensor& reference,
                         const std::vector<Arrival>& schedule) {
  struct Sent {
    std::size_t index;
    std::future<QueryResult> result;
  };
  LoadResult out;
  out.attempted = static_cast<std::int64_t>(schedule.size());
  out.lag_ms.resize(schedule.size());
  const auto origin = Clock::now();
  auto due = [&](std::size_t i) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i].due_s));
  };
  std::vector<Sent> outstanding;
  // Timestamp every answer that has arrived (a ready check is an atomic
  // load in the future's shared state, no lock).
  const auto collect = [&] {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      Sent& s = outstanding[i];
      if (s.result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        if (kept != i) outstanding[kept] = std::move(s);
        ++kept;
        continue;
      }
      const double latency = ms_between(due(s.index), Clock::now());
      if (resolve(out, schedule[s.index].node, s.result.get(), reference)) {
        out.latency_ms.push_back(latency);
        out.due_s.push_back(schedule[s.index].due_s);
      }
    }
    outstanding.resize(kept);
  };
  std::size_t next = 0;
  while (next < schedule.size() || !outstanding.empty()) {
    while (next < schedule.size() && due(next) <= Clock::now()) {
      auto result = server.submit(schedule[next].node);
      out.lag_ms[next] = ms_between(due(next), Clock::now());
      outstanding.push_back({next, std::move(result)});
      ++next;
    }
    collect();
    const auto now = Clock::now();
    const bool all_sent = next == schedule.size();
    const auto wake =
        all_sent ? Clock::time_point::max() : due(next) - kOpenLoopSpin;
    if (wake <= now) continue;  // the last stretch before a due time: spin
    // Sleep until the spin stretch, waking early for the oldest answer,
    // or after kOpenLoopPoll for one that overtook it.
    if (outstanding.empty()) {
      if (all_sent) break;
      std::this_thread::sleep_until(wake);
    } else {
      outstanding.front().result.wait_until(
          std::min(wake, now + kOpenLoopPoll));
    }
  }
  return out;
}

}  // namespace perfbench
