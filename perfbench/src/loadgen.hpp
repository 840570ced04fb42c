// Query load for the serving stage, driven from the benchmark's own
// threads against a serve::BatchServer.
//
// Closed loop (throughput): `clients` threads each keep `window` queries
// outstanding, sending the next only when the oldest answer arrives, for
// a fixed duration. A slow server receives less load, so the result is
// the server's sustainable rate.
//
// Open loop (latency): the calling thread submits each query of a seeded
// Poisson schedule at its due time, whether or not earlier answers have
// arrived, and timestamps answers as they land. Between due times it
// sleeps, waking for the oldest outstanding answer or every 50 us for
// one that overtook it; it spins only for the last 200 us before a due
// time, so its own wake-up latency does not make it late, and it takes
// a core away from the server only for that stretch (all the time when
// arrivals are less than 200 us apart).
// Latency is measured from the query's DUE time, so a stall in the
// server or the generator is charged to every query it delays, and the
// generator's lateness (submit time minus due time) is reported.
// serve::drive_load is not used: it submits each client's whole share
// before waiting, which measures how long a burst takes to drain.
//
// Every answer is checked against reference logits as it arrives (see
// check_answer), so the closed loop keeps no per-answer storage and the
// process's peak memory is the program's, not the benchmark's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oracles.hpp"
#include "schedule.hpp"
#include "serve/server.hpp"

namespace perfbench {

struct LoadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;   ///< resolved to a ServeError
  std::int64_t answered = 0;
  std::int64_t wrong = 0;    ///< answers the oracle rejected
  std::string first_wrong;   ///< the first rejection, for the log
  /// Closed loop: answers completed in each kSliceSeconds slice of the
  /// phase (answers landing after the last full slice are not counted).
  std::vector<std::int64_t> per_slice;
  /// Open loop, per answer: latency from the due time, and the due time
  /// (seconds from the phase start).
  std::vector<double> latency_ms;
  std::vector<double> due_s;
  std::vector<double> lag_ms;  ///< open loop: submit - due, per query
};

inline constexpr double kSliceSeconds = 0.05;

/// Closed loop for `seconds`: `clients` threads, `window` outstanding
/// queries each, uniform node ids from per-client seeded streams.
LoadResult run_closed_loop(gsoup::serve::BatchServer& server,
                           const gsoup::Tensor& reference, int clients,
                           int window, double seconds, std::uint64_t seed);

/// Exactly `count` queries sent by the closed-loop clients, for warm-up.
LoadResult run_closed_count(gsoup::serve::BatchServer& server,
                            const gsoup::Tensor& reference, int clients,
                            int window, std::int64_t count,
                            std::uint64_t seed);

/// Open loop over a precomputed schedule (see poisson_schedule).
LoadResult run_open_loop(gsoup::serve::BatchServer& server,
                         const gsoup::Tensor& reference,
                         const std::vector<Arrival>& schedule);

}  // namespace perfbench
