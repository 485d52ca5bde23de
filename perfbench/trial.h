#ifndef FUSION_PERFBENCH_TRIAL_H_
#define FUSION_PERFBENCH_TRIAL_H_

// One fixed-work trial of a serving workload: build the federation, start
// the services (and the router), connect the clients, warm up, then drive a
// fixed request schedule with the clock running only over that schedule.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "common/status.h"
#include "exec/source_call_cache.h"
#include "perfbench/spans.h"

namespace fusion {
namespace perfbench {

/// The federation and the query pool are the benchmark's fixed data set:
/// they come from this seed, whatever the run's seed. Every run of a
/// workload sends the same requests over it; the run's seed decides their
/// order and the oracle sample, so the spread between runs on different
/// seeds is the benchmark's noise, not the data's or the draw's.
inline constexpr uint64_t kDatasetSeed = 1998;

struct WorkloadConfig {
  std::string name;
  bench::MacroWorkloadSpec spec;
  /// Load-generating threads, one connection each.
  size_t clients = 1;
  /// Closed loop: each client sends its next request when the last one
  /// answered. Open loop: requests are due at a fixed rate whatever the
  /// replies do; a free client takes the next due slot.
  bool open_loop = false;
  double rate_qps = 0.0;
  /// Timed queries per trial, across all clients.
  size_t queries = 0;
  /// Requests are drawn from the pool's Zipf popularity in blocks of this
  /// many by systematic sampling (see DrawRequests in trial.cc); 0 = one
  /// block for the whole draw.
  size_t draw_block = 0;
  /// Before the clock: one pass over the whole pool, and/or
  /// `warmup_queries` requests per client drawn like the timed ones.
  bool warm_pass = false;
  size_t warmup_queries = 0;
  /// Open loop only: every this-many-th slot of the schedule is an
  /// INVALIDATE sent through the serving endpoint. 0 = off.
  size_t churn_every = 0;
  size_t shards = 1;
  /// Wall-clock seconds the executor sleeps per metered cost unit.
  double pace_seconds = 0.0;
  /// Session cache byte budget per service; 0 = unbounded.
  size_t cache_max_bytes = 0;
  /// Share of timed answers checked against the serial uncached oracle.
  double oracle_sample = 0.25;
  /// Latency limit for slo_attainment.
  double slo_ms = 0.0;
};

struct TrialResult {
  double setup_s = 0.0;
  double elapsed_s = 0.0;
  /// Client-observed latency of every answered query, in ms. In the open
  /// loop a request is timed from when it was due.
  std::vector<double> latency_ms;
  size_t attempted = 0;  // queries and INVALIDATEs
  size_t queries_attempted = 0;
  size_t ok = 0;
  size_t errors = 0;
  size_t shed = 0;
  size_t incomplete = 0;
  size_t within_slo = 0;
  double cost = 0.0;
  size_t items_sent = 0;
  size_t items_received = 0;
  /// (pool index, answer text) of the answers the oracle re-checks.
  std::vector<std::pair<size_t, std::string>> samples;
  double peak_rss_mb = 0.0;
  /// Open loop: how late the generator sent, ms past each slot's due time.
  std::vector<double> lag_ms;
  // Counter deltas over the timed phase, summed over the fleet.
  SourceCallCache::Stats cache;
  size_t router_warm_forwards = 0;
  size_t router_warm_hits = 0;
  size_t router_failovers = 0;
  size_t router_invalidate_fanouts = 0;
  uint64_t router_forward_bytes = 0;
  size_t service_shed = 0;
  size_t reconnects = 0;
  size_t observed_conditions = 0;
  uint64_t retries = 0;
  uint64_t breaker_fast_fails = 0;
  uint64_t probes_skipped = 0;
  uint64_t batch_rows = 0;
  // Traced trials only.
  std::vector<RequestLayers> layers;
  double codec_us = 0.0;
  /// Sums of |estimated - metered| and of metered cost, read off the
  /// EXPLAIN header of each request in a pass after the timed phase (so the
  /// timed requests are the plain SUBMITs an untraced trial sends).
  double estimate_error_abs = 0.0;
  double estimate_metered = 0.0;
};

/// `config.spec` with the data-set seed.
bench::MacroWorkloadSpec DatasetSpec(const WorkloadConfig& config);

/// Runs one trial. `part` picks the requests (trial k of a run is part k,
/// so every run sends the same ones) and `seed` their order and the
/// oracle sample. `load` = false stops after set-up (a
/// set-up-only repetition). `traced` turns on Tracer::Global() for the
/// timed phase and serves through the timing decorator and the traced
/// serve loops.
Result<TrialResult> RunTrial(const WorkloadConfig& config, size_t part,
                             uint64_t seed, bool traced, bool load);

}  // namespace perfbench
}  // namespace fusion

#endif  // FUSION_PERFBENCH_TRIAL_H_
