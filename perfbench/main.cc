// fusion_perfbench — one trial of the serving benchmark.
//
// Runs one fixed-work trial of a named workload over the real serving path
// (QueryService over loopback TCP; a QueryRouter in front of a sharded
// fleet), checks a sample of its answers against a serial, uncached
// Mediator over an identical federation, and prints the trial's raw
// figures as one JSON line. perfbench/run.py runs one process per trial,
// so every trial starts from a fresh heap and its peak RSS is its own, and
// turns the trials into the benchmark's metrics.
//
// usage: fusion_perfbench --workload NAME --seed N [--part K] [--trace 0|1]
//                         [--setup-only] [--smoke] [--inject-divergence]
//
// --part picks which requests the trial sends (perfbench/run.py gives
// trial k of a run part k, so every run sends the same requests) and
// --seed their order and the oracle sample.
//
// --trace 1 serves through the timing decorator and traced serve loops and
// adds the per-layer figures; its timed requests are the same plain SUBMITs
// an untraced trial sends, and only after the timed phase does it re-send
// some sampled queries as EXPLAIN requests for the optimizer's estimate
// error. --setup-only stops after set-up and prints only setup_s.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "mediator/mediator.h"
#include "perfbench/trial.h"

namespace fusion {
namespace perfbench {
namespace {

// Sized for a 4-core machine: at most 4 load-generating connections per
// workload, and every service runs 4 workers. A run of perfbench/run.py
// has at least four trials of a workload, which together answer at least
// 1000 queries, so the run's p99 has ten samples beyond it.
std::vector<WorkloadConfig> Workloads() {
  std::vector<WorkloadConfig> all;

  // The paper's setting: one sequential client, thousands of distinct
  // queries drawn uniformly, a 1 MiB cache budget far below the working set
  // (entries are evicted), and metered cost turned into wall-clock time at
  // a pace that makes source calls the largest share of latency, about
  // three quarters of it, so the host's CPU speed, which drifts from run to
  // run, moves this workload's latency little. A trial sends every tenth
  // pool query once (trials 0-4 of a run start at different ones), and one
  // client replays the same schedule, so its counts repeat exactly.
  WorkloadConfig cold;
  cold.name = "cold-paced";
  cold.spec.pool_size = 3000;
  cold.spec.zipf_theta = 0.0;
  cold.clients = 1;
  cold.queries = 300;
  cold.warmup_queries = 25;
  cold.pace_seconds = 2e-6;
  cold.cache_max_bytes = 1 << 20;
  cold.oracle_sample = 0.1;
  cold.slo_ms = 100.0;
  all.push_back(cold);

  // Wide queries (6-8 of 8 conditions, where SJA planning dominates) over a
  // two-shard fleet behind the router, an open loop at a fixed 40 queries/s
  // (about 40% of the ~105/s four connections sustain closed-loop on 4
  // cores; at 65/s two busy neighbour cores doubled p50), and an
  // INVALIDATE fanned out every 25th slot. Popularity is uniform: latency
  // per query is bimodal by query, and under Zipf the most popular query
  // alone sat in the slow mode with a quarter of the traffic, which put the
  // median on the gap between the modes. Every 64 requests send each pool
  // query once.
  WorkloadConfig wide;
  wide.name = "wide-churn-fleet";
  wide.spec.num_conditions = 8;
  wide.spec.min_conditions_per_query = 6;
  wide.spec.max_conditions_per_query = 8;
  wide.spec.pool_size = 64;
  wide.spec.zipf_theta = 0.0;
  wide.clients = 4;
  wide.open_loop = true;
  wide.rate_qps = 40.0;
  wide.queries = 256;
  wide.warm_pass = true;
  wide.churn_every = 25;
  wide.draw_block = 64;
  wide.shards = 2;
  wide.oracle_sample = 0.1;
  wide.slo_ms = 100.0;
  all.push_back(wide);
  return all;
}

/// Shrinks a workload for the benchmark's self-check.
WorkloadConfig Smoke(WorkloadConfig config) {
  config.queries = std::min<size_t>(config.queries, 40);
  config.warmup_queries = std::min<size_t>(config.warmup_queries, 10);
  config.oracle_sample = 1.0;
  return config;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  size_t part = 0;
  bool trace = false;
  bool setup_only = false;
  bool smoke = false;
  /// Corrupts one sampled answer before the oracle sees it, so the
  /// self-check can prove a divergence fails the run.
  bool inject_divergence = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
    } else if (flag == "--smoke") {
      args->smoke = true;
    } else if (flag == "--inject-divergence") {
      args->inject_divergence = true;
    } else if (i + 1 < argc && flag == "--workload") {
      args->workload = argv[++i];
      have_workload = true;
    } else if (i + 1 < argc && flag == "--seed") {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && flag == "--part") {
      args->part = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && flag == "--trace") {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload;
}

/// Checks every sampled answer against the serial uncached oracle, which
/// answers each distinct pool query once.
class Oracle {
 public:
  static Result<Oracle> Make(const WorkloadConfig& config) {
    FUSION_ASSIGN_OR_RETURN(
        bench::MacroWorkload workload,
        bench::MacroWorkload::Generate(DatasetSpec(config)));
    FUSION_ASSIGN_OR_RETURN(SourceCatalog catalog,
                            workload.MakeOracleCatalog());
    return Oracle(workload.pool(), std::move(catalog));
  }

  /// Returns the number of divergent answers.
  Result<size_t> Check(
      const std::vector<std::pair<size_t, std::string>>& samples) {
    size_t divergences = 0;
    for (const auto& [index, answer] : samples) {
      auto it = reference_.find(index);
      if (it == reference_.end()) {
        const MediatorOptions serial;  // sequential, uncached, fresh stats
        FUSION_ASSIGN_OR_RETURN(QueryAnswer truth,
                                mediator_.AnswerSql(pool_[index], serial));
        it = reference_.emplace(index, truth.items.ToString()).first;
      }
      if (answer != it->second) {
        if (divergences < 3) {
          std::fprintf(stderr,
                       "DIVERGENCE pool[%zu]: %s\n  served: %s\n  oracle: %s\n",
                       index, pool_[index].c_str(), answer.c_str(),
                       it->second.c_str());
        }
        ++divergences;
      }
    }
    return divergences;
  }

  size_t distinct() const { return reference_.size(); }

 private:
  Oracle(std::vector<std::string> pool, SourceCatalog catalog)
      : pool_(std::move(pool)), mediator_(std::move(catalog)) {}

  std::vector<std::string> pool_;
  Mediator mediator_;
  std::map<size_t, std::string> reference_;
};

/// Accumulates one JSON object's fields.
class JsonObject {
 public:
  JsonObject& Num(const char* key, double value) {
    return Raw(key, StrFormat("%.17g", value));
  }
  JsonObject& Count(const char* key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Array(const char* key, const std::vector<double>& values) {
    std::string text = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      text += StrFormat(i == 0 ? "%.6f" : ",%.6f", values[i]);
    }
    return Raw(key, text + "]");
  }
  JsonObject& Raw(const char* key, const std::string& value) {
    text_ += StrFormat("%s\"%s\": %s", text_.empty() ? "" : ", ", key,
                       value.c_str());
    return *this;
  }
  std::string str() const { return "{" + text_ + "}"; }

 private:
  std::string text_;
};

/// The traced figures: sums over the trial's requests, and the per-request
/// values whose percentiles run.py reports.
std::string LayerFields(const TrialResult& t) {
  JsonObject layers;
  double latency = 0, wire = 0, parse = 0, learn = 0, prep = 0, setops = 0,
         hit = 0, memo = 0, sq = 0, sjq = 0, lq = 0;
  std::vector<double> layer(kNumLayers, 0.0), hop, queue, optimizer;
  for (const RequestLayers& r : t.layers) {
    latency += r.latency_ms;
    for (size_t l = 0; l < kNumLayers; ++l) layer[l] += r.layer_ms[l];
    wire += r.wire_ms;
    parse += r.parse_us;
    learn += r.learn_ms;
    prep += r.plan_prep_ms;
    setops += r.setops_ms;
    hit += r.hit_path_ms;
    memo += r.plan_memo_reused ? 1.0 : 0.0;
    sq += static_cast<double>(r.sq_calls);
    sjq += static_cast<double>(r.sjq_calls);
    lq += static_cast<double>(r.lq_calls);
    hop.push_back(r.router_hop_ms);
    queue.push_back(r.queue_wait_ms);
    optimizer.push_back(r.optimizer_ms);
  }
  for (size_t l = 0; l < kNumLayers; ++l) {
    layers.Num(LayerName(static_cast<Layer>(l)), layer[l]);
  }
  return JsonObject()
      .Count("requests", t.layers.size())
      .Num("latency_ms", latency)
      .Raw("layer_ms", layers.str())
      .Num("wire_ms", wire)
      .Num("parse_us", parse)
      .Num("learn_ms", learn)
      .Num("plan_prep_ms", prep)
      .Num("setops_ms", setops)
      .Num("hit_path_ms", hit)
      .Num("plan_memo_reused", memo)
      .Num("sq_calls", sq)
      .Num("sjq_calls", sjq)
      .Num("lq_calls", lq)
      .Num("codec_us", t.codec_us)
      .Num("estimate_error_abs", t.estimate_error_abs)
      .Num("estimate_metered", t.estimate_metered)
      .Array("router_hop_ms", hop)
      .Array("queue_wait_ms", queue)
      .Array("optimizer_ms", optimizer)
      .str();
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fusion_perfbench --workload NAME --seed N "
                 "[--part K] [--trace 0|1] [--setup-only] [--smoke] "
                 "[--inject-divergence]\n");
    return 2;
  }
  const std::vector<WorkloadConfig> all = Workloads();
  const auto found =
      std::find_if(all.begin(), all.end(), [&](const WorkloadConfig& w) {
        return w.name == args.workload;
      });
  if (found == all.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadConfig config = args.smoke ? Smoke(*found) : *found;
  auto trial = RunTrial(config, args.part, args.seed, args.trace,
                        !args.setup_only);
  if (!trial.ok()) {
    std::fprintf(stderr, "trial: %s\n", trial.status().ToString().c_str());
    return 1;
  }
  if (args.setup_only) {
    const std::string setup = JsonObject().Num("setup_s", trial->setup_s).str();
    std::printf("%s\n", setup.c_str());
    return 0;
  }
  auto oracle = Oracle::Make(config);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  if (args.inject_divergence && !trial->samples.empty()) {
    trial->samples.front().second += " ";
  }
  const Result<size_t> divergences = oracle->Check(trial->samples);
  if (!divergences.ok()) {
    std::fprintf(stderr, "oracle: %s\n",
                 divergences.status().ToString().c_str());
    return 1;
  }
  const TrialResult& t = *trial;
  JsonObject out;
  out.Raw("build", StrFormat("\"%s\"", PERFBENCH_BUILD_TYPE))
      .Raw("compiler", StrFormat("\"%s\"", __VERSION__))
      .Count("nproc", std::thread::hardware_concurrency())
      .Count("seed", args.seed)
      .Num("setup_s", t.setup_s)
      .Num("elapsed_s", t.elapsed_s)
      .Count("attempted", t.attempted)
      .Count("queries_attempted", t.queries_attempted)
      .Count("ok", t.ok)
      .Count("errors", t.errors)
      .Count("shed", t.shed)
      .Count("incomplete", t.incomplete)
      .Count("within_slo", t.within_slo)
      .Num("cost", t.cost)
      .Count("items_sent", t.items_sent)
      .Count("items_received", t.items_received)
      .Num("peak_rss_mb", t.peak_rss_mb)
      .Count("sampled", t.samples.size())
      .Count("distinct_checked", oracle->distinct())
      .Count("divergences", *divergences)
      .Count("cache_hits", t.cache.hits)
      .Count("cache_misses", t.cache.misses)
      .Count("cache_containment_hits", t.cache.containment_hits)
      .Count("cache_evictions", t.cache.evictions)
      .Count("cache_invalidations", t.cache.invalidations)
      .Count("cache_flights_deduplicated", t.cache.flights_deduplicated)
      .Count("router_warm_forwards", t.router_warm_forwards)
      .Count("router_warm_hits", t.router_warm_hits)
      .Count("router_failovers", t.router_failovers)
      .Count("router_invalidate_fanouts", t.router_invalidate_fanouts)
      .Count("router_forward_bytes", t.router_forward_bytes)
      .Count("service_shed", t.service_shed)
      .Count("reconnects", t.reconnects)
      .Count("observed_conditions", t.observed_conditions)
      .Count("retries", t.retries)
      .Count("breaker_fast_fails", t.breaker_fast_fails)
      .Count("probes_skipped", t.probes_skipped)
      .Count("batch_rows", t.batch_rows)
      .Array("latency_ms", t.latency_ms)
      .Array("lag_ms", t.lag_ms);
  if (args.trace) out.Raw("traced", LayerFields(t));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace fusion

int main(int argc, char** argv) { return fusion::perfbench::Run(argc, argv); }
