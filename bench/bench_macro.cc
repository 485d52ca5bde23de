// bench_macro — the macro-benchmark harness: end-to-end serving throughput
// with a built-in differential correctness oracle.
//
// The harness stands up a real QueryService on an ephemeral TCP port (the
// same serving path as fusionqd), generates a multi-tenant workload — Zipf
// query popularity over a pool of fusion queries with configurable
// condition overlap, per-tenant private working sets, and source churn via
// cache invalidation — and drives it with one connected fusion::Client per
// tenant over real sockets for a fixed duration.
//
// Two outputs:
//  - a perf report (QPS, p50/p95/p99 latency, cache hit/containment rates,
//    metered cost, items moved), also written as a schema-versioned
//    BENCH_<date>.json so runs accumulate into a perf trajectory
//    (tools/bench_diff.py compares the two most recent);
//  - a correctness verdict: a configurable sample of served answers is
//    re-executed on a fresh, serial, cache-less Mediator over an identical
//    federation and compared byte-for-byte. Any divergence fails the run —
//    the harness doubles as a load-time differential test.
//
// Deterministic: every random stream derives from one root seed
// (--seed, else FUSION_SEED, else 1); the seed is printed for replay.
//
// Usage:
//   bench_macro [--tenants=N] [--duration=SEC] [--seed=N]
//               [--universe=N] [--sources=N] [--conditions=N] [--pool=N]
//               [--zipf=T] [--overlap=F] [--shared=F] [--churn-every=N]
//               [--oracle-sample=F] [--workers=N] [--max-queue=N]
//               [--shards=K] [--pace=SEC]
//               [--chaos-profile=off|light|heavy] [--out=PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "cli/client_flags.h"
#include "router/router.h"
#include "router/shard_map.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "mediator/client.h"
#include "mediator/mediator.h"
#include "mediator/service.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "protocol/chaos.h"
#include "relational/columnar.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace bench {
namespace {

// v2: latency percentiles come from HistogramSnapshot::Quantile (the same
// log-bucket math the STATS exposition serves), and a "tenants" section
// carries the server-side per-tenant SLO view sampled over the wire.
// v3: a "chaos" section records the fault-injection profile the run was
// served under (seeded socket-level drops/torn writes at the service edge)
// plus the recovery counters — client reconnects, idempotent SUBMIT replays
// — and the oracle divergence count under that abuse, which
// tools/bench_diff.py gates at zero.
// v4: a "local_eval" section reports the columnar data plane's share of the
// run — batch-kernel invocations, rows pushed through them, and emulated-
// semijoin probes skipped by the merge-column Bloom pre-filter. The oracle
// divergence gate is unchanged (and bench_diff.py requires it present and
// zero from this schema on): vectorization may move time, never answers.
// v5: --shards=k serves the run through a fusionrd-equivalent router over
// k replica services and adds a "shards" section — per-shard forward/QPS
// split, the warm-hit locality the rendezvous hash delivers (gated >= 0.95
// by bench_diff.py when present), failovers, INVALIDATE fan-outs, and the
// bytes forwarded shard-ward. Single-shard runs keep the serving path of
// v4; the oracle gate is unchanged either way.
constexpr int kBenchSchemaVersion = 5;

struct Args {
  size_t tenants = 4;
  double duration_seconds = 5.0;
  MacroWorkloadSpec workload;
  /// One source invalidation per this many completed requests (0 = off).
  size_t churn_every = 200;
  /// Fraction of served answers re-checked against the oracle.
  double oracle_sample = 0.25;
  int workers = 8;
  int max_queue = 256;
  /// Serving topology: 1 (default) drives one service directly; k > 1
  /// stands up k replica shards behind a query router and drives that.
  size_t shards = 1;
  /// Wall-clock seconds simulated per metered cost unit (0 = off). Makes
  /// the fleet capacity-bound the way real source latency would, so the
  /// --shards scaling curve measures added capacity, not just added RAM.
  double pace_seconds = 0.0;
  /// Named fault-injection profile at the serving edge ("off", "light",
  /// "heavy"); the resolved rates land in `chaos`.
  std::string chaos_profile = "off";
  ChaosPolicy chaos;
  /// Output: a *.json path writes exactly there; a directory writes
  /// BENCH_<date>.json inside it; empty disables the file.
  std::string out = ".";
  bool seed_given = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "bench_macro — multi-tenant serving benchmark with differential "
      "oracle\n\n"
      "usage: bench_macro [options]\n\n"
      "  --tenants=N        concurrent tenant clients (default 4)\n"
      "  --duration=SEC     measured serving window (default 5)\n"
      "  --seed=N           root seed (else FUSION_SEED env, else 1)\n"
      "  --universe=N       synthetic universe size (default 20000)\n"
      "  --sources=N        sources in the federation (default 8)\n"
      "  --conditions=N     condition-pool dimensionality (default 6)\n"
      "  --pool=N           distinct queries in the pool (default 64)\n"
      "  --zipf=T           query-popularity skew (default 1.1)\n"
      "  --overlap=F        P(condition shared verbatim across queries)\n"
      "                     (default 0.7)\n"
      "  --shared=F         P(request drawn from the shared pool, not the\n"
      "                     tenant's private slice) (default 0.75)\n"
      "  --churn-every=N    invalidate a random source's cache entries per\n"
      "                     N completed requests; 0 = off (default 200)\n"
      "  --oracle-sample=F  fraction of answers re-checked on a fresh\n"
      "                     serial uncached mediator (default 0.25)\n"
      "  --workers=N        service executor workers per shard (default 8)\n"
      "  --max-queue=N      service admission bound (default 256)\n"
      "  --shards=K         serve through a query router over K replica\n"
      "                     shards (default 1 = direct single service)\n"
      "  --pace=SEC         sleep SEC wall-clock seconds per metered cost\n"
      "                     unit, simulating source network latency so the\n"
      "                     fleet is capacity-bound (default 0 = off)\n"
      "  --chaos-profile=P  seeded fault injection at the serving edge:\n"
      "                     off (default), light (2%% drops, 1%% torn\n"
      "                     writes), heavy (5%% drops, 3%% torn writes);\n"
      "                     the differential oracle still gates at zero\n"
      "                     divergences\n"
      "  --out=PATH         BENCH json: a .json file path, a directory for\n"
      "                     BENCH_<date>.json, or '' to disable\n"
      "                     (default .)\n");
}

bool ParseSize(const std::string& text, size_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = static_cast<size_t>(std::strtoull(text.c_str(), nullptr, 10));
  return true;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (ParseFlagValue(a, "--tenants", &v)) {
      if (!ParseSize(v, &args.tenants) || args.tenants == 0) {
        return Status::InvalidArgument("--tenants must be a positive count");
      }
      continue;
    }
    if (ParseFlagValue(a, "--duration", &v)) {
      args.duration_seconds = std::atof(v.c_str());
      if (args.duration_seconds <= 0.0) {
        return Status::InvalidArgument("--duration must be > 0");
      }
      continue;
    }
    if (ParseFlagValue(a, "--seed", &v)) {
      size_t seed = 0;
      if (!ParseSize(v, &seed)) {
        return Status::InvalidArgument("--seed must be a number");
      }
      args.workload.seed = seed;
      args.seed_given = true;
      continue;
    }
    if (ParseFlagValue(a, "--universe", &v)) {
      if (!ParseSize(v, &args.workload.universe_size)) {
        return Status::InvalidArgument("--universe must be a count");
      }
      continue;
    }
    if (ParseFlagValue(a, "--sources", &v)) {
      if (!ParseSize(v, &args.workload.num_sources)) {
        return Status::InvalidArgument("--sources must be a count");
      }
      continue;
    }
    if (ParseFlagValue(a, "--conditions", &v)) {
      if (!ParseSize(v, &args.workload.num_conditions)) {
        return Status::InvalidArgument("--conditions must be a count");
      }
      continue;
    }
    if (ParseFlagValue(a, "--pool", &v)) {
      if (!ParseSize(v, &args.workload.pool_size)) {
        return Status::InvalidArgument("--pool must be a count");
      }
      continue;
    }
    if (ParseFlagValue(a, "--zipf", &v)) {
      args.workload.zipf_theta = std::atof(v.c_str());
      continue;
    }
    if (ParseFlagValue(a, "--overlap", &v)) {
      args.workload.condition_overlap = std::atof(v.c_str());
      continue;
    }
    if (ParseFlagValue(a, "--shared", &v)) {
      args.workload.shared_fraction = std::atof(v.c_str());
      continue;
    }
    if (ParseFlagValue(a, "--churn-every", &v)) {
      if (!ParseSize(v, &args.churn_every)) {
        return Status::InvalidArgument("--churn-every must be a count");
      }
      continue;
    }
    if (ParseFlagValue(a, "--oracle-sample", &v)) {
      args.oracle_sample = std::atof(v.c_str());
      if (args.oracle_sample < 0.0 || args.oracle_sample > 1.0) {
        return Status::InvalidArgument("--oracle-sample must be in [0, 1]");
      }
      continue;
    }
    if (ParseFlagValue(a, "--workers", &v)) {
      args.workers = std::atoi(v.c_str());
      if (args.workers < 1) {
        return Status::InvalidArgument("--workers must be >= 1");
      }
      continue;
    }
    if (ParseFlagValue(a, "--max-queue", &v)) {
      args.max_queue = std::atoi(v.c_str());
      if (args.max_queue < 1) {
        return Status::InvalidArgument("--max-queue must be >= 1");
      }
      continue;
    }
    if (ParseFlagValue(a, "--shards", &v)) {
      if (!ParseSize(v, &args.shards) || args.shards == 0 ||
          args.shards > 256) {
        return Status::InvalidArgument("--shards must be in [1, 256]");
      }
      continue;
    }
    if (ParseFlagValue(a, "--pace", &v)) {
      args.pace_seconds = std::atof(v.c_str());
      if (args.pace_seconds < 0.0) {
        return Status::InvalidArgument("--pace must be >= 0");
      }
      continue;
    }
    if (ParseFlagValue(a, "--chaos-profile", &v)) {
      args.chaos_profile = v;
      if (v == "off") {
        args.chaos = ChaosPolicy{};
      } else if (v == "light") {
        args.chaos.drop_rate = 0.02;
        args.chaos.torn_write_rate = 0.01;
      } else if (v == "heavy") {
        args.chaos.drop_rate = 0.05;
        args.chaos.torn_write_rate = 0.03;
      } else {
        return Status::InvalidArgument(
            "--chaos-profile must be off, light, or heavy");
      }
      continue;
    }
    if (ParseFlagValue(a, "--out", &v)) {
      args.out = v;
      continue;
    }
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      args.help = true;
      continue;
    }
    return Status::InvalidArgument(std::string("unknown argument: ") + a);
  }
  if (!args.seed_given) args.workload.seed = GlobalSeed(args.workload.seed);
  // The fault schedule derives from the same root seed as the workload:
  // one --seed replays the queries *and* the faults they absorbed.
  args.chaos.seed = MixSeed(args.workload.seed, 0xC4A05);
  return args;
}

/// What one tenant thread measured. Merged after the join; no cross-thread
/// sharing during the run beyond the churn counter.
struct TenantResult {
  /// Client-observed latency in the same fixed log buckets the service's
  /// SLO registry uses, so the percentiles below and a STATS p99 read off
  /// the wire go through identical Quantile math.
  Histogram latency_ms;
  double max_latency_ms = 0.0;
  size_t ok = 0;
  size_t errors = 0;
  size_t shed = 0;
  size_t incomplete = 0;
  double cost = 0.0;
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t items_sent = 0;
  size_t items_received = 0;
  /// Oracle samples: (pool index, canonical answer text) per sampled
  /// request. Complete answers only; incomplete ones are a sound subset by
  /// design and are counted, not compared.
  std::vector<std::pair<size_t, std::string>> samples;
  /// Transparent redials this tenant's client performed (chaos recovery).
  size_t reconnects = 0;
  std::string fatal;  // connect failure etc.
};

/// Element-wise sum of every tenant's latency histogram; Quantile on the
/// result is the whole-run percentile.
HistogramSnapshot MergeLatencies(const std::vector<TenantResult>& results) {
  HistogramSnapshot merged;
  merged.buckets.assign(Histogram::kNumBuckets, 0);
  for (const TenantResult& r : results) {
    const HistogramSnapshot s = r.latency_ms.Snapshot();
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      merged.buckets[i] += s.buckets[i];
    }
    merged.count += s.count;
    merged.sum += s.sum;
  }
  return merged;
}

double TenantStat(const StatsExposition& stats, const std::string& name,
                  const std::string& tenant) {
  const StatsSample* sample = stats.Find(name, tenant);
  return sample == nullptr ? 0.0 : sample->value;
}

double TenantQuantile(const StatsExposition& stats, const std::string& tenant,
                      const char* quantile) {
  for (const StatsSample& sample : stats.samples) {
    if (sample.name != "tenant_latency_ms") continue;
    const std::string* t = sample.Label("tenant");
    const std::string* q = sample.Label("quantile");
    if (t != nullptr && *t == tenant && q != nullptr && *q == quantile) {
      return sample.value;
    }
  }
  return 0.0;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

int RunHarness(const Args& args) {
  std::printf("bench_macro: seed %llu (replay: --seed=%llu or "
              "FUSION_SEED=%llu)\n",
              static_cast<unsigned long long>(args.workload.seed),
              static_cast<unsigned long long>(args.workload.seed),
              static_cast<unsigned long long>(args.workload.seed));

  auto workload_or = MacroWorkload::Generate(args.workload);
  if (!workload_or.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload_or.status().ToString().c_str());
    return 2;
  }
  MacroWorkload workload = std::move(workload_or).value();
  std::printf(
      "bench_macro: %zu sources, universe %zu, pool %zu queries, "
      "%zu tenants, %.1fs\n",
      args.workload.num_sources, args.workload.universe_size,
      workload.pool().size(), args.tenants, args.duration_seconds);

  // Source names in index order, for the sharded churn path (INVALIDATE is
  // addressed by name over the wire). Captured before the catalog moves
  // into shard 0's service.
  const std::vector<std::string> source_names = workload.catalog().Names();

  // The serving fleet: --shards=1 (default) is one service with daemon
  // defaults (shared cache, session-learned stats) — the exact
  // configuration fusionqd serves with. --shards=k stands up k replica
  // services (shard 0 over the generated federation, the rest over
  // MakeOracleCatalog() replicas, byte-identical data) behind one
  // fusionrd-equivalent QueryRouter, and the tenants drive the router.
  QueryService::Options service_options;
  service_options.server_name = "bench-macro";
  service_options.workers = args.workers;
  service_options.max_queue = static_cast<size_t>(args.max_queue);
  service_options.client.execution.simulated_seconds_per_cost =
      args.pace_seconds;
  // Chaos at the serving edge: every accepted connection shares one seeded
  // decision stream, exactly as fusionqd's --chaos-* flags wire it. The
  // counter deltas (not absolutes — the registry is process-global) become
  // the JSON's injected-fault tally.
  std::shared_ptr<ChaosDecider> chaos;
  if (args.chaos.enabled()) {
    chaos = std::make_shared<ChaosDecider>(args.chaos);
    std::printf(
        "bench_macro: chaos profile '%s' (drop %.3f, torn %.3f, seed "
        "%llu)\n",
        args.chaos_profile.c_str(), args.chaos.drop_rate,
        args.chaos.torn_write_rate,
        static_cast<unsigned long long>(args.chaos.seed));
  }
  const ChaosCounts chaos_before = GlobalChaosCounts();

  // Chaos applies at the *client-facing* edge only — the router when
  // sharded, the lone service otherwise. Router-to-shard links stay clean,
  // matching the deployment picture where fusionrd and its shards share a
  // rack while clients arrive over the open internet.
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<TcpServer>> shard_servers;
  std::vector<Shard> shard_specs;
  for (size_t s = 0; s < args.shards; ++s) {
    SourceCatalog catalog;
    if (s == 0) {
      catalog = std::move(workload.catalog());
    } else {
      auto replica = workload.MakeOracleCatalog();
      if (!replica.ok()) {
        std::fprintf(stderr, "shard %zu catalog: %s\n", s,
                     replica.status().ToString().c_str());
        return 1;
      }
      catalog = std::move(replica).value();
    }
    QueryService::Options shard_options = service_options;
    if (args.shards > 1) {
      shard_options.server_name = StrFormat("bench-macro-shard-%zu", s);
    }
    services.push_back(std::make_unique<QueryService>(
        Mediator(std::move(catalog)), shard_options));
    TcpServer::Options server_options;
    if (args.shards == 1) server_options.chaos = chaos;
    QueryService* service = services.back().get();
    shard_servers.push_back(std::make_unique<TcpServer>(
        [service](const std::string& m) { return service->Handle(m); },
        server_options));
    const Status started = shard_servers.back()->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bind: %s\n", started.ToString().c_str());
      return 1;
    }
    Shard spec;
    spec.name = StrFormat("shard-%zu", s);
    spec.endpoint =
        "127.0.0.1:" + std::to_string(shard_servers.back()->port());
    shard_specs.push_back(spec);
  }

  std::unique_ptr<QueryRouter> router;
  std::unique_ptr<TcpServer> router_server;
  std::string endpoint = shard_specs[0].endpoint;
  if (args.shards > 1) {
    auto map = ShardMap::Make(shard_specs);
    if (!map.ok()) {
      std::fprintf(stderr, "shard map: %s\n", map.status().ToString().c_str());
      return 1;
    }
    QueryRouter::Options router_options;
    router_options.server_name = "bench-macro-router";
    router = std::make_unique<QueryRouter>(std::move(map).value(),
                                           router_options);
    TcpServer::Options server_options;
    server_options.chaos = chaos;
    router_server = std::make_unique<TcpServer>(
        [&router](const std::string& m) { return router->Handle(m); },
        server_options);
    const Status started = router_server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "router bind: %s\n", started.ToString().c_str());
      return 1;
    }
    endpoint = "127.0.0.1:" + std::to_string(router_server->port());
    std::printf("bench_macro: %zu shards behind one router\n", args.shards);
  }

  // Tenant threads: each drives its deterministic stream through its own
  // connected client until the deadline. The only cross-tenant state is the
  // completed-request counter that schedules churn.
  std::atomic<size_t> completed{0};
  std::atomic<size_t> churn_invalidations{0};
  std::vector<TenantResult> results(args.tenants);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration<double>(args.duration_seconds);
  // STATS sampler: a separate connected client polls the live exposition
  // while the tenants drive load — the mid-run observability surface the
  // trajectory records — then takes one final sample after the deadline so
  // the JSON's per-tenant section reflects the whole run.
  std::atomic<size_t> stats_samples{0};
  std::thread sampler([&] {
    auto client_or = Client::Builder()
                         .To(Client::Target::Remote(endpoint))
                         .ClientId("bench-stats")
                         .Build();
    if (!client_or.ok()) return;
    Client client = std::move(client_or).value();
    while (std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const Result<std::string> text = client.Stats();
      if (text.ok() && ParseStatsText(*text).ok()) {
        stats_samples.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::vector<std::thread> tenants;
  tenants.reserve(args.tenants);
  for (size_t t = 0; t < args.tenants; ++t) {
    tenants.emplace_back([&, t] {
      TenantResult& result = results[t];
      Client::Builder builder;
      builder.To(Client::Target::Remote(endpoint))
          .ClientId(StrFormat("tenant-%zu", t));
      if (args.chaos.enabled()) {
        // Under injected faults the default redial ladder is too short for
        // unlucky streaks; errors here would read as serving bugs.
        RetryPolicy reconnect;
        reconnect.max_attempts = 12;
        reconnect.initial_backoff_seconds = 0.002;
        reconnect.max_backoff_seconds = 0.05;
        builder.Reconnect(reconnect);
      }
      auto client_or = builder.Build();
      if (!client_or.ok()) {
        result.fatal = client_or.status().ToString();
        return;
      }
      Client client = std::move(client_or).value();
      MacroWorkload::TenantStream stream =
          workload.StreamFor(t, args.tenants);
      Rng oracle_rng(MixSeed(args.workload.seed, 0x2000 + t));
      while (std::chrono::steady_clock::now() < deadline) {
        const size_t index = stream.NextIndex();
        const auto t0 = std::chrono::steady_clock::now();
        const Result<ClientAnswer> answer =
            client.QuerySql(workload.pool()[index]);
        const auto t1 = std::chrono::steady_clock::now();
        if (!answer.ok()) {
          if (answer.status().code() == StatusCode::kUnavailable) {
            ++result.shed;  // admission control; back off briefly
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          } else {
            ++result.errors;
          }
          continue;
        }
        ++result.ok;
        const double latency_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        result.latency_ms.Observe(latency_ms);
        if (latency_ms > result.max_latency_ms) {
          result.max_latency_ms = latency_ms;
        }
        result.cost += answer->cost;
        result.cache_hits += answer->cache_hits;
        result.cache_misses += answer->cache_misses;
        result.items_sent += answer->items_sent;
        result.items_received += answer->items_received;
        if (!answer->complete) ++result.incomplete;
        if (oracle_rng.Bernoulli(args.oracle_sample) && answer->complete) {
          result.samples.emplace_back(index, answer->items.ToString());
        }
        const size_t done =
            completed.fetch_add(1, std::memory_order_relaxed) + 1;
        if (args.churn_every > 0 && done % args.churn_every == 0) {
          // Deterministic churn schedule: the Nth invalidation always hits
          // the same source for a given seed.
          const size_t source =
              MixSeed(args.workload.seed, 0x3000 + done) %
              args.workload.num_sources;
          if (router != nullptr) {
            // Sharded coherence path: the INVALIDATE verb over this
            // tenant's own connection; the router fans it out to every
            // shard. `done` is unique per churn event, so the version
            // stamps are monotonic and replays idempotent.
            if (client
                    .InvalidateSource(source_names[source],
                                      static_cast<uint64_t>(done))
                    .ok()) {
              churn_invalidations.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            services[0]->session().InvalidateSource(source);
            churn_invalidations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      result.reconnects = client.reconnects();
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  sampler.join();
  // One more STATS after every tenant finished: the server-side SLO view
  // of the complete run, recorded in the trajectory JSON next to the
  // client-observed numbers. Collected per shard over direct connections —
  // with one shard this is exactly the old single-service sample; with k,
  // the per-tenant counters are summed across the fleet below.
  std::vector<StatsExposition> shard_stats;
  for (size_t s = 0; s < args.shards; ++s) {
    auto stats_client =
        Client::Builder()
            .To(Client::Target::Remote(shard_specs[s].endpoint))
            .ClientId(StrFormat("bench-stats-final-%zu", s))
            .Build();
    if (!stats_client.ok()) continue;
    const Result<std::string> text = stats_client->Stats();
    if (!text.ok()) continue;
    auto parsed = ParseStatsText(*text);
    if (parsed.ok()) shard_stats.push_back(std::move(parsed).value());
  }
  const QueryRouter::Counters router_counters =
      router != nullptr ? router->counters() : QueryRouter::Counters{};
  // Client-facing edge first, then the router's pooled upstream links (so
  // the shard serve loops see EOF), then the shards.
  if (router_server != nullptr) router_server->Stop();
  if (router != nullptr) router->Shutdown();
  for (const std::unique_ptr<TcpServer>& server : shard_servers) {
    server->Stop();
  }
  const ChaosCounts chaos_after = GlobalChaosCounts();
  const uint64_t chaos_drops = chaos_after.drops - chaos_before.drops;
  const uint64_t chaos_torn =
      chaos_after.torn_writes - chaos_before.torn_writes;
  const uint64_t chaos_refusals =
      chaos_after.refusals - chaos_before.refusals;

  for (size_t t = 0; t < results.size(); ++t) {
    if (!results[t].fatal.empty()) {
      std::fprintf(stderr, "tenant-%zu: %s\n", t, results[t].fatal.c_str());
      return 1;
    }
  }

  // Merge.
  TenantResult total;
  double max_latency = 0.0;
  for (const TenantResult& r : results) {
    total.ok += r.ok;
    total.errors += r.errors;
    total.shed += r.shed;
    total.incomplete += r.incomplete;
    total.cost += r.cost;
    total.cache_hits += r.cache_hits;
    total.cache_misses += r.cache_misses;
    total.items_sent += r.items_sent;
    total.items_received += r.items_received;
    total.reconnects += r.reconnects;
    if (r.max_latency_ms > max_latency) max_latency = r.max_latency_ms;
  }
  if (total.ok == 0) {
    std::fprintf(stderr, "bench_macro: no queries completed\n");
    return 1;
  }
  const HistogramSnapshot latency = MergeLatencies(results);
  const double qps = static_cast<double>(total.ok) / elapsed;
  const double p50 = latency.Quantile(0.50);
  const double p95 = latency.Quantile(0.95);
  const double p99 = latency.Quantile(0.99);
  const double mean = latency.mean();
  // Cache counters summed over the fleet (one term when --shards=1).
  SourceCallCache::Stats cache{};
  size_t idempotent_replays = 0;
  for (const auto& service : services) {
    const SourceCallCache::Stats shard_cache =
        service->session().cache().StatsSnapshot();
    cache.hits += shard_cache.hits;
    cache.containment_hits += shard_cache.containment_hits;
    cache.misses += shard_cache.misses;
    cache.invalidations += shard_cache.invalidations;
    idempotent_replays += service->idempotent_replays();
  }
  const double lookups =
      static_cast<double>(cache.hits + cache.containment_hits + cache.misses);
  const double hit_rate =
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
  const double containment_rate =
      lookups > 0 ? static_cast<double>(cache.containment_hits) / lookups
                  : 0.0;

  std::printf(
      "bench_macro: %zu queries in %.2fs — %.1f QPS; latency ms "
      "p50 %.3f p95 %.3f p99 %.3f mean %.3f max %.3f\n",
      total.ok, elapsed, qps, p50, p95, p99, mean, max_latency);
  std::printf(
      "bench_macro: cache hit rate %.3f, containment rate %.3f "
      "(%zu hits, %zu containment, %zu misses, %zu invalidations); "
      "%zu churn events\n",
      hit_rate, containment_rate, cache.hits, cache.containment_hits,
      cache.misses, cache.invalidations, churn_invalidations.load());
  std::printf(
      "bench_macro: metered cost %.1f (%.3f/query); items moved: "
      "%zu sent, %zu received; %zu shed, %zu errors, %zu incomplete\n",
      total.cost, total.cost / static_cast<double>(total.ok),
      total.items_sent, total.items_received, total.shed, total.errors,
      total.incomplete);
  if (args.chaos.enabled()) {
    std::printf(
        "bench_macro: chaos: %llu drops, %llu torn writes, %llu refusals "
        "injected; %zu client reconnects, %zu idempotent replays\n",
        static_cast<unsigned long long>(chaos_drops),
        static_cast<unsigned long long>(chaos_torn),
        static_cast<unsigned long long>(chaos_refusals), total.reconnects,
        idempotent_replays);
  }
  if (router != nullptr) {
    const double locality =
        router_counters.warm_forwards > 0
            ? static_cast<double>(router_counters.warm_hits) /
                  static_cast<double>(router_counters.warm_forwards)
            : 1.0;
    std::printf("bench_macro: shards:");
    for (size_t s = 0; s < args.shards; ++s) {
      std::printf(" %s=%zu", shard_specs[s].name.c_str(),
                  router_counters.per_shard_forwards[s]);
    }
    std::printf(
        " forwards; warm locality %.3f (%zu/%zu), %zu failovers, "
        "%zu invalidate fan-outs, %llu bytes forwarded\n",
        locality, router_counters.warm_hits, router_counters.warm_forwards,
        router_counters.failovers, router_counters.invalidate_fanouts,
        static_cast<unsigned long long>(router_counters.forward_bytes));
  }

  // ---- Server-side SLO view ---------------------------------------------
  // The final STATS expositions are the fleet's own account of the run.
  // Per-tenant counters sum exactly across shards (each request was served
  // by exactly one); latency quantiles do not, so the fleet view takes the
  // per-shard max — a conservative upper bound, and the exact value when
  // --shards=1. The summed metered cost must agree with what the clients
  // summed — two independent paths to the same number, so a mismatch means
  // the SLO accounting dropped or double-counted requests.
  const bool have_server_stats = shard_stats.size() == args.shards;
  const auto sum_stat = [&shard_stats](const std::string& name,
                                       const std::string& tenant) {
    double total_value = 0.0;
    for (const StatsExposition& stats : shard_stats) {
      total_value += TenantStat(stats, name, tenant);
    }
    return total_value;
  };
  const auto max_quantile = [&shard_stats](const std::string& tenant,
                                           const char* quantile) {
    double max_value = 0.0;
    for (const StatsExposition& stats : shard_stats) {
      max_value = std::max(max_value, TenantQuantile(stats, tenant, quantile));
    }
    return max_value;
  };
  double server_cost = 0.0;
  if (have_server_stats) {
    for (size_t t = 0; t < args.tenants; ++t) {
      const std::string tenant = StrFormat("tenant-%zu", t);
      server_cost += sum_stat("tenant_metered_cost_total", tenant);
      std::printf(
          "bench_macro: %s: %.0f req, %.0f shed, p99 %.2f ms, "
          "cost %.1f (server view)\n",
          tenant.c_str(), sum_stat("tenant_requests_total", tenant),
          sum_stat("tenant_shed_total", tenant),
          max_quantile(tenant, "0.99"),
          sum_stat("tenant_metered_cost_total", tenant));
    }
    const double drift =
        total.cost > 0 ? (server_cost - total.cost) / total.cost : 0.0;
    std::printf(
        "bench_macro: stats: %zu mid-run samples; server metered cost %.1f "
        "vs client %.1f (drift %+.2f%%)\n",
        stats_samples.load(), server_cost, total.cost, 100.0 * drift);
  } else {
    std::printf("bench_macro: stats: %zu mid-run samples; final STATS "
                "incomplete (%zu of %zu shards answered)\n",
                stats_samples.load(), shard_stats.size(), args.shards);
  }

  // ---- Differential oracle ----------------------------------------------
  // Re-execute every *distinct* sampled pool query on a fresh, serial,
  // cache-less Mediator over an identical federation, then hold every
  // sampled served answer to that reference byte-for-byte. Distinct-query
  // dedup keeps the oracle cost bounded by the pool size while still
  // crediting every sampled request to the verdict.
  size_t sampled = 0;
  for (const TenantResult& r : results) sampled += r.samples.size();
  size_t divergences = 0;
  size_t distinct = 0;
  if (sampled > 0) {
    auto oracle_catalog = workload.MakeOracleCatalog();
    if (!oracle_catalog.ok()) {
      std::fprintf(stderr, "oracle catalog: %s\n",
                   oracle_catalog.status().ToString().c_str());
      return 1;
    }
    Mediator oracle(std::move(oracle_catalog).value());
    const MediatorOptions serial;  // sequential, uncached, fresh statistics
    std::map<size_t, std::string> reference;
    for (const TenantResult& r : results) {
      for (const auto& [index, answer] : r.samples) {
        auto it = reference.find(index);
        if (it == reference.end()) {
          Result<QueryAnswer> truth =
              oracle.AnswerSql(workload.pool()[index], serial);
          if (!truth.ok()) {
            std::fprintf(stderr, "oracle: %s\n",
                         truth.status().ToString().c_str());
            return 1;
          }
          it = reference.emplace(index, truth->items.ToString()).first;
          ++distinct;
        }
        if (answer != it->second) {
          if (divergences < 5) {
            std::fprintf(stderr,
                         "DIVERGENCE pool[%zu]:\n  sql:    %s\n"
                         "  served: %s\n  oracle: %s\n",
                         index, workload.pool()[index].c_str(),
                         answer.c_str(), it->second.c_str());
          }
          ++divergences;
        }
      }
    }
  }
  std::printf(
      "bench_macro: oracle: %zu divergences (%zu answers sampled, "
      "%zu distinct queries re-executed serially)\n",
      divergences, sampled, distinct);

  // ---- BENCH_<date>.json -------------------------------------------------
  if (!args.out.empty()) {
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char day[16], stamp[32];
    std::strftime(day, sizeof(day), "%Y-%m-%d", &utc);
    std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    std::string path = args.out;
    const bool is_file = path.size() > 5 &&
                         path.compare(path.size() - 5, 5, ".json") == 0;
    if (!is_file) {
      if (!path.empty() && path.back() != '/') path += '/';
      path += StrFormat("BENCH_%s.json", day);
    }
    std::string json = StrFormat(
        "{\n"
        "  \"schema_version\": %d,\n"
        "  \"bench\": \"bench_macro\",\n"
        "  \"date\": \"%s\",\n"
        "  \"seed\": %llu,\n"
        "  \"config\": {\n"
        "    \"tenants\": %zu,\n"
        "    \"duration_seconds\": %g,\n"
        "    \"universe\": %zu,\n"
        "    \"sources\": %zu,\n"
        "    \"conditions\": %zu,\n"
        "    \"pool\": %zu,\n"
        "    \"zipf_theta\": %g,\n"
        "    \"condition_overlap\": %g,\n"
        "    \"shared_fraction\": %g,\n"
        "    \"churn_every\": %zu,\n"
        "    \"oracle_sample\": %g,\n"
        "    \"workers\": %d,\n"
        "    \"max_queue\": %d,\n"
        "    \"shards\": %zu,\n"
        "    \"pace_seconds\": %g,\n"
        "    \"chaos_profile\": \"%s\"\n"
        "  },\n",
        kBenchSchemaVersion, stamp,
        static_cast<unsigned long long>(args.workload.seed), args.tenants,
        args.duration_seconds, args.workload.universe_size,
        args.workload.num_sources, args.workload.num_conditions,
        workload.pool().size(), args.workload.zipf_theta,
        args.workload.condition_overlap, args.workload.shared_fraction,
        args.churn_every, args.oracle_sample, args.workers, args.max_queue,
        args.shards, args.pace_seconds,
        JsonEscape(args.chaos_profile).c_str());
    json += StrFormat(
        "  \"metrics\": {\n"
        "    \"qps\": %.3f,\n"
        "    \"queries\": %zu,\n"
        "    \"elapsed_seconds\": %.3f,\n"
        "    \"errors\": %zu,\n"
        "    \"shed\": %zu,\n"
        "    \"incomplete\": %zu,\n"
        "    \"latency_ms\": {\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f, "
        "\"mean\": %.4f, \"max\": %.4f},\n"
        "    \"cache\": {\"hit_rate\": %.4f, \"containment_rate\": %.4f, "
        "\"hits\": %zu, \"containment_hits\": %zu, \"misses\": %zu, "
        "\"invalidations\": %zu},\n"
        "    \"churn_events\": %zu,\n"
        "    \"metered_cost_total\": %.3f,\n"
        "    \"metered_cost_per_query\": %.5f,\n"
        "    \"items_moved\": {\"sent\": %zu, \"received\": %zu},\n"
        "    \"stats_samples\": %zu\n"
        "  },\n",
        qps, total.ok, elapsed, total.errors, total.shed, total.incomplete,
        p50, p95, p99, mean, max_latency, hit_rate, containment_rate,
        cache.hits, cache.containment_hits, cache.misses,
        cache.invalidations, churn_invalidations.load(), total.cost,
        total.cost / static_cast<double>(total.ok), total.items_sent,
        total.items_received, stats_samples.load());
    // The chaos section pairs the injected-fault tally with the recovery
    // counters and the divergence verdict under that abuse. In a federation
    // of networked sources the failover counter is live too; this harness's
    // in-process sources never fail over, so it reads 0 here.
    json += StrFormat(
        "  \"chaos\": {\n"
        "    \"enabled\": %s,\n"
        "    \"profile\": \"%s\",\n"
        "    \"drop_rate\": %g,\n"
        "    \"torn_write_rate\": %g,\n"
        "    \"seed\": %llu,\n"
        "    \"drops\": %llu,\n"
        "    \"torn_writes\": %llu,\n"
        "    \"refusals\": %llu,\n"
        "    \"client_reconnects\": %zu,\n"
        "    \"service_replays\": %zu,\n"
        "    \"source_failovers\": %llu,\n"
        "    \"divergences\": %zu\n"
        "  },\n",
        args.chaos.enabled() ? "true" : "false",
        JsonEscape(args.chaos_profile).c_str(), args.chaos.drop_rate,
        args.chaos.torn_write_rate,
        static_cast<unsigned long long>(args.chaos.seed),
        static_cast<unsigned long long>(chaos_drops),
        static_cast<unsigned long long>(chaos_torn),
        static_cast<unsigned long long>(chaos_refusals), total.reconnects,
        idempotent_replays,
        static_cast<unsigned long long>(
            MetricsRegistry::Global()
                .counter(metrics::kSourceFailoversTotal)
                .value()),
        divergences);
    // Columnar data-plane counters, process-wide over the whole run (the
    // service and its sources are in-process). batch_evals counts condition
    // batch-kernel invocations; rows is their total input cardinality.
    const ColumnarEvalStats local_eval = GetColumnarEvalStats();
    json += StrFormat(
        "  \"local_eval\": {\n"
        "    \"batch_evals\": %llu,\n"
        "    \"batch_rows_evaluated\": %llu,\n"
        "    \"semijoin_probes_skipped\": %llu\n"
        "  },\n",
        static_cast<unsigned long long>(local_eval.batch_evals),
        static_cast<unsigned long long>(local_eval.rows_evaluated),
        static_cast<unsigned long long>(
            MetricsRegistry::Global()
                .counter(metrics::kSemijoinProbesSkipped)
                .value()));
    // The sharded-fleet section: the router's own account of the run.
    // warm_hit_locality is the property the rendezvous hash exists to
    // deliver — of the forwards whose canonical key was seen before, the
    // fraction served by the same shard as last time (so its plan memo and
    // SourceCallCache were already hot). tools/bench_diff.py gates it.
    if (router != nullptr) {
      const double locality =
          router_counters.warm_forwards > 0
              ? static_cast<double>(router_counters.warm_hits) /
                    static_cast<double>(router_counters.warm_forwards)
              : 1.0;
      json += StrFormat(
          "  \"shards\": {\n"
          "    \"count\": %zu,\n"
          "    \"per_shard\": [",
          args.shards);
      for (size_t s = 0; s < args.shards; ++s) {
        json += StrFormat(
            "%s\n      {\"name\": \"%s\", \"forwards\": %zu, "
            "\"qps\": %.3f}",
            s == 0 ? "" : ",", JsonEscape(shard_specs[s].name).c_str(),
            router_counters.per_shard_forwards[s],
            static_cast<double>(router_counters.per_shard_forwards[s]) /
                elapsed);
      }
      json += StrFormat(
          "\n    ],\n"
          "    \"forwards\": %zu,\n"
          "    \"warm_forwards\": %zu,\n"
          "    \"warm_hits\": %zu,\n"
          "    \"warm_hit_locality\": %.4f,\n"
          "    \"failovers\": %zu,\n"
          "    \"invalidate_fanouts\": %zu,\n"
          "    \"cross_shard_bytes\": %llu\n"
          "  },\n",
          router_counters.forwards, router_counters.warm_forwards,
          router_counters.warm_hits, locality, router_counters.failovers,
          router_counters.invalidate_fanouts,
          static_cast<unsigned long long>(router_counters.forward_bytes));
    }
    // Per-tenant SLO rows from the fleet's own STATS expositions — what
    // tools/bench_diff.py gates per-tenant p99 on. Counters sum across
    // shards; quantiles take the per-shard max (exact when --shards=1);
    // error_rate is recomputed from the summed counters, since rates do
    // not add.
    json += "  \"tenants\": {";
    if (have_server_stats) {
      for (size_t t = 0; t < args.tenants; ++t) {
        const std::string tenant = StrFormat("tenant-%zu", t);
        const double requests = sum_stat("tenant_requests_total", tenant);
        const double tenant_errors = sum_stat("tenant_errors_total", tenant);
        json += StrFormat(
            "%s\n    \"%s\": {\"requests\": %.0f, \"errors\": %.0f, "
            "\"shed\": %.0f, \"degraded\": %.0f, \"error_rate\": %.4f, "
            "\"metered_cost\": %.3f, \"latency_ms\": "
            "{\"p50\": %.4f, \"p95\": %.4f, \"p99\": %.4f}}",
            t == 0 ? "" : ",", JsonEscape(tenant).c_str(), requests,
            tenant_errors, sum_stat("tenant_shed_total", tenant),
            sum_stat("tenant_degraded_total", tenant),
            requests > 0 ? tenant_errors / requests : 0.0,
            sum_stat("tenant_metered_cost_total", tenant),
            max_quantile(tenant, "0.5"), max_quantile(tenant, "0.95"),
            max_quantile(tenant, "0.99"));
      }
      json += "\n  ";
    }
    json += "},\n";
    json += StrFormat(
        "  \"oracle\": {\"sampled\": %zu, \"distinct\": %zu, "
        "\"divergences\": %zu}\n"
        "}\n",
        sampled, distinct, divergences);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_macro: cannot write %s\n",
                   JsonEscape(path).c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("bench_macro: wrote %s\n", path.c_str());
  }

  if (divergences > 0) {
    std::fprintf(stderr,
                 "bench_macro: FAILED — served answers diverged from the "
                 "serial oracle\n");
    return 1;
  }
  if (total.errors > 0) {
    std::fprintf(stderr, "bench_macro: FAILED — %zu queries errored\n",
                 total.errors);
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (args->help) {
    PrintUsage();
    return 0;
  }
  return RunHarness(*args);
}

}  // namespace
}  // namespace bench
}  // namespace fusion

int main(int argc, char** argv) { return fusion::bench::Run(argc, argv); }
