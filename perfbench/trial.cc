#include "perfbench/trial.h"

#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "common/str_util.h"
#include "mediator/client.h"
#include "mediator/mediator.h"
#include "mediator/service.h"
#include "obs/metrics.h"
#include "protocol/client_protocol.h"
#include "relational/columnar.h"
#include "router/router.h"
#include "router/shard_map.h"

namespace fusion {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Distinct queries a traced trial re-sends as EXPLAIN requests for
/// optimizer.estimate_error.
constexpr size_t kExplainQueries = 64;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

uint64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name).value();
}

/// `count` requests as pool indices, drawn from the pool's Zipf popularity
/// (rank r ∝ 1/(r+1)^theta) in blocks of `block` by systematic sampling:
/// a block takes the popularity quantiles (j + u) / block, j < block, and
/// is then shuffled. So every block holds each query in its share to
/// within one. The offset u comes from `part` alone, not from the seed:
/// every run of a workload sends the same requests, and the seed decides
/// only their order. Parts 0, 1, ... step u by the golden ratio, so the
/// trials of a run cover different queries when a block samples a large
/// pool sparsely.
std::vector<size_t> DrawRequests(size_t pool, double theta, size_t count,
                                 size_t block, size_t part, uint64_t seed) {
  std::vector<double> cdf(pool);
  double sum = 0.0;
  for (size_t r = 0; r < pool; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf[r] = sum;
  }
  const double offset =
      std::fmod(0.5 + 0.6180339887498949 * static_cast<double>(part), 1.0);
  if (block == 0) block = count;
  Rng rng(MixSeed(seed, 0x1000));
  std::vector<size_t> out;
  out.reserve(count);
  while (out.size() < count) {
    const size_t n = std::min(block, count - out.size());
    const size_t begin = out.size();
    for (size_t j = 0; j < n; ++j) {
      const double u = (static_cast<double>(j) + offset) /
                       static_cast<double>(n) * sum;
      const size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      out.push_back(std::min(rank, pool - 1));
    }
    std::shuffle(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(),
                 rng.engine());
  }
  return out;
}

/// The source the n-th invalidation (n >= 1) of a trial hits: round robin,
/// so every trial spreads its churn evenly over the sources.
size_t ChurnSource(size_t n, size_t sources) { return (n - 1) % sources; }

/// Oracle sampling is a pure function of (seed, query ordinal), so every
/// trial of a seed checks the same requests.
bool Sampled(uint64_t seed, size_t ordinal, double share) {
  return static_cast<double>(MixSeed(seed, 0x5000 + ordinal) % 1000000) <
         share * 1000000.0;
}

/// The serving fleet of one trial: `shards` services over byte-identical
/// federations, each on its own loopback listener, and with more than one
/// shard a QueryRouter in front. Traced fleets serve through TimingSource
/// catalogs and the ServeTraced loops. The destructor stops everything;
/// every client connection must be closed first.
class Fleet {
 public:
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  static Result<std::unique_ptr<Fleet>> Start(const WorkloadConfig& config,
                                              bench::MacroWorkload& workload,
                                              bool traced) {
    std::unique_ptr<Fleet> fleet(new Fleet());
    // Pinned, not left to the library defaults (which they equal today), so
    // a change of default does not change what the benchmark serves.
    QueryService::Options options;
    options.workers = 4;     // one per core of the 4-core target
    options.max_queue = 64;  // > clients: admission never sheds
    options.client.execution.simulated_seconds_per_cost = config.pace_seconds;
    options.client.cache.max_bytes = config.cache_max_bytes;
    std::vector<Shard> shard_specs;
    for (size_t s = 0; s < config.shards; ++s) {
      SourceCatalog catalog;
      if (s == 0) {
        catalog = std::move(workload.catalog());
      } else {
        FUSION_ASSIGN_OR_RETURN(catalog, workload.MakeOracleCatalog());
      }
      if (traced) {
        fleet->bases_.push_back(
            std::make_unique<SourceCatalog>(std::move(catalog)));
        FUSION_ASSIGN_OR_RETURN(catalog, WrapCatalog(*fleet->bases_.back()));
      }
      options.server_name = StrFormat("perfbench-shard-%zu", s);
      fleet->services_.push_back(
          std::make_unique<QueryService>(Mediator(std::move(catalog)),
                                         options));
      FUSION_ASSIGN_OR_RETURN(TcpListener listener,
                              TcpListener::Bind("127.0.0.1", 0));
      shard_specs.push_back(
          Shard{StrFormat("shard-%zu", s),
                "127.0.0.1:" + std::to_string(listener.port())});
      fleet->listeners_.push_back(
          std::make_unique<TcpListener>(std::move(listener)));
    }
    fleet->endpoint_ = shard_specs[0].endpoint;
    if (config.shards > 1) {
      FUSION_ASSIGN_OR_RETURN(ShardMap map, ShardMap::Make(shard_specs));
      QueryRouter::Options router_options;
      router_options.server_name = "perfbench-router";
      fleet->router_ =
          std::make_unique<QueryRouter>(std::move(map), router_options);
      FUSION_ASSIGN_OR_RETURN(TcpListener listener,
                              TcpListener::Bind("127.0.0.1", 0));
      fleet->endpoint_ = "127.0.0.1:" + std::to_string(listener.port());
      fleet->router_listener_ =
          std::make_unique<TcpListener>(std::move(listener));
    }
    for (size_t s = 0; s < config.shards; ++s) {
      QueryService* service = fleet->services_[s].get();
      fleet->Accept(*fleet->listeners_[s], [service, traced](
                                                MessageSocket socket) {
        if (traced) {
          ServeTraced(std::move(socket), kServiceHandleSpan,
                      [service](const std::string& m) {
                        return service->Handle(m);
                      });
        } else {
          service->ServeConnection(std::move(socket));
        }
      });
    }
    if (fleet->router_ != nullptr) {
      QueryRouter* router = fleet->router_.get();
      fleet->Accept(*fleet->router_listener_, [router, traced](
                                                  MessageSocket socket) {
        if (traced) {
          ServeTraced(std::move(socket), kRouterHandleSpan,
                      [router](const std::string& m) {
                        return router->Handle(m);
                      });
        } else {
          router->ServeConnection(std::move(socket));
        }
      });
    }
    return fleet;
  }

  ~Fleet() {
    // shutdown(2) before close(2) wakes a blocked accept(). Client-facing
    // edge first, then the router's pooled upstream links (so the shard
    // serve loops see EOF), then the shard listeners.
    if (router_listener_ != nullptr) Close(*router_listener_);
    if (router_ != nullptr) router_->Shutdown();
    for (auto& listener : listeners_) Close(*listener);
    for (std::thread& acceptor : acceptors_) acceptor.join();
    std::lock_guard<std::mutex> lock(connection_mutex_);
    for (std::thread& connection : connections_) connection.join();
  }

  const std::string& endpoint() const { return endpoint_; }
  size_t size() const { return services_.size(); }
  QueryService& service(size_t s) { return *services_[s]; }
  QueryRouter* router() { return router_.get(); }

  SourceCallCache::Stats CacheStats() const {
    SourceCallCache::Stats total{};
    for (const auto& service : services_) {
      const SourceCallCache::Stats s =
          service->session().cache().StatsSnapshot();
      total.hits += s.hits;
      total.misses += s.misses;
      total.containment_hits += s.containment_hits;
      total.evictions += s.evictions;
      total.invalidations += s.invalidations;
      total.flights_deduplicated += s.flights_deduplicated;
    }
    return total;
  }

 private:
  Fleet() = default;

  static void Close(TcpListener& listener) {
    if (!listener.valid()) return;
    ::shutdown(listener.fd(), SHUT_RDWR);
    listener.Close();
  }

  template <typename Serve>
  void Accept(TcpListener& listener, Serve serve) {
    acceptors_.emplace_back([this, &listener, serve] {
      for (;;) {
        Result<MessageSocket> accepted = listener.Accept();
        if (!accepted.ok()) return;  // listener closed: shutting down
        std::lock_guard<std::mutex> lock(connection_mutex_);
        connections_.emplace_back(
            [serve, socket = std::move(accepted).value()]() mutable {
              serve(std::move(socket));
            });
      }
    });
  }

  std::vector<std::unique_ptr<SourceCatalog>> bases_;
  std::vector<std::unique_ptr<QueryService>> services_;
  std::vector<std::unique_ptr<TcpListener>> listeners_;
  std::unique_ptr<QueryRouter> router_;
  std::unique_ptr<TcpListener> router_listener_;
  std::string endpoint_;
  std::mutex connection_mutex_;
  std::vector<std::thread> connections_;
  std::vector<std::thread> acceptors_;
};

/// The counters a trial reports as deltas over its timed phase.
struct Counters {
  SourceCallCache::Stats cache;
  QueryRouter::Counters router;
  size_t shed = 0;
  uint64_t retries = 0;
  uint64_t breaker_fast_fails = 0;
  uint64_t probes_skipped = 0;
  uint64_t batch_rows = 0;

  static Counters Read(Fleet& fleet) {
    Counters c;
    c.cache = fleet.CacheStats();
    if (fleet.router() != nullptr) c.router = fleet.router()->counters();
    for (size_t s = 0; s < fleet.size(); ++s) {
      c.shed += fleet.service(s).shedded();
    }
    c.retries = CounterValue(metrics::kRetriesTotal);
    c.breaker_fast_fails = CounterValue(metrics::kBreakerFastFailsTotal);
    c.probes_skipped = CounterValue(metrics::kSemijoinProbesSkipped);
    c.batch_rows = GetColumnarEvalStats().rows_evaluated;
    return c;
  }
};

void StoreDeltas(const Counters& before, const Counters& after,
                 TrialResult& out) {
  out.cache.hits = after.cache.hits - before.cache.hits;
  out.cache.misses = after.cache.misses - before.cache.misses;
  out.cache.containment_hits =
      after.cache.containment_hits - before.cache.containment_hits;
  out.cache.evictions = after.cache.evictions - before.cache.evictions;
  out.cache.invalidations =
      after.cache.invalidations - before.cache.invalidations;
  out.cache.flights_deduplicated =
      after.cache.flights_deduplicated - before.cache.flights_deduplicated;
  out.router_warm_forwards =
      after.router.warm_forwards - before.router.warm_forwards;
  out.router_warm_hits = after.router.warm_hits - before.router.warm_hits;
  out.router_failovers = after.router.failovers - before.router.failovers;
  out.router_invalidate_fanouts =
      after.router.invalidate_fanouts - before.router.invalidate_fanouts;
  out.router_forward_bytes =
      after.router.forward_bytes - before.router.forward_bytes;
  out.service_shed = after.shed - before.shed;
  out.retries = after.retries - before.retries;
  out.breaker_fast_fails = after.breaker_fast_fails - before.breaker_fast_fails;
  out.probes_skipped = after.probes_skipped - before.probes_skipped;
  out.batch_rows = after.batch_rows - before.batch_rows;
}

/// What one load thread saw; merged after the join.
struct ThreadTally {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  size_t attempted = 0;
  size_t queries_attempted = 0;
  size_t ok = 0;
  size_t errors = 0;
  size_t shed = 0;
  size_t incomplete = 0;
  size_t within_slo = 0;
  double cost = 0.0;
  size_t items_sent = 0;
  size_t items_received = 0;
  std::vector<std::pair<size_t, std::string>> samples;
};

/// "plan <name> (<strategy>), estimated cost E, measured cost M".
bool ParseExplainHeader(const std::vector<std::string>& lines, double* est,
                        double* measured) {
  if (lines.empty()) return false;
  const std::string& head = lines.front();
  const size_t e = head.find("estimated cost ");
  const size_t m = head.find("measured cost ");
  if (e == std::string::npos || m == std::string::npos) return false;
  *est = std::atof(head.c_str() + e + 15);
  *measured = std::atof(head.c_str() + m + 14);
  return true;
}

/// Sends one query and files its outcome. `due` is when the request was
/// meant to leave (its send time in a closed loop).
void Issue(Client& client, const bench::MacroWorkload& workload, size_t index,
           size_t ordinal, uint64_t seed, const WorkloadConfig& config,
           Clock::time_point due, TraceCollector* collector,
           ThreadTally& tally) {
  const std::string& sql = workload.pool()[index];
  ++tally.attempted;
  ++tally.queries_attempted;
  // Traced or not, the request is the same SUBMIT; a traced one carries the
  // root span's trace id.
  std::optional<ScopedSpan> root;
  uint64_t trace_id = 0;
  if (collector != nullptr) {
    root.emplace(SpanCategory::kRpc, kRootSpan);
    trace_id = Tracer::CurrentContext().trace_id;
  }
  const Result<ClientAnswer> answer = client.QuerySql(sql);
  root.reset();
  const Clock::time_point done = Clock::now();
  if (collector != nullptr) collector->Complete(trace_id);
  if (!answer.ok()) {
    if (answer.status().code() == StatusCode::kUnavailable) {
      ++tally.shed;
    } else {
      ++tally.errors;
    }
    return;
  }
  const double latency_ms = Millis(done - due);
  if (!answer->complete) {
    ++tally.incomplete;
  } else {
    ++tally.ok;
    tally.latency_ms.push_back(latency_ms);
    if (latency_ms <= config.slo_ms) ++tally.within_slo;
  }
  tally.cost += answer->cost;
  tally.items_sent += answer->items_sent;
  tally.items_received += answer->items_received;
  if (answer->complete && Sampled(seed, ordinal, config.oracle_sample)) {
    tally.samples.emplace_back(index, answer->items.ToString());
  }
  if (collector != nullptr) {
    // The FUSIONQ/1 codec on this request/answer pair, timed through the
    // public entry points the client and the service call.
    ScopedSpan codec(SpanCategory::kRpc, kCodecSpan);
    ClientRequest request;
    request.kind = ClientRequest::Kind::kSubmit;
    request.client_id = "perfbench";
    request.sql = sql;
    request.trace_id = trace_id;
    request.request_id = ordinal + 1;
    const Result<ClientRequest> parsed_request =
        ParseClientRequest(SerializeClientRequest(request));
    ClientResponse response;
    response.ticket = ordinal + 1;
    response.items.assign(answer->items.begin(), answer->items.end());
    response.cost = answer->cost;
    response.source_queries = answer->source_queries;
    response.cache_hits = answer->cache_hits;
    response.cache_misses = answer->cache_misses;
    response.items_sent = answer->items_sent;
    response.items_received = answer->items_received;
    const Result<ClientResponse> parsed_response =
        ParseClientResponse(SerializeClientResponse(response));
    if (!parsed_request.ok() || !parsed_response.ok()) ++tally.errors;
  }
}

/// Sends the first `limit` distinct sampled queries again as EXPLAIN
/// requests and sums |estimated - metered| and metered cost off each plan
/// header. Runs after the timed phase, so it adds nothing to the figures the
/// timed phase reports.
Status ExplainPass(Client& client, const bench::MacroWorkload& workload,
                   size_t limit, TrialResult& out) {
  std::vector<size_t> indices;
  for (const auto& sample : out.samples) {
    if (indices.size() == limit) break;
    if (std::find(indices.begin(), indices.end(), sample.first) ==
        indices.end()) {
      indices.push_back(sample.first);
    }
  }
  for (const size_t index : indices) {
    FUSION_ASSIGN_OR_RETURN(ClientAnswer answer,
                            client.QuerySqlExplained(workload.pool()[index]));
    double est = 0.0, measured = 0.0;
    if (!ParseExplainHeader(answer.explain_lines, &est, &measured)) {
      return Status::Internal("EXPLAIN answer without a plan header");
    }
    out.estimate_error_abs += std::fabs(est - measured);
    out.estimate_metered += measured;
  }
  return Status::Ok();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

bench::MacroWorkloadSpec DatasetSpec(const WorkloadConfig& config) {
  bench::MacroWorkloadSpec spec = config.spec;
  spec.seed = kDatasetSeed;
  return spec;
}

Result<TrialResult> RunTrial(const WorkloadConfig& config, size_t part,
                             uint64_t seed, bool traced, bool load) {
  TrialResult out;
  const Clock::time_point setup_start = Clock::now();
  FUSION_ASSIGN_OR_RETURN(bench::MacroWorkload workload,
                          bench::MacroWorkload::Generate(DatasetSpec(config)));
  const std::vector<std::string> source_names = workload.catalog().Names();
  // Request schedule: one draw dealt round robin, so client c sends
  // requests c, c + clients, ... (the open loop has one stream, cut into
  // slots any client may take). Warm-up is set-up: the same requests
  // whatever the seed, so set-up time measures the program, not the draw.
  const size_t streams = config.open_loop ? 1 : config.clients;
  const size_t per_stream = config.queries / streams;
  const auto deal = [&](size_t draw_part, uint64_t draw_seed,
                        size_t per_client) {
    const std::vector<size_t> drawn =
        DrawRequests(workload.pool().size(), config.spec.zipf_theta,
                     per_client * streams, config.draw_block, draw_part,
                     draw_seed);
    std::vector<std::vector<size_t>> dealt(streams);
    for (size_t i = 0; i < drawn.size(); ++i) {
      dealt[i % streams].push_back(drawn[i]);
    }
    return dealt;
  };
  const std::vector<std::vector<size_t>> warmup =
      deal(0, kDatasetSeed, config.warmup_queries);
  const std::vector<std::vector<size_t>> timed = deal(part, seed, per_stream);

  FUSION_ASSIGN_OR_RETURN(std::unique_ptr<Fleet> fleet,
                          Fleet::Start(config, workload, traced));
  std::vector<Client> clients;
  clients.reserve(config.clients);
  for (size_t c = 0; c < config.clients; ++c) {
    FUSION_ASSIGN_OR_RETURN(
        Client client, Client::Builder()
                           .To(Client::Target::Remote(fleet->endpoint()))
                           .ClientId(StrFormat("client-%zu", c))
                           .Build());
    clients.push_back(std::move(client));
  }
  // Warm-up: the whole pool once, split across the clients, and/or the
  // head of each stream, sequential per client.
  {
    std::vector<std::thread> threads;
    std::atomic<size_t> failures{0};
    const size_t pool = workload.pool().size();
    for (size_t c = 0; c < config.clients; ++c) {
      threads.emplace_back([&, c] {
        if (config.warm_pass) {
          for (size_t i = c; i < pool; i += config.clients) {
            if (!clients[c].QuerySql(workload.pool()[i]).ok()) ++failures;
          }
        }
        if (c < streams) {
          for (const size_t index : warmup[c]) {
            if (!clients[c].QuerySql(workload.pool()[index]).ok()) ++failures;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failures.load() > 0) {
      return Status::Internal(
          StrFormat("%zu warm-up queries failed", failures.load()));
    }
  }
  out.setup_s = Seconds(Clock::now() - setup_start);
  if (!load) {
    clients.clear();
    return out;
  }

  // ---- Timed phase: starts once every client is connected and warm ------
  const Counters before = Counters::Read(*fleet);
  std::unique_ptr<TraceCollector> collector;
  if (traced) {
    collector = std::make_unique<TraceCollector>(config.pace_seconds);
    Tracer::Global().Clear();
    Tracer::Global().Enable();
  }
  std::vector<ThreadTally> tallies(config.clients);
  std::atomic<size_t> next_slot{0};
  const size_t churn = config.churn_every;
  // Open loop: query q sits in slot q + q / (churn - 1) of the schedule;
  // every churn-th slot is an INVALIDATE.
  const size_t query_slots = per_stream;
  const size_t invalidate_slots = churn > 1 ? query_slots / (churn - 1) : 0;
  const size_t slots = query_slots + invalidate_slots;
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < config.clients; ++c) {
    threads.emplace_back([&, c] {
      ThreadTally& tally = tallies[c];
      Client& client = clients[c];
      if (!config.open_loop) {
        for (size_t i = 0; i < timed[c].size(); ++i) {
          Issue(client, workload, timed[c][i], c * per_stream + i, seed,
                config, Clock::now(), collector.get(), tally);
        }
        return;
      }
      for (;;) {
        const size_t slot = next_slot.fetch_add(1);
        if (slot >= slots) return;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(slot) / config.rate_qps));
        std::this_thread::sleep_until(due);
        tally.lag_ms.push_back(Millis(Clock::now() - due));
        if (churn > 1 && (slot + 1) % churn == 0) {
          ++tally.attempted;
          const size_t n = (slot + 1) / churn;
          if (!client
                   .InvalidateSource(
                       source_names[ChurnSource(n, source_names.size())],
                       static_cast<uint64_t>(n))
                   .ok()) {
            ++tally.errors;
          }
          continue;
        }
        const size_t query = slot - (churn > 1 ? slot / churn : 0);
        if (query >= timed[0].size()) continue;
        Issue(client, workload, timed[0][query], query, seed, config, due,
              collector.get(), tally);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = Seconds(Clock::now() - start);
  out.peak_rss_mb = PeakRssMb();
  if (traced) {
    Tracer::Global().Disable();
    out.layers = collector->Take();
    out.codec_us = collector->codec_us();
  }
  StoreDeltas(before, Counters::Read(*fleet), out);
  for (size_t s = 0; s < fleet->size(); ++s) {
    out.observed_conditions +=
        fleet->service(s).session().observed_conditions();
  }
  for (const Client& client : clients) out.reconnects += client.reconnects();

  for (ThreadTally& t : tallies) {
    out.latency_ms.insert(out.latency_ms.end(), t.latency_ms.begin(),
                          t.latency_ms.end());
    out.lag_ms.insert(out.lag_ms.end(), t.lag_ms.begin(), t.lag_ms.end());
    out.attempted += t.attempted;
    out.queries_attempted += t.queries_attempted;
    out.ok += t.ok;
    out.errors += t.errors;
    out.shed += t.shed;
    out.incomplete += t.incomplete;
    out.within_slo += t.within_slo;
    out.cost += t.cost;
    out.items_sent += t.items_sent;
    out.items_received += t.items_received;
    for (auto& sample : t.samples) out.samples.push_back(std::move(sample));
  }
  if (traced) {
    FUSION_RETURN_IF_ERROR(
        ExplainPass(clients[0], workload, kExplainQueries, out));
  }
  clients.clear();  // close every connection before the fleet stops
  return out;
}

}  // namespace perfbench
}  // namespace fusion
