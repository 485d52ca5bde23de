#include "router/router.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "protocol/exchange.h"
#include "protocol/tcp_server.h"

namespace fusion {
namespace {

/// Idle upstream connections kept per shard; extras are closed on release.
constexpr size_t kMaxIdleLinksPerShard = 8;

/// Warm-locality ledger bound: past this many distinct keys the ledger is
/// cleared (stats restart cold; routing is stateless and unaffected).
constexpr size_t kMaxWarmEntries = 64 * 1024;

/// Re-tickets a shard's response for the client: shard index in the low
/// byte, so STATUS and CANCEL route straight back to the owning shard.
ClientResponse Reticket(ClientResponse response, size_t shard) {
  if (response.ticket != 0) {
    response.ticket = (response.ticket << 8) | static_cast<uint64_t>(shard);
  }
  return response;
}

}  // namespace

RetryPolicy QueryRouter::DefaultReconnectPolicy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.25;
  return policy;
}

QueryRouter::QueryRouter(ShardMap shards, const Options& options)
    : shards_(std::move(shards)), options_(options) {
  pools_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    pools_.push_back(std::make_unique<ShardPool>());
  }
  counters_.per_shard_forwards.assign(shards_.size(), 0);
}

QueryRouter::~QueryRouter() { Shutdown(); }

void QueryRouter::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  for (const std::unique_ptr<ShardPool>& pool : pools_) {
    std::lock_guard<std::mutex> lock(pool->mutex);
    pool->idle.clear();  // MessageSocket destructors close the fds
  }
}

Result<std::unique_ptr<QueryRouter::Link>> QueryRouter::AcquireLink(
    size_t shard) {
  {
    ShardPool& pool = *pools_[shard];
    std::lock_guard<std::mutex> lock(pool.mutex);
    if (!pool.idle.empty()) {
      std::unique_ptr<Link> link = std::move(pool.idle.back());
      pool.idle.pop_back();
      return link;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::Unavailable("router is shutting down");
    }
  }
  FUSION_ASSIGN_OR_RETURN(
      HelloResult hello,
      DialAndHello(shards_.shard(shard).endpoint, options_.server_name));
  auto link = std::make_unique<Link>();
  link->socket = std::move(hello.socket);
  link->features = FeatureSet::FromNames(hello.response.features);
  return link;
}

void QueryRouter::ReleaseLink(size_t shard, std::unique_ptr<Link> link) {
  ShardPool& pool = *pools_[shard];
  std::lock_guard<std::mutex> lock(pool.mutex);
  if (pool.idle.size() < kMaxIdleLinksPerShard) {
    pool.idle.push_back(std::move(link));
  }
  // else: dropped — the destructor closes the connection.
}

Result<ClientResponse> QueryRouter::Exchange(size_t shard,
                                             const ClientRequest& request) {
  const std::string wire = SerializeClientRequest(request);
  // Resend safety is the client's rule — and always holds for forwarded
  // SUBMITs, because the router mints a request-id when the client sent
  // none. A dead link is dropped, never pooled; a pooled one may simply
  // have gone stale since its last use, and the redial gets a fresh one.
  std::unique_ptr<Link> link;
  ExchangeChannel channel;
  channel.connect = [this, shard, &link]() -> Result<MessageSocket*> {
    FUSION_ASSIGN_OR_RETURN(link, AcquireLink(shard));
    return &link->socket;
  };
  channel.drop = [&link] { link.reset(); };
  channel.resend_safe = [&link, &request] {
    return ResendSafe(request, link->features);
  };
  const Result<std::string> reply =
      RedialingExchange(wire, std::max(1, options_.reconnect.max_attempts),
                        options_.reconnect, channel);
  if (!reply.ok()) {
    return Status(reply.status().code(),
                  reply.status().message() + " (shard " +
                      shards_.shard(shard).name + " at " +
                      shards_.shard(shard).endpoint + ")");
  }
  // A whole but malformed frame is final: kParseError, never a failover
  // that would run the query a second time on the next shard.
  FUSION_ASSIGN_OR_RETURN(ClientResponse response, ParseClientResponse(*reply));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.forward_bytes += wire.size();
  }
  static Counter& bytes =
      MetricsRegistry::Global().counter(metrics::kRouterForwardBytes);
  bytes.Increment(wire.size());
  ReleaseLink(shard, std::move(link));
  return response;
}

ClientResponse QueryRouter::ForwardSubmit(const ClientRequest& request) {
  if (request.sql.empty()) {
    return ClientErrorResponse(
        Status::InvalidArgument("SUBMIT requires an sql line"));
  }
  const std::string key = CanonicalQueryKey(request.sql);
  const std::vector<size_t> ranked = shards_.Ranked(key);
  ClientRequest forward = request;
  if (forward.request_id == 0) {
    forward.request_id = MintRequestId(kRouterRequestIdSalt);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.forwards;
  }
  static Counter& forwards =
      MetricsRegistry::Global().counter(metrics::kRouterForwardsTotal);
  forwards.Increment();
  Status last_error = Status::Unavailable("no shards");
  for (size_t i = 0; i < ranked.size(); ++i) {
    const size_t shard = ranked[i];
    Result<ClientResponse> response = Exchange(shard, forward);
    if (!response.ok()) {
      last_error = response.status();
      if (!IsTransportError(last_error)) {
        return ClientErrorResponse(last_error);
      }
      if (i + 1 < ranked.size()) {
        // Owner down: the next-ranked shard serves this key (cold cache at
        // worst — queries are read-only, so never a wrong answer).
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++counters_.failovers;
        }
        static Counter& failovers = MetricsRegistry::Global().counter(
            metrics::kRouterFailoversTotal);
        failovers.Increment();
      }
      continue;
    }
    {
      // Warm-locality ledger: a repeated key is a warm forward; a warm
      // forward served by the same shard as last time is a warm hit — the
      // property the rendezvous hash exists to deliver.
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.per_shard_forwards[shard];
      const auto seen = last_shard_.find(key);
      if (seen != last_shard_.end()) {
        ++counters_.warm_forwards;
        static Counter& warm = MetricsRegistry::Global().counter(
            metrics::kRouterWarmForwardsTotal);
        warm.Increment();
        if (seen->second == shard) {
          ++counters_.warm_hits;
          static Counter& hits = MetricsRegistry::Global().counter(
              metrics::kRouterWarmHitsTotal);
          hits.Increment();
        }
      }
      if (last_shard_.size() >= kMaxWarmEntries) last_shard_.clear();
      last_shard_[key] = shard;
    }
    return Reticket(std::move(response).value(), shard);
  }
  return ClientErrorResponse(last_error);
}

ClientResponse QueryRouter::ForwardTicketVerb(const ClientRequest& request) {
  const size_t shard = static_cast<size_t>(request.ticket & 0xff);
  const uint64_t upstream_ticket = request.ticket >> 8;
  if (shard >= shards_.size() || upstream_ticket == 0) {
    return ClientErrorResponse(Status::NotFound(
        "unknown ticket " + std::to_string(request.ticket)));
  }
  ClientRequest forward = request;
  forward.ticket = upstream_ticket;
  Result<ClientResponse> response = Exchange(shard, forward);
  if (!response.ok()) return ClientErrorResponse(response.status());
  return Reticket(std::move(response).value(), shard);
}

ClientResponse QueryRouter::FanOutInvalidate(const ClientRequest& request) {
  if (request.source.empty()) {
    return ClientErrorResponse(
        Status::InvalidArgument("INVALIDATE requires a source line"));
  }
  // Broadcast to every shard — coherence is fleet-wide. The version stamp
  // makes delivery idempotent per shard, so a retry after a partial
  // broadcast (one shard down) re-applies nowhere it already landed.
  bool any_applied = false;
  Status first_error = Status::Ok();
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const Result<ClientResponse> response = Exchange(shard, request);
    if (!response.ok()) {
      if (first_error.ok()) first_error = response.status();
      continue;
    }
    if (!response.value().ok) {
      if (first_error.ok()) {
        first_error = Status(response.value().error_code,
                             response.value().error_message);
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.invalidate_fanouts;
    }
    static Counter& fanouts = MetricsRegistry::Global().counter(
        metrics::kRouterInvalidateFanoutsTotal);
    fanouts.Increment();
    if (response.value().state == "applied") any_applied = true;
  }
  if (!first_error.ok()) return ClientErrorResponse(first_error);
  ClientResponse response;
  response.state = any_applied ? "applied" : "stale";
  return response;
}

ClientResponse QueryRouter::HandleParsed(const ClientRequest& request) {
  switch (request.kind) {
    case ClientRequest::Kind::kHello: {
      ClientResponse response;
      response.server = options_.server_name;
      response.features = ClientProtocolFeatures();
      return response;
    }
    case ClientRequest::Kind::kSubmit:
      return ForwardSubmit(request);
    case ClientRequest::Kind::kStatus:
    case ClientRequest::Kind::kCancel:
      return ForwardTicketVerb(request);
    case ClientRequest::Kind::kStats: {
      ClientResponse response;
      response.server = options_.server_name;
      for (const std::string& line : StrSplit(StatsText(), '\n')) {
        if (!line.empty()) response.stats_lines.push_back(line);
      }
      return response;
    }
    case ClientRequest::Kind::kInvalidate:
      return FanOutInvalidate(request);
  }
  return ClientErrorResponse(Status::Internal("unknown request kind"));
}

std::string QueryRouter::Handle(const std::string& request_text) {
  const Result<ClientRequest> request = ParseClientRequest(request_text);
  if (!request.ok()) {
    return SerializeClientResponse(ClientErrorResponse(request.status()));
  }
  return SerializeClientResponse(HandleParsed(request.value()));
}

void QueryRouter::ServeConnection(ChaosSocket socket) {
  ServeFrames(socket, kMaxClientProtocolFrameBytes,
              options_.stall_deadline_seconds,
              [this](const std::string& request) { return Handle(request); });
}

QueryRouter::Counters QueryRouter::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::string QueryRouter::StatsText() const {
  // The router has no tenant SLO table (it does not execute queries); its
  // exposition is the process metrics — the router_* counters included.
  return RenderStatsText(MetricsRegistry::Global().Snapshot(), {});
}

}  // namespace fusion
