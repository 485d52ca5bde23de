#ifndef FUSION_PROTOCOL_REMOTE_SOURCE_H_
#define FUSION_PROTOCOL_REMOTE_SOURCE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "protocol/message.h"
#include "protocol/socket.h"
#include "source/source_wrapper.h"

namespace fusion {

/// Transport for FUSIONP/1: ships one serialized request, returns the
/// serialized response. In-process tests connect it straight to a
/// SourceServer; a networked deployment would put a socket here.
using ProtocolTransport = std::function<std::string(const std::string&)>;

/// The mediator-side endpoint: a SourceWrapper that speaks FUSIONP/1 over a
/// transport. Metadata (name, schema, capabilities) is fetched once via
/// HELLO at construction; every operation round-trips a message and replays
/// the server's charge summaries into the caller's ledger, so cost
/// accounting is identical to in-process wrappers (a property the protocol
/// tests assert).
///
/// Thread-safety: the transport is one bidirectional channel, so round trips
/// are serialized under a mutex — parallel plan workers may call any method
/// concurrently and requests simply queue (matching the one-query-at-a-time
/// source model). Metadata is fixed at Connect time and read without
/// locking.
class RemoteSource : public SourceWrapper {
 public:
  /// Performs the HELLO handshake; fails if the server is unreachable or
  /// speaks a different protocol.
  static Result<std::unique_ptr<RemoteSource>> Connect(
      ProtocolTransport transport);

  /// TCP mode with replica failover: `endpoints` ("host:port") are replicas
  /// of the *same* source (every one must HELLO with the same source name).
  /// Operations stick to the connected replica while it is healthy; on a
  /// transport failure the source redials, rotating to the next replica,
  /// with capped exponential backoff per `policy` (BackoffSeconds — the
  /// same schedule shape source-call retries use). FUSIONP/1 requests are
  /// pure reads, so re-issuing one against another replica is always safe;
  /// charges replay from the one successful response only, so a failed
  /// attempt is never double-metered. With every replica exhausted the
  /// operation fails kUnavailable — the transient class the executor's
  /// breakers and degraded mode already handle.
  static Result<std::unique_ptr<RemoteSource>> ConnectTcp(
      std::vector<std::string> endpoints) {
    return ConnectTcp(std::move(endpoints), DefaultFailoverPolicy());
  }
  static Result<std::unique_ptr<RemoteSource>> ConnectTcp(
      std::vector<std::string> endpoints, const RetryPolicy& policy);

  /// The default failover schedule: 6 attempts, 5 ms doubling to a 100 ms
  /// cap — a killed replica costs milliseconds, not a failed query.
  static RetryPolicy DefaultFailoverPolicy();

  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  const Capabilities& capabilities() const override { return capabilities_; }

  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override;
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override;
  Result<Relation> Load(CostLedger* ledger) override;
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override;

  /// TCP mode observability (both 0 in transport mode): replica rotations
  /// after a transport failure, and successful re-dials after the initial
  /// connect.
  size_t failovers() const;
  size_t reconnects() const;
  /// The replica currently (or last) connected ("" in transport mode).
  std::string active_endpoint() const;

 private:
  explicit RemoteSource(ProtocolTransport transport)
      : transport_(std::move(transport)) {}

  /// Ships a request, parses the response, replays charges into `ledger`,
  /// and maps ERROR responses back into Status. Stamps the caller's ambient
  /// trace context onto the request when the server negotiated `trace`
  /// (mutating the request in place — callers pass throwaway locals).
  Result<SourceResponse> RoundTrip(SourceRequest& request, CostLedger* ledger);

  /// Records the HELLO metadata (name, features, capabilities, schema).
  Status AdoptHello(const SourceResponse& response);

  /// One send/receive over the TCP connection, redialing across replicas
  /// on transport failure (RedialingExchange). Requires transport_mu_ held.
  Result<std::string> TcpExchangeLocked(const std::string& request_text);
  /// Tries per exchange: the failover policy's, but at least one per
  /// replica.
  int TcpAttemptsLocked() const;
  /// Dials endpoints_[active_] and validates it via HELLO (same source
  /// name as the first connect). Requires transport_mu_ held.
  Status TcpDialActiveLocked();
  /// TcpDialActiveLocked, rotating to the next replica on failure (which
  /// comes back as kUnavailable). Requires transport_mu_ held.
  Status TcpDialNextLocked();
  /// Rotates active_ to the next replica (counts a failover when there is
  /// more than one). Requires transport_mu_ held.
  void TcpAdvanceReplicaLocked();

  mutable std::mutex transport_mu_;  // one request/response in flight at a time
  ProtocolTransport transport_;
  std::string name_;
  Schema schema_;
  Capabilities capabilities_;
  /// Whether the HELLO response advertised the `trace` feature; only then
  /// does RoundTrip attach trace lines (old servers never see them).
  bool peer_traces_ = false;

  /// TCP failover state (all guarded by transport_mu_).
  bool tcp_mode_ = false;
  std::vector<std::string> endpoints_;
  size_t active_ = 0;  // index into endpoints_: the sticky healthy replica
  MessageSocket socket_;
  RetryPolicy failover_;
  /// The HELLO response of the most recent successful dial (metadata for
  /// ConnectTcp; name re-validation on every re-dial).
  SourceResponse last_hello_;
  bool dialed_once_ = false;
  size_t failovers_ = 0;
  size_t reconnects_ = 0;
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_REMOTE_SOURCE_H_
