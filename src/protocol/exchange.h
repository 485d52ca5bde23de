#ifndef FUSION_PROTOCOL_EXCHANGE_H_
#define FUSION_PROTOCOL_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "exec/executor.h"  // RetryPolicy
#include "protocol/client_protocol.h"
#include "protocol/socket.h"

namespace fusion {

/// The client side of both line protocols: Client (sticky-rotate over
/// endpoints), QueryRouter (pooled links per shard) and RemoteSource
/// (replicas of one source) all run RedialingExchange, and differ only in
/// how they find a socket and what they do with a dead one.

void SleepSeconds(double seconds);

/// Transport-level failures a redial can cure. Protocol-level failures
/// (kParseError from a whole but malformed frame, an ERROR response) are
/// final: a fresh connection would get the same answer.
bool IsTransportError(const Status& status);
/// Connect/HELLO failures worth a redial: transport errors plus the
/// kParseError of a torn HELLO reply.
bool IsHelloRetryable(const Status& status);

/// SUBMIT idempotency keys: unique per (process, mint) with overwhelming
/// probability, deterministic under FUSION_SEED, never 0 ("no request-id").
/// Distinct salts keep client- and router-minted ids apart under one seed.
inline constexpr uint64_t kClientRequestIdSalt = 0x1de9;
inline constexpr uint64_t kRouterRequestIdSalt = 0x50d7;
uint64_t MintRequestId(uint64_t salt);

struct HelloResult {
  MessageSocket socket;
  ClientResponse response;
};
/// Dials `endpoint` and runs the FUSIONQ/1 HELLO handshake, advertising
/// every feature this build speaks. An ERROR response keeps its code.
Result<HelloResult> DialAndHello(const std::string& endpoint,
                                 const std::string& client_id);

/// Whether `request` may be sent again once its frame may have reached a
/// server speaking `features`: every verb but SUBMIT is read-only or
/// idempotent; a SUBMIT only with a request-id the server dedups.
bool ResendSafe(const ClientRequest& request, const FeatureSet& features);

/// How a RedialingExchange reaches its peer.
struct ExchangeChannel {
  /// The socket to send on, dialing (and HELLOing) one when none is open.
  std::function<Result<MessageSocket*>()> connect;
  /// Discards the socket `connect` returned after a transport failure.
  std::function<void()> drop;
  /// Whether the frame may be re-sent once it may have shipped; null means
  /// always.
  std::function<bool()> resend_safe;
};

/// Sends `frame` and returns the whole reply frame, in up to `attempts`
/// tries with `backoff`'s sleeps between them. A failed send or receive —
/// a torn reply included — drops the socket and redials, unless the frame
/// may have shipped and a resend is not safe; a connect failure that is
/// not IsHelloRetryable ends it. Returns the last failure once the tries
/// run out. Parsing the reply is the caller's.
Result<std::string> RedialingExchange(const std::string& frame, int attempts,
                                      const RetryPolicy& backoff,
                                      const ExchangeChannel& channel);

/// Calls `dial` up to `attempts` times with `backoff` between tries, until
/// it succeeds or fails with an error that is not IsHelloRetryable.
Status DialWithRetry(int attempts, const RetryPolicy& backoff,
                     const std::function<Status()>& dial);

}  // namespace fusion

#endif  // FUSION_PROTOCOL_EXCHANGE_H_
