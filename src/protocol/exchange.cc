#include "protocol/exchange.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/rng.h"

namespace fusion {

void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

bool IsTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kInternal;
}

bool IsHelloRetryable(const Status& status) {
  return IsTransportError(status) ||
         status.code() == StatusCode::kParseError;
}

uint64_t MintRequestId(uint64_t salt) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t n = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t seed =
      GlobalSeed(0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(getpid()));
  const uint64_t id = MixSeed(MixSeed(seed, salt), n);
  return id == 0 ? 1 : id;
}

Result<HelloResult> DialAndHello(const std::string& endpoint,
                                 const std::string& client_id) {
  HelloResult out;
  FUSION_ASSIGN_OR_RETURN(out.socket, DialTcp(endpoint));
  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  hello.client_id = client_id;
  hello.features = ClientProtocolFeatures();
  FUSION_RETURN_IF_ERROR(out.socket.Send(SerializeClientRequest(hello)));
  FUSION_ASSIGN_OR_RETURN(const std::string reply, out.socket.Receive());
  FUSION_ASSIGN_OR_RETURN(out.response, ParseClientResponse(reply));
  if (!out.response.ok) {
    return Status(out.response.error_code,
                  "hello: " + out.response.error_message);
  }
  return out;
}

bool ResendSafe(const ClientRequest& request,
                const FeatureSet& server_features) {
  return request.kind != ClientRequest::Kind::kSubmit ||
         (server_features.Has(Feature::kIdempotency) &&
          request.request_id != 0);
}

Result<std::string> RedialingExchange(const std::string& frame, int attempts,
                                      const RetryPolicy& backoff,
                                      const ExchangeChannel& channel) {
  Status last_error = Status::Unavailable("never sent");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) SleepSeconds(backoff.BackoffSeconds(0, attempt - 1));
    Result<MessageSocket*> socket = channel.connect();
    if (!socket.ok()) {
      last_error = socket.status();
      if (!IsHelloRetryable(last_error)) return last_error;
      continue;
    }
    const Status sent = (*socket)->Send(frame);
    if (sent.ok()) {
      Result<std::string> reply = (*socket)->Receive();
      if (reply.ok()) return reply;
      last_error = reply.status();
    } else {
      last_error = sent;
    }
    const bool may_resend =
        !sent.ok() || channel.resend_safe == nullptr || channel.resend_safe();
    channel.drop();
    if (!may_resend) break;
  }
  return last_error;
}

Status DialWithRetry(int attempts, const RetryPolicy& backoff,
                     const std::function<Status()>& dial) {
  Status dialed = Status::Unavailable("never dialed");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) SleepSeconds(backoff.BackoffSeconds(0, attempt - 1));
    dialed = dial();
    if (dialed.ok() || !IsHelloRetryable(dialed)) break;
  }
  return dialed;
}

}  // namespace fusion
