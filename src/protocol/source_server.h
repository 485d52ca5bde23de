#ifndef FUSION_PROTOCOL_SOURCE_SERVER_H_
#define FUSION_PROTOCOL_SOURCE_SERVER_H_

#include <memory>
#include <string>

#include "protocol/chaos.h"
#include "protocol/message.h"
#include "protocol/tcp_server.h"
#include "source/source_wrapper.h"

namespace fusion {

/// The wrapper-side endpoint of the FUSIONP/1 protocol: owns a concrete
/// SourceWrapper and answers serialized requests. Conditions arrive as text
/// and are re-parsed; load/fetch relations leave as CSV lines; the costs the
/// wrapped source charged travel back as charge summaries so the mediator
/// side can keep its ledger accurate.
class SourceServer {
 public:
  explicit SourceServer(std::unique_ptr<SourceWrapper> impl)
      : impl_(std::move(impl)) {}

  const SourceWrapper& impl() const { return *impl_; }

  /// Handles one serialized request and returns the serialized response.
  /// Malformed requests and wrapper errors become ERROR responses (the
  /// protocol layer never fails out-of-band).
  std::string Handle(const std::string& request_text);

 private:
  SourceResponse HandleParsed(const SourceRequest& request);

  std::unique_ptr<SourceWrapper> impl_;
};

/// Serves one SourceServer over TCP: the process side of a networked
/// FUSIONP/1 deployment (and of replica failover — run two of these over
/// equivalent wrappers and hand both endpoints to RemoteSource::ConnectTcp).
/// A TcpServer whose handler is SourceServer::Handle, with the FUSIONP/1
/// frame cap.
///
/// Faults: Options::chaos wires a seeded ChaosPolicy into every connection
/// (plus accept-time refusals), and Options::stall_deadline_seconds drops
/// connections whose peer goes silent mid-frame — a stalled or byzantine
/// mediator cannot pin a connection thread. Tests "kill a replica" by
/// calling Stop() mid-run.
class TcpSourceServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = pick an ephemeral port
    /// Fault injection at this server's edge (disabled by default).
    ChaosPolicy chaos;
    /// Mid-frame stall guard per connection (0 disables).
    double stall_deadline_seconds = 10.0;
  };

  TcpSourceServer(std::unique_ptr<SourceWrapper> impl, const Options& options);

  /// Binds and starts accepting.
  Status Start() { return tcp_.Start(); }
  /// Stops accepting, resets live connections, joins all threads.
  /// Idempotent.
  void Stop() { tcp_.Stop(); }

  /// The bound port (valid after Start()).
  int port() const { return tcp_.port(); }
  const SourceWrapper& impl() const { return server_.impl(); }

 private:
  SourceServer server_;
  TcpServer tcp_;  // declared last: stops before server_ goes away
};

}  // namespace fusion

#endif  // FUSION_PROTOCOL_SOURCE_SERVER_H_
