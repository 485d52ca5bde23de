#ifndef FUSION_PROTOCOL_TCP_SERVER_H_
#define FUSION_PROTOCOL_TCP_SERVER_H_

#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "protocol/chaos.h"
#include "protocol/client_protocol.h"
#include "protocol/socket.h"

namespace fusion {

/// One request frame in, one response frame out (QueryService::Handle,
/// QueryRouter::Handle, SourceServer::Handle). "" hangs up without a reply.
using FrameHandler = std::function<std::string(const std::string&)>;

/// The one serve loop of both dialects: caps the bytes buffered per frame
/// (the dialect's k*FrameBytes constant), arms the mid-frame stall deadline
/// (0 disables; an idle peer between frames never times out), then
/// receives, handles and replies until the peer closes, stalls or errs.
void ServeFrames(ChaosSocket& socket, size_t max_frame_bytes,
                 double stall_deadline_seconds, const FrameHandler& handle);

/// A TCP server over a FrameHandler: an acceptor thread plus one thread per
/// connection running ServeFrames. Every daemon and in-process fleet serves
/// through it. State is bounded by the live connections: a finished one
/// deregisters its fd before closing it (so Stop() never shutdown(2)s a
/// recycled fd) and its thread is joined at the next accept. Options::chaos
/// injects seeded faults into every connection, plus accept refusals.
/// Stop() — also run by the destructor — closes the listener, resets every
/// live connection, and joins all threads.
class TcpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    int port = 0;  // 0 = ephemeral; see port()
    size_t max_frame_bytes = kMaxClientProtocolFrameBytes;
    double stall_deadline_seconds = 10.0;
    /// Null = no fault injection. Servers may share one decider.
    std::shared_ptr<ChaosDecider> chaos;
  };

  TcpServer(FrameHandler handler, Options options)
      : handler_(std::move(handler)), options_(std::move(options)) {}
  ~TcpServer() { Stop(); }
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  Status Start();
  void Stop();  // idempotent
  int port() const { return listener_.port(); }
  /// Connections being served right now.
  size_t live_connections() const;
  /// Connection threads not yet joined: live ones plus finished ones
  /// awaiting the next accept.
  size_t retained_threads() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void Serve(std::list<Connection>::iterator self, ChaosSocket socket);
  void Reap();  // joins finished connections' threads

  const FrameHandler handler_;
  const Options options_;
  TcpListener listener_;
  mutable std::mutex mu_;
  std::condition_variable connection_done_;
  bool stopping_ = false;              // guarded by mu_
  std::list<Connection> live_;         // guarded by mu_
  std::vector<std::thread> finished_;  // guarded by mu_
  std::thread acceptor_;  // last: it uses every member above
};

/// Daemon signals: call BlockTerminationSignals() before starting any
/// thread, so SIGINT/SIGTERM stay pending until WaitForTerminationSignal().
void BlockTerminationSignals();
void WaitForTerminationSignal();

}  // namespace fusion

#endif  // FUSION_PROTOCOL_TCP_SERVER_H_
