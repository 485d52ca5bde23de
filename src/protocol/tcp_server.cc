#include "protocol/tcp_server.h"

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

namespace fusion {
namespace {

sigset_t TerminationSignals() {
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  return signals;
}

}  // namespace

void ServeFrames(ChaosSocket& socket, size_t max_frame_bytes,
                 double stall_deadline_seconds, const FrameHandler& handle) {
  if (!socket.valid()) return;
  socket.inner().SetReceiveLimit(max_frame_bytes);
  if (stall_deadline_seconds > 0.0) {
    // Best-effort: a failed setsockopt leaves the connection unguarded,
    // not unserved.
    (void)socket.inner().SetStallDeadline(stall_deadline_seconds);
  }
  for (;;) {
    const Result<std::string> request = socket.Receive();
    if (!request.ok()) return;
    const std::string response = handle(*request);
    if (response.empty() || !socket.Send(response).ok()) return;
  }
}

Status TcpServer::Start() {
  FUSION_ASSIGN_OR_RETURN(listener_,
                          TcpListener::Bind(options_.host, options_.port));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpServer::AcceptLoop() {
  for (;;) {
    Result<MessageSocket> accepted = listener_.Accept();
    if (!accepted.ok()) return;  // listener closed: Stop()
    Reap();
    if (ChaosRefuseAccept(options_.chaos.get())) continue;
    ChaosSocket socket(std::move(accepted).value(), options_.chaos);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    const auto self = live_.insert(live_.end(), Connection{socket.fd(), {}});
    // The new thread deregisters under mu_, so it cannot touch `self`
    // before its thread handle is stored.
    self->thread =
        std::thread(&TcpServer::Serve, this, self, std::move(socket));
  }
}

void TcpServer::Serve(std::list<Connection>::iterator self,
                      ChaosSocket socket) {
  ServeFrames(socket, options_.max_frame_bytes,
              options_.stall_deadline_seconds, handler_);
  {
    // Deregister before closing, so Stop() never shutdown(2)s a recycled fd.
    std::lock_guard<std::mutex> lock(mu_);
    finished_.push_back(std::move(self->thread));
    live_.erase(self);
  }
  connection_done_.notify_all();
  socket.Close();
}

void TcpServer::Reap() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    done.swap(finished_);
  }
  for (std::thread& thread : done) thread.join();
}

void TcpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Closing the listener ends the accept loop; after the join no new
  // connection can appear.
  listener_.Close();
  if (acceptor_.joinable()) acceptor_.join();
  {
    // Reset every live connection so its blocked recv returns.
    std::unique_lock<std::mutex> lock(mu_);
    for (const Connection& connection : live_) {
      ::shutdown(connection.fd, SHUT_RDWR);
    }
    connection_done_.wait(lock, [this] { return live_.empty(); });
  }
  Reap();
}

size_t TcpServer::live_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

size_t TcpServer::retained_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size() + finished_.size();
}

void BlockTerminationSignals() {
  const sigset_t signals = TerminationSignals();
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);
}

void WaitForTerminationSignal() {
  const sigset_t signals = TerminationSignals();
  int signal = 0;
  sigwait(&signals, &signal);
}

}  // namespace fusion
