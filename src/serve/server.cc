#include "src/serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <vector>

#include "src/serve/protocol.h"
#include "src/serve/socket_io.h"

namespace lapis::serve {

namespace {
constexpr int kAcceptPollMillis = 100;
constexpr int kListenBacklog = 64;
}  // namespace

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options,
                                              GenerationStore* store) {
  if (store == nullptr) {
    return InvalidArgumentError("server needs a GenerationStore");
  }
  auto server = std::unique_ptr<Server>(new Server());
  server->options_ = options;
  server->store_ = store;
  server->workers_ =
      options.workers == 0 ? runtime::DefaultJobs() : options.workers;
  if (server->workers_ < 1) {
    server->workers_ = 1;
  }

  if (!options.unix_socket_path.empty()) {
    LAPIS_ASSIGN_OR_RETURN(
        server->listen_fd_,
        ListenUnixSocket(options.unix_socket_path, kListenBacklog));
  } else {
    LAPIS_ASSIGN_OR_RETURN(
        server->listen_fd_,
        ListenTcpSocket(options.tcp_host, options.tcp_port, kListenBacklog,
                        &server->bound_port_));
  }

  // workers_ + 1 logical threads -> exactly workers_ spawned pool threads.
  // The accept thread only submits and never waits, so connection tasks
  // always run on real workers, never inline.
  server->executor_ =
      std::make_unique<runtime::Executor>(server->workers_ + 1);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::~Server() { Stop(); }

void Server::Stop() {
  if (stopped_) {
    return;
  }
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_socket_path.empty()) {
    ::unlink(options_.unix_socket_path.c_str());
  }
  {
    // Sever every live connection so blocked reads return; the handlers
    // close + deregister the fds themselves.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connections_) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (executor_ != nullptr) {
    executor_->WaitAll();
    executor_.reset();
  }
}

std::string Server::endpoint() const {
  if (!options_.unix_socket_path.empty()) {
    return "unix:" + options_.unix_socket_path;
  }
  return "tcp:" + options_.tcp_host + ":" + std::to_string(bound_port_);
}

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.frames_served = frames_served_.load(std::memory_order_relaxed);
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.connections_shed = connections_shed_.load(std::memory_order_relaxed);
  stats.frames_shed = frames_shed_.load(std::memory_order_relaxed);
  stats.reload_failures = store_->reload_failures();
  return stats;
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kAcceptPollMillis);
    if (ready <= 0) {
      continue;  // timeout, EINTR, or transient error: re-check stopping_
    }
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (options_.max_connections > 0 &&
          connections_.size() >= options_.max_connections) {
        shed = true;
      } else {
        connections_.insert(fd);
      }
    }
    if (shed) {
      // Over the connection cap: one retryable kBusy frame, then close.
      // Shedding at accept keeps the worker pool for established peers.
      connections_shed_.fetch_add(1, std::memory_order_relaxed);
      (void)WriteFully(fd, EncodeBusyResponse(
                               "server at connection capacity, retry later"));
      ::close(fd);
      continue;
    }
    executor_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  try {
    while (!stopping_.load(std::memory_order_acquire) && ServeFrame(fd)) {
    }
  } catch (...) {
    // Query execution is exception-free by design; this is a last-ditch
    // guard so one connection can never take the pool down.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.erase(fd);
    ::close(fd);
  }
}

bool Server::ServeFrame(int fd) {
  uint8_t header[kFrameHeaderSize];
  ssize_t n = ReadFully(fd, header, sizeof(header));
  if (n == 0) {
    return false;  // clean EOF between frames
  }
  if (n != static_cast<ssize_t>(sizeof(header))) {
    // Truncated length prefix / partial header: unrecoverable.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  auto payload_len = DecodeFrameHeader(header, kRequestMagic);
  if (!payload_len.ok()) {
    // Bad magic or oversized declaration: tell the peer once, then close
    // without reading the (possibly huge or garbage) payload.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    (void)WriteFully(fd,
                     EncodeFrameErrorResponse(payload_len.status().message()));
    return false;
  }
  std::vector<uint8_t> payload(payload_len.value());
  n = ReadFully(fd, payload.data(), payload.size());
  if (n != static_cast<ssize_t>(payload.size())) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  auto batch = DecodeRequestPayload(payload);
  if (!batch.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    (void)WriteFully(fd, EncodeFrameErrorResponse(batch.status().message()));
    return false;
  }

  // In-flight frame cap: the frame is fully read (keeping the stream
  // parseable) but answered kBusy without touching a snapshot. The
  // connection stays open so a backed-off retry is cheap.
  uint64_t inflight = inflight_frames_.fetch_add(1, std::memory_order_acq_rel)
                      + 1;
  if (options_.max_inflight_frames > 0 &&
      inflight > options_.max_inflight_frames) {
    inflight_frames_.fetch_sub(1, std::memory_order_acq_rel);
    frames_shed_.fetch_add(1, std::memory_order_relaxed);
    return WriteFully(
        fd, EncodeBusyResponse("server at in-flight frame capacity"));
  }

  // One generation pin for the whole batch: every request in this frame is
  // answered against the same immutable snapshot, even if Publish() swaps
  // in a new generation while we compute.
  std::shared_ptr<const Generation> generation = store_->Current();
  std::vector<QueryResponse> responses;
  responses.reserve(batch.value().size());
  for (const QueryRequest& request : batch.value()) {
    if (generation == nullptr) {
      QueryResponse response;
      response.opcode = request.opcode;
      response.status = WireStatus::kNotReady;
      response.error = "no snapshot generation published yet";
      responses.push_back(std::move(response));
      continue;
    }
    QueryResponse response = generation->snapshot->Execute(request);
    response.generation = generation->number;
    response.info.generation = generation->number;
    response.info.reload_failures = store_->reload_failures();
    responses.push_back(std::move(response));
  }
  inflight_frames_.fetch_sub(1, std::memory_order_acq_rel);
  if (!WriteFully(fd, EncodeResponseFrame(responses))) {
    return false;
  }
  frames_served_.fetch_add(1, std::memory_order_relaxed);
  requests_served_.fetch_add(responses.size(), std::memory_order_relaxed);
  return true;
}

}  // namespace lapis::serve
