// The lapis_serve daemon core: a concurrent query server over the
// footprint database.
//
// Design (thread-per-core on the runtime's FIFO pool):
//   * One dedicated accept thread polls the listening socket (Unix or
//     loopback TCP) and Submit()s each accepted connection to the
//     runtime::Executor as a task; `workers` pool threads then own
//     connections for their lifetime (blocking reads — the executor is
//     sized so all `workers` threads really exist, and the accept thread
//     never waits on the pool, so connection tasks never run inline).
//   * A connection is a loop of request frames (protocol.h). Every request
//     in one frame is answered against a single GenerationStore::Current()
//     pin, so a batch observes exactly one snapshot generation even while
//     ingestion publishes a new one mid-frame.
//   * Malformed framing (bad magic, oversized or truncated length prefix,
//     undecodable payload) gets one kFrameError response (when the peer is
//     still readable) and the connection is closed; well-formed requests
//     with bad content get per-request WireStatus errors instead.
//
// Concurrency limit: at most `workers` connections are served at once;
// further accepted connections wait in the executor's queue, in accept
// order, until a worker frees up. Stop() shuts the listener and every live
// connection down, then joins.

#ifndef LAPIS_SRC_SERVE_SERVER_H_
#define LAPIS_SRC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "src/runtime/executor.h"
#include "src/serve/generation.h"
#include "src/util/status.h"

namespace lapis::serve {

struct ServerOptions {
  // Non-empty => listen on this Unix socket path (unlinking a stale one).
  std::string unix_socket_path;
  // Used when `unix_socket_path` is empty; port 0 picks an ephemeral port.
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;
  // Connection worker threads; 0 = runtime::DefaultJobs().
  size_t workers = 0;
  // Overload shedding (0 = uncapped). A connection accepted past
  // max_connections gets one kBusy frame and is closed; a frame arriving
  // while max_inflight_frames are already executing gets a kBusy response
  // but keeps its connection. kBusy is retryable — clients back off and
  // try again (client.h CallWithRetry).
  size_t max_connections = 0;
  size_t max_inflight_frames = 0;
};

struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t frames_served = 0;
  uint64_t requests_served = 0;
  uint64_t protocol_errors = 0;  // connections dropped for bad framing
  uint64_t connections_shed = 0;  // closed at accept with kBusy (conn cap)
  uint64_t frames_shed = 0;       // answered kBusy (in-flight frame cap)
  uint64_t reload_failures = 0;   // rejected artifact reloads (store's count)
};

class Server {
 public:
  // Binds, listens, and starts the accept thread + worker pool. The store
  // is borrowed (not owned) and may be published to at any time.
  static Result<std::unique_ptr<Server>> Start(const ServerOptions& options,
                                               GenerationStore* store);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Idempotent: closes the listener, severs live connections, joins.
  void Stop();

  // Printable endpoint: "unix:<path>" or "tcp:<host>:<port>".
  std::string endpoint() const;
  uint16_t tcp_port() const { return bound_port_; }
  size_t workers() const { return workers_; }
  ServerStats stats() const;

 private:
  Server() = default;

  void AcceptLoop();
  void HandleConnection(int fd);
  // Serves one inbound frame; false => close the connection.
  bool ServeFrame(int fd);

  ServerOptions options_;
  GenerationStore* store_ = nullptr;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  size_t workers_ = 0;

  std::unique_ptr<runtime::Executor> executor_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  std::mutex connections_mutex_;
  std::set<int> connections_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> frames_shed_{0};
  std::atomic<uint64_t> inflight_frames_{0};
};

}  // namespace lapis::serve

#endif  // LAPIS_SRC_SERVE_SERVER_H_
