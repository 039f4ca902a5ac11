// Client side of the lapis_serve protocol: one blocking connection that
// sends request batches and decodes response frames. Used by the
// lapis_query CLI, the QPS bench, and the serve tests. Not thread-safe;
// open one client per thread.

#ifndef LAPIS_SRC_SERVE_CLIENT_H_
#define LAPIS_SRC_SERVE_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/serve/protocol.h"
#include "src/util/status.h"

namespace lapis::serve {

// Where a daemon lives; `unix_path` non-empty selects the Unix transport.
struct Endpoint {
  std::string unix_path;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

// Retry policy for CallWithRetry. `retries` counts additional attempts
// after the first; backoff doubles each retry (seeded jitter on top) and
// `timeout_ms` is a TOTAL deadline across connects, calls, and backoff
// sleeps — not a per-attempt budget.
struct RetryOptions {
  int retries = 0;
  int backoff_ms = 100;
  int timeout_ms = 0;  // 0 = no deadline
};

// What actually happened across the attempts (for banners and benches).
struct RetryTelemetry {
  uint32_t attempts = 0;
  uint32_t busy_responses = 0;  // kBusy sheds that triggered a retry
  uint32_t io_failures = 0;     // connect/transport failures that did
  int64_t backoff_waited_ms = 0;
};

// True for errors that a fresh attempt can fix: kUnavailable (the server
// shed load) and kIoError (connect refused/reset/timed out). Corrupt or
// invalid frames are not retryable — resending the same bytes cannot help.
bool IsRetryableStatus(const Status& status);

class QueryClient {
 public:
  // `timeout_ms` (0 = no limit) bounds the connect and every subsequent
  // read/write on the connection; an expired read surfaces as an IoError
  // naming the timeout instead of hanging on a wedged daemon.
  static Result<QueryClient> ConnectUnix(const std::string& path,
                                         int timeout_ms = 0);
  static Result<QueryClient> ConnectTcp(const std::string& host,
                                        uint16_t port, int timeout_ms = 0);

  QueryClient(QueryClient&& other) noexcept;
  QueryClient& operator=(QueryClient&& other) noexcept;
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;
  ~QueryClient();

  // Sends `batch` as one frame and reads the matching response frame.
  // A server-side frame error surfaces as a CorruptData status carrying
  // the server's message; an overload shed (kBusy) surfaces as a
  // retryable Unavailable status and leaves the connection open; per-
  // request errors come back as WireStatus in each response.
  Result<std::vector<QueryResponse>> Call(
      std::span<const QueryRequest> batch);

  // Single-request convenience.
  Result<QueryResponse> CallOne(const QueryRequest& request);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  QueryClient(int fd, int timeout_ms) : fd_(fd), timeout_ms_(timeout_ms) {}

  // Reads and decodes one response frame, classifying busy sheds and
  // frame-level rejections (see Call). `expected` is the request count the
  // response must match.
  Result<std::vector<QueryResponse>> ReadResponseFrame(size_t expected);

  int fd_ = -1;
  int timeout_ms_ = 0;
};

// Connects and calls with retries: each attempt opens a fresh connection
// (the shed/broken one is useless), failures that IsRetryableStatus accepts
// sleep an exponentially-growing, jittered backoff and try again, and the
// whole loop — connects, calls, sleeps — respects options.timeout_ms as a
// total deadline. Returns the last error when attempts or deadline run out.
Result<std::vector<QueryResponse>> CallWithRetry(
    const Endpoint& endpoint, std::span<const QueryRequest> batch,
    const RetryOptions& options, RetryTelemetry* telemetry = nullptr);

}  // namespace lapis::serve

#endif  // LAPIS_SRC_SERVE_CLIENT_H_
