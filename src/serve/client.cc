#include "src/serve/client.h"

#include <cerrno>
#include <ctime>
#include <unistd.h>

#include <utility>

#include "src/serve/socket_io.h"
#include "src/util/prng.h"

namespace lapis::serve {

Result<QueryClient> QueryClient::ConnectUnix(const std::string& path,
                                             int timeout_ms) {
  LAPIS_ASSIGN_OR_RETURN(int fd, ConnectUnixSocket(path, timeout_ms));
  Status status = SetSocketTimeouts(fd, timeout_ms);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return QueryClient(fd, timeout_ms);
}

Result<QueryClient> QueryClient::ConnectTcp(const std::string& host,
                                            uint16_t port, int timeout_ms) {
  LAPIS_ASSIGN_OR_RETURN(int fd, ConnectTcpSocket(host, port, timeout_ms));
  Status status = SetSocketTimeouts(fd, timeout_ms);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return QueryClient(fd, timeout_ms);
}

QueryClient::QueryClient(QueryClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      timeout_ms_(std::exchange(other.timeout_ms_, 0)) {}

QueryClient& QueryClient::operator=(QueryClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    timeout_ms_ = std::exchange(other.timeout_ms_, 0);
  }
  return *this;
}

QueryClient::~QueryClient() { Close(); }

void QueryClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::vector<QueryResponse>> QueryClient::Call(
    std::span<const QueryRequest> batch) {
  if (fd_ < 0) {
    return FailedPreconditionError("client is not connected");
  }
  if (!WriteFully(fd_, EncodeRequestFrame(batch))) {
    int saved_errno = errno;
    if (ErrnoIsTimeout(saved_errno)) {
      Close();
      return IoError("send timed out after " + std::to_string(timeout_ms_) +
                     "ms");
    }
    // An accept-time shed races our send: the server writes one busy frame
    // and closes, so the send can fail (EPIPE/ECONNRESET) while the busy
    // frame already sits in our receive buffer. Drain it so the caller
    // sees the retryable busy, not a generic send error.
    auto pending = ReadResponseFrame(batch.size());
    if (!pending.ok() &&
        pending.status().code() == StatusCode::kUnavailable) {
      Close();  // the connection is dead either way; retries reconnect
      return pending.status();
    }
    Close();
    return IoError("send failed (server closed the connection?)");
  }
  return ReadResponseFrame(batch.size());
}

Result<std::vector<QueryResponse>> QueryClient::ReadResponseFrame(
    size_t expected) {
  uint8_t header[kFrameHeaderSize];
  ssize_t n = ReadFully(fd_, header, sizeof(header));
  if (n != static_cast<ssize_t>(sizeof(header))) {
    int saved_errno = errno;
    Close();
    if (n < 0 && ErrnoIsTimeout(saved_errno)) {
      return IoError("response timed out after " +
                     std::to_string(timeout_ms_) + "ms");
    }
    return IoError("connection closed before a response frame arrived");
  }
  auto payload_len = DecodeFrameHeader(header, kResponseMagic);
  if (!payload_len.ok()) {
    Close();
    return payload_len.status();
  }
  std::vector<uint8_t> payload(payload_len.value());
  n = ReadFully(fd_, payload.data(), payload.size());
  if (n != static_cast<ssize_t>(payload.size())) {
    int saved_errno = errno;
    Close();
    if (n < 0 && ErrnoIsTimeout(saved_errno)) {
      return IoError("response timed out after " +
                     std::to_string(timeout_ms_) + "ms");
    }
    return IoError("truncated response payload");
  }
  auto responses = DecodeResponsePayload(payload);
  if (!responses.ok()) {
    Close();
    return responses.status();
  }
  // A frame-level rejection means the server is about to close on us;
  // surface it as an error with the server's diagnostic. A kBusy shed is
  // different: it is retryable, and when the in-flight frame cap (rather
  // than the connection cap) shed us the connection is still good.
  if (responses.value().size() == 1 &&
      responses.value()[0].opcode == Opcode::kFrameError) {
    std::string error = responses.value()[0].error;
    if (responses.value()[0].status == WireStatus::kBusy) {
      return UnavailableError("server shed the request: " + error);
    }
    Close();
    return CorruptDataError("server rejected frame: " + error);
  }
  if (responses.value().size() != expected) {
    Close();
    return CorruptDataError("response count mismatch: sent " +
                            std::to_string(expected) + ", got " +
                            std::to_string(responses.value().size()));
  }
  return responses;
}

Result<QueryResponse> QueryClient::CallOne(const QueryRequest& request) {
  LAPIS_ASSIGN_OR_RETURN(
      std::vector<QueryResponse> responses,
      Call(std::span<const QueryRequest>(&request, 1)));
  return std::move(responses[0]);
}

bool IsRetryableStatus(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIoError;
}

namespace {

int64_t NowMillis() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

constexpr int64_t kMaxBackoffMillis = 5000;
// Seeds the backoff jitter, so a retry schedule replays exactly.
constexpr uint64_t kJitterSeed = 0;

}  // namespace

Result<std::vector<QueryResponse>> CallWithRetry(
    const Endpoint& endpoint, std::span<const QueryRequest> batch,
    const RetryOptions& options, RetryTelemetry* telemetry) {
  RetryTelemetry scratch;
  RetryTelemetry& tel = telemetry != nullptr ? *telemetry : scratch;
  tel = RetryTelemetry{};

  Prng jitter(kJitterSeed);
  const int64_t deadline =
      options.timeout_ms > 0 ? NowMillis() + options.timeout_ms : 0;
  Status last_error = UnavailableError("no attempt was made");

  for (int attempt = 0; attempt <= options.retries; ++attempt) {
    // Per-attempt socket budget = whatever remains of the total deadline.
    int attempt_timeout_ms = options.timeout_ms;
    if (deadline != 0) {
      int64_t remaining = deadline - NowMillis();
      if (remaining <= 0) {
        return IoError("deadline exhausted after " +
                       std::to_string(tel.attempts) + " attempts (" +
                       std::to_string(options.timeout_ms) + "ms total): " +
                       last_error.ToString());
      }
      attempt_timeout_ms = static_cast<int>(remaining);
    }

    ++tel.attempts;
    Result<QueryClient> client =
        endpoint.unix_path.empty()
            ? QueryClient::ConnectTcp(endpoint.host, endpoint.port,
                                      attempt_timeout_ms)
            : QueryClient::ConnectUnix(endpoint.unix_path,
                                       attempt_timeout_ms);
    if (client.ok()) {
      Result<std::vector<QueryResponse>> responses =
          client.value().Call(batch);
      if (responses.ok()) {
        return responses;
      }
      last_error = responses.status();
    } else {
      last_error = client.status();
    }
    if (!IsRetryableStatus(last_error)) {
      return last_error;
    }
    if (last_error.code() == StatusCode::kUnavailable) {
      ++tel.busy_responses;
    } else {
      ++tel.io_failures;
    }
    if (attempt == options.retries) {
      break;
    }

    // Exponential backoff with full jitter in the upper half, so a
    // thundering herd of shed clients spreads out instead of re-colliding.
    int64_t base = static_cast<int64_t>(options.backoff_ms) << attempt;
    if (base > kMaxBackoffMillis) {
      base = kMaxBackoffMillis;
    }
    int64_t sleep_ms = base;
    if (base > 1) {
      sleep_ms = base / 2 +
                 static_cast<int64_t>(jitter.NextBelow(
                     static_cast<uint64_t>(base - base / 2 + 1)));
    }
    if (deadline != 0) {
      int64_t remaining = deadline - NowMillis();
      if (remaining <= 0) {
        break;  // loop exit reports deadline exhaustion below
      }
      if (sleep_ms > remaining) {
        sleep_ms = remaining;
      }
    }
    if (sleep_ms > 0) {
      tel.backoff_waited_ms += sleep_ms;
      timespec ts{};
      ts.tv_sec = sleep_ms / 1000;
      ts.tv_nsec = (sleep_ms % 1000) * 1000000;
      ::nanosleep(&ts, nullptr);
    }
  }
  return last_error;
}

}  // namespace lapis::serve
