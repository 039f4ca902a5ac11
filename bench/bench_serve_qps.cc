// lapis_serve throughput/latency benchmark: runs a study in-process, saves
// the artifact, then measures against a live daemon (in-process Server on a
// Unix socket):
//
//   * cold snapshot load (artifact file -> ready-to-serve Snapshot)
//   * warm generation swap (Publish of a prebuilt snapshot, under load)
//   * QPS + p50/p99 frame latency for the three query kinds: point
//     importance lookups (batched), profile evaluation, top-K ranking
//
// Results go to BENCH_serve.json (override with LAPIS_SERVE_BENCH_JSON).
// Scale knobs: LAPIS_BENCH_APPS / LAPIS_BENCH_INSTALLS (study size),
// LAPIS_SERVE_BENCH_CLIENTS (client threads), LAPIS_SERVE_BENCH_SECONDS
// (measure window per query kind).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_host.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/runtime/stage_stats.h"
#include "src/serve/client.h"
#include "src/serve/generation.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/util/env.h"

namespace lapis {
namespace {

struct LoadResult {
  double qps = 0.0;             // requests per second (batch-adjusted)
  double frames_per_second = 0.0;
  double p50_us = 0.0;          // per-frame round-trip latency
  double p99_us = 0.0;
  uint64_t frames = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;      // hard failures (aborts the client thread)
  uint64_t busy_sheds = 0;  // retryable kBusy responses from overload caps
  uint64_t retries = 0;     // frames re-attempted after a shed
};

double Percentile(std::vector<double>& sorted_us, double fraction) {
  if (sorted_us.empty()) {
    return 0.0;
  }
  size_t index = static_cast<size_t>(
      fraction * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(index, sorted_us.size() - 1)];
}

// Drives `clients` threads against the daemon for ~`seconds`, each thread
// sending its own copy of `batch` as one frame per round trip. Per-frame
// latencies are measured client-side.
LoadResult RunLoad(const std::string& socket_path,
                   const std::vector<serve::QueryRequest>& batch,
                   size_t clients, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> errors{0};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  std::atomic<uint64_t> busy_sheds{0};
  std::atomic<uint64_t> retries{0};
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto connected = serve::QueryClient::ConnectUnix(socket_path);
      if (!connected.ok()) {
        errors.fetch_add(1);
        return;
      }
      serve::QueryClient client = connected.take();
      auto& samples = latencies[t];
      samples.reserve(65536);
      // Sheds are retryable by contract: a kBusy (connection- or frame-cap
      // shed) or the I/O error from the server closing a shed connection
      // costs a short backoff, a reconnect, and another attempt — not a
      // bench failure. Only a long unbroken run of retryable failures (the
      // server is actually gone) or a non-retryable status counts as an
      // error. Shed round trips are not latency samples.
      int consecutive_retryable = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.connected()) {
          auto again = serve::QueryClient::ConnectUnix(socket_path);
          if (!again.ok()) {
            errors.fetch_add(1);
            return;
          }
          client = again.take();
        }
        double start = runtime::MonotonicSeconds();
        auto responses = client.Call(batch);
        double elapsed = runtime::MonotonicSeconds() - start;
        if (!responses.ok()) {
          if (serve::IsRetryableStatus(responses.status()) &&
              ++consecutive_retryable < 1000) {
            if (responses.status().code() == StatusCode::kUnavailable) {
              busy_sheds.fetch_add(1);
            }
            retries.fetch_add(1);
            client.Close();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
          }
          errors.fetch_add(1);
          return;
        }
        consecutive_retryable = 0;
        if (responses.value().size() != batch.size()) {
          errors.fetch_add(1);
          return;
        }
        for (const auto& response : responses.value()) {
          if (response.status != serve::WireStatus::kOk) {
            errors.fetch_add(1);
          }
        }
        samples.push_back(elapsed * 1e6);
      }
    });
  }
  double start = runtime::MonotonicSeconds();
  while (runtime::MonotonicSeconds() - start < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  double window = runtime::MonotonicSeconds() - start;

  LoadResult result;
  std::vector<double> all;
  for (const auto& samples : latencies) {
    result.frames += samples.size();
    all.insert(all.end(), samples.begin(), samples.end());
  }
  result.requests = result.frames * batch.size();
  result.errors = errors.load();
  result.busy_sheds = busy_sheds.load();
  result.retries = retries.load();
  result.frames_per_second = static_cast<double>(result.frames) / window;
  result.qps = static_cast<double>(result.requests) / window;
  std::sort(all.begin(), all.end());
  result.p50_us = Percentile(all, 0.50);
  result.p99_us = Percentile(all, 0.99);
  return result;
}

void AppendLoad(std::ostringstream& os, const char* label,
                const LoadResult& load, size_t batch, bool last = false) {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "    \"%s\": { \"qps\": %.0f, \"frames_per_s\": %.0f, "
                "\"batch\": %zu, \"p50_us\": %.1f, \"p99_us\": %.1f, "
                "\"frames\": %" PRIu64 ", \"errors\": %" PRIu64
                ", \"busy_sheds\": %" PRIu64 ", \"retries\": %" PRIu64
                " }%s\n",
                label, load.qps, load.frames_per_second, batch, load.p50_us,
                load.p99_us, load.frames, load.errors, load.busy_sheds,
                load.retries, last ? "" : ",");
  os << buf;
}

int Run() {
  corpus::StudyOptions options;
  options.distro.app_package_count = EnvSizeOr("LAPIS_BENCH_APPS", 1000);
  options.distro.installation_count =
      EnvSizeOr("LAPIS_BENCH_INSTALLS", 50000);
  size_t clients = EnvSizeOr("LAPIS_SERVE_BENCH_CLIENTS", 4);
  double seconds =
      static_cast<double>(EnvSizeOr("LAPIS_SERVE_BENCH_SECONDS", 3));

  std::fprintf(stderr, "[bench_serve_qps] running study (%zu apps)...\n",
               options.distro.app_package_count);
  auto study = corpus::RunStudy(options);
  if (!study.ok()) {
    std::fprintf(stderr, "study failed: %s\n",
                 study.status().ToString().c_str());
    return 1;
  }

  auto artifact_path = std::filesystem::temp_directory_path() /
                       ("lapis-serve-bench-" + std::to_string(::getpid()) +
                        ".bin");
  auto save = corpus::SaveStudy(study.value(), artifact_path.string());
  if (!save.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
    return 1;
  }

  // Cold load: artifact file -> query-ready snapshot (deserialize + rank +
  // intern), the daemon's startup cost.
  double cold_start = runtime::MonotonicSeconds();
  auto snapshot = serve::Snapshot::FromFile(artifact_path.string());
  double cold_load_ms =
      (runtime::MonotonicSeconds() - cold_start) * 1e3;
  if (!snapshot.ok()) {
    std::fprintf(stderr, "snapshot load failed: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  auto artifact_bytes = std::filesystem::file_size(artifact_path);

  serve::GenerationStore store;
  store.Publish(snapshot.value());

  serve::ServerOptions server_options;
  server_options.unix_socket_path =
      (std::filesystem::temp_directory_path() /
       ("lapis-serve-bench-" + std::to_string(::getpid()) + ".sock"))
          .string();
  server_options.workers = clients;
  auto server = serve::Server::Start(server_options, &store);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  // Point lookups: a batch of 32 importance queries per frame, cycling
  // through the busiest syscall names.
  std::vector<serve::QueryRequest> point_batch;
  auto ranked = study.value().dataset->RankByImportance(
      core::ApiKind::kSyscall);
  for (size_t i = 0; i < 32 && i < ranked.size(); ++i) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kImportance;
    request.api.kind = core::ApiKind::kSyscall;
    request.api.name = std::string(
        corpus::SyscallName(static_cast<int>(ranked[i].code)));
    point_batch.push_back(std::move(request));
  }

  // Profile evaluation: one completeness computation per frame over a
  // 100-syscall profile (the expensive query).
  std::vector<serve::QueryRequest> eval_batch(1);
  eval_batch[0].opcode = serve::Opcode::kEvalProfile;
  eval_batch[0].evaluated_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
  for (size_t i = 0; i < 100 && i < ranked.size(); ++i) {
    serve::ApiRef ref;
    ref.kind = core::ApiKind::kSyscall;
    ref.name = std::string(
        corpus::SyscallName(static_cast<int>(ranked[i].code)));
    eval_batch[0].supported.push_back(std::move(ref));
  }

  // Top-K: rank the 20 best next syscalls given a 50-call profile.
  std::vector<serve::QueryRequest> topk_batch(1);
  topk_batch[0].opcode = serve::Opcode::kTopK;
  topk_batch[0].top_kind = core::ApiKind::kSyscall;
  topk_batch[0].top_k = 20;
  for (size_t i = 0; i < 50 && i < ranked.size(); ++i) {
    serve::ApiRef ref;
    ref.kind = core::ApiKind::kSyscall;
    ref.name = std::string(
        corpus::SyscallName(static_cast<int>(ranked[i].code)));
    topk_batch[0].supported.push_back(std::move(ref));
  }

  std::fprintf(stderr,
               "[bench_serve_qps] load: %zu clients x %.0fs per kind\n",
               clients, seconds);
  auto point = RunLoad(server_options.unix_socket_path, point_batch,
                       clients, seconds);
  auto eval = RunLoad(server_options.unix_socket_path, eval_batch, clients,
                      seconds);
  auto topk = RunLoad(server_options.unix_socket_path, topk_batch, clients,
                      seconds);

  // Warm generation swaps while point-lookup load is running: the swap
  // itself is O(1); measure Publish latency and confirm zero client
  // errors during ~50 swaps.
  auto alternate = serve::Snapshot::FromFile(artifact_path.string());
  if (!alternate.ok()) {
    std::fprintf(stderr, "alternate load failed: %s\n",
                 alternate.status().ToString().c_str());
    return 1;
  }
  constexpr int kSwaps = 50;
  std::vector<double> swap_us;
  swap_us.reserve(kSwaps);
  std::atomic<bool> swap_stop{false};
  std::thread swapper([&] {
    bool flip = false;
    for (int i = 0; i < kSwaps; ++i) {
      double start = runtime::MonotonicSeconds();
      store.Publish(flip ? alternate.value() : snapshot.value());
      swap_us.push_back((runtime::MonotonicSeconds() - start) * 1e6);
      flip = !flip;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    swap_stop.store(true);
  });
  auto under_swap = RunLoad(server_options.unix_socket_path, point_batch,
                            clients, seconds);
  swapper.join();
  std::sort(swap_us.begin(), swap_us.end());
  double swap_p50 = Percentile(swap_us, 0.50);
  double swap_p99 = Percentile(swap_us, 0.99);

  server.value()->Stop();
  auto stats = server.value()->stats();

  // Overload: a second listener over the same store with a deliberately
  // tiny connection cap, driven by the same client count. Excess clients
  // must be shed with retryable busy responses and recover by backing off
  // and reconnecting — while the one admitted client keeps getting
  // answers. The default-load phases above run uncapped and must never
  // shed (both asserted in the exit code below).
  serve::ServerOptions overload_options;
  overload_options.unix_socket_path =
      (std::filesystem::temp_directory_path() /
       ("lapis-serve-bench-" + std::to_string(::getpid()) +
        "-overload.sock"))
          .string();
  overload_options.workers = clients;
  overload_options.max_connections = 1;
  auto overload_server = serve::Server::Start(overload_options, &store);
  if (!overload_server.ok()) {
    std::fprintf(stderr, "overload server start failed: %s\n",
                 overload_server.status().ToString().c_str());
    return 1;
  }
  size_t overload_clients = std::max<size_t>(clients, 4);
  std::fprintf(stderr,
               "[bench_serve_qps] overload: %zu clients vs "
               "--max-connections %zu\n",
               overload_clients, overload_options.max_connections);
  auto overload =
      RunLoad(overload_options.unix_socket_path, point_batch,
              overload_clients, std::min(seconds, 2.0));
  overload_server.value()->Stop();
  auto overload_stats = overload_server.value()->stats();

  std::error_code ec;
  std::filesystem::remove(artifact_path, ec);

  std::ostringstream os;
  os << "{\n";
  os << "  \"description\": \"lapis_serve daemon benchmark: cold artifact "
        "load, warm generation swaps, and client-measured QPS/latency per "
        "query kind over a Unix socket (in-process server, one frame per "
        "round trip). Emitted by bench_serve_qps.\",\n";
  os << bench::HostJson();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  \"config\": { \"app_packages\": %zu, \"installations\": "
                "%" PRIu64 ", \"packages\": %zu, \"clients\": %zu, "
                "\"server_workers\": %zu, \"seconds_per_kind\": %.0f },\n",
                options.distro.app_package_count,
                options.distro.installation_count,
                study.value().dataset->package_count(), clients,
                server.value()->workers(), seconds);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  \"snapshot\": { \"artifact_bytes\": %" PRIu64
                ", \"cold_load_ms\": %.2f, \"swap_p50_us\": %.1f, "
                "\"swap_p99_us\": %.1f, \"swaps\": %d },\n",
                static_cast<uint64_t>(artifact_bytes), cold_load_ms,
                swap_p50, swap_p99, kSwaps);
  os << buf;
  os << "  \"queries\": {\n";
  AppendLoad(os, "point_importance", point, point_batch.size());
  AppendLoad(os, "eval_profile", eval, eval_batch.size());
  AppendLoad(os, "top_k", topk, topk_batch.size());
  AppendLoad(os, "point_importance_during_swaps", under_swap,
             point_batch.size(), /*last=*/true);
  os << "  },\n";
  os << "  \"overload\": {\n";
  std::snprintf(buf, sizeof buf,
                "    \"max_connections\": %zu, \"clients\": %zu,\n",
                overload_options.max_connections, overload_clients);
  os << buf;
  AppendLoad(os, "point_importance_capped", overload, point_batch.size());
  std::snprintf(buf, sizeof buf,
                "    \"connections_shed\": %" PRIu64
                ", \"frames_shed\": %" PRIu64 " },\n",
                overload_stats.connections_shed,
                overload_stats.frames_shed);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  \"server_stats\": { \"connections\": %" PRIu64
                ", \"frames\": %" PRIu64 ", \"requests\": %" PRIu64
                ", \"protocol_errors\": %" PRIu64
                ", \"connections_shed\": %" PRIu64
                ", \"frames_shed\": %" PRIu64 " },\n",
                stats.connections_accepted, stats.frames_served,
                stats.requests_served, stats.protocol_errors,
                stats.connections_shed, stats.frames_shed);
  os << buf;
  std::snprintf(buf, sizeof buf,
                "  \"memory\": { \"max_rss_kib\": %" PRIu64
                ", \"note\": \"process peak incl. study generation "
                "(getrusage ru_maxrss)\" }\n",
                runtime::PeakRssKib());
  os << buf;
  os << "}\n";

  std::string path =
      EnvStringOr("LAPIS_SERVE_BENCH_JSON", "BENCH_serve.json");
  std::ofstream out(path, std::ios::trunc);
  out << os.str();
  if (!out.good()) {
    std::fprintf(stderr, "failed writing %s\n", path.c_str());
    return 1;
  }
  uint64_t default_errors = point.errors + eval.errors + topk.errors +
                            under_swap.errors;
  uint64_t default_sheds = point.busy_sheds + eval.busy_sheds +
                           topk.busy_sheds + under_swap.busy_sheds;
  std::fprintf(stderr,
               "[bench_serve_qps] wrote %s (cold load %.1fms, point %.0f "
               "qps p99 %.0fus, eval %.0f qps, topk %.0f qps, %" PRIu64
               " errors; overload: %" PRIu64 " sheds absorbed by %" PRIu64
               " retries, %" PRIu64 " errors)\n",
               path.c_str(), cold_load_ms, point.qps, point.p99_us,
               eval.qps, topk.qps, default_errors,
               overload_stats.connections_shed + overload_stats.frames_shed,
               overload.retries, overload.errors);
  // Pass criteria: the uncapped phases see zero errors and zero sheds, and
  // the capped phase demonstrably sheds while retries keep it error-free.
  if (default_errors != 0 || overload.errors != 0) {
    std::fprintf(stderr, "[bench_serve_qps] FAIL: hard errors\n");
    return 1;
  }
  if (default_sheds != 0 || stats.connections_shed != 0 ||
      stats.frames_shed != 0) {
    std::fprintf(stderr,
                 "[bench_serve_qps] FAIL: uncapped server shed load\n");
    return 1;
  }
  if (overload_stats.connections_shed == 0) {
    std::fprintf(stderr,
                 "[bench_serve_qps] FAIL: overload phase never shed\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace lapis

int main() { return lapis::Run(); }
