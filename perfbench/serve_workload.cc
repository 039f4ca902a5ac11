// serve_mixed: an in-process lapis_serve Server (2 workers) over the audited
// artifact, driven open-loop by seeded Poisson arrivals over two persistent
// Unix-socket connections, while the artifact is reloaded and republished
// every two seconds. Requests are timed from when they were due.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <time.h>
#include <unistd.h>

#include "perfbench/workloads.h"
#include "src/core/completeness.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/syscall_table.h"
#include "src/runtime/stage_stats.h"
#include "src/serve/generation.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/socket_io.h"
#include "src/util/prng.h"

namespace lapis::perfbench {

namespace {

using runtime::MonotonicSeconds;
using serve::QueryRequest;
using serve::QueryResponse;

constexpr double kRatePerS = 3000.0;
constexpr uint32_t kConnections = 2;
constexpr size_t kServerWorkers = 2;
constexpr double kReloadIntervalS = 2.0;
// A reply later than this counts as failed (and as this latency).
constexpr int kReplyTimeoutMs = 2000;
constexpr size_t kPointBatch = 32;
constexpr size_t kTopKProfileApis = 50;
constexpr size_t kEvalProfileApis = 100;
constexpr uint32_t kTopK = 20;
// Profiles draw from the most important syscalls, so every seed's
// profiles cost about the same to evaluate.
constexpr size_t kProfileCandidates = 150;
constexpr std::array<uint32_t, kFrameClassCount> kPoolSizes = {256, 8, 8};
constexpr std::array<double, kFrameClassCount> kClassMix = {0.7, 0.2, 0.1};
constexpr std::array<double, kFrameClassCount> kP99LimitUs = {1000.0, 1000.0,
                                                              10000.0};
constexpr const char* kSocketPath = "serve.sock";

// The frames one class sends: request batches, their wire encoding, and
// the answers Snapshot::Execute gives in set-up.
struct FramePool {
  std::vector<std::vector<QueryRequest>> batches;
  std::vector<std::vector<uint8_t>> encoded;
  std::vector<std::vector<QueryResponse>> expected;
};

serve::ApiRef SyscallRef(core::ApiId api) {
  serve::ApiRef ref;
  ref.kind = core::ApiKind::kSyscall;
  ref.name = std::string(corpus::SyscallName(static_cast<int>(api.code)));
  return ref;
}

std::array<FramePool, kFrameClassCount> BuildPools(
    const serve::Snapshot& snapshot, uint64_t seed) {
  std::vector<core::ApiId> ranked =
      snapshot.dataset().RankByImportance(core::ApiKind::kSyscall);
  Prng prng(seed ^ 0x736572766546ULL);
  std::array<FramePool, kFrameClassCount> pools;

  ZipfSampler zipf(ranked.size(), 1.0);
  for (uint32_t i = 0; i < kPoolSizes[0]; ++i) {
    std::vector<QueryRequest> batch(kPointBatch);
    for (auto& request : batch) {
      request.opcode = serve::Opcode::kImportance;
      request.api = SyscallRef(ranked[zipf.Sample(prng) - 1]);
    }
    pools[0].batches.push_back(std::move(batch));
  }
  std::vector<core::ApiId> candidates(
      ranked.begin(),
      ranked.begin() + std::min(ranked.size(), kProfileCandidates));
  for (size_t cls = 1; cls < kFrameClassCount; ++cls) {
    for (uint32_t i = 0; i < kPoolSizes[cls]; ++i) {
      prng.Shuffle(candidates);
      QueryRequest request;
      size_t apis = kTopKProfileApis;
      if (cls == 1) {
        request.opcode = serve::Opcode::kTopK;
        request.top_kind = core::ApiKind::kSyscall;
        request.top_k = kTopK;
      } else {
        request.opcode = serve::Opcode::kEvalProfile;
        request.evaluated_kinds_mask =
            1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
        apis = kEvalProfileApis;
      }
      for (size_t k = 0; k < apis && k < candidates.size(); ++k) {
        request.supported.push_back(SyscallRef(candidates[k]));
      }
      pools[cls].batches.push_back({std::move(request)});
    }
  }
  for (FramePool& pool : pools) {
    for (const auto& batch : pool.batches) {
      pool.encoded.push_back(serve::EncodeRequestFrame(batch));
      std::vector<QueryResponse> answers;
      for (const auto& request : batch) {
        answers.push_back(snapshot.Execute(request));
      }
      pool.expected.push_back(std::move(answers));
    }
  }
  return pools;
}

// Field-by-field equality of two answers, except the generation number.
bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  if (a.opcode != b.opcode || a.status != b.status || a.error != b.error) {
    return false;
  }
  const auto& ia = a.importance;
  const auto& ib = b.importance;
  if (ia.api != ib.api || ia.name != ib.name ||
      ia.importance != ib.importance || ia.unweighted != ib.unweighted ||
      ia.dependents != ib.dependents) {
    return false;
  }
  const auto& ea = a.eval;
  const auto& eb = b.eval;
  if (ea.weighted_completeness != eb.weighted_completeness ||
      ea.supported_packages != eb.supported_packages ||
      ea.total_packages != eb.total_packages ||
      ea.resolved_apis != eb.resolved_apis ||
      ea.absent_apis != eb.absent_apis) {
    return false;
  }
  if (a.top_k.size() != b.top_k.size()) {
    return false;
  }
  for (size_t i = 0; i < a.top_k.size(); ++i) {
    if (a.top_k[i].api != b.top_k[i].api ||
        a.top_k[i].name != b.top_k[i].name ||
        a.top_k[i].importance != b.top_k[i].importance) {
      return false;
    }
  }
  return true;
}

// The latency of a frame class: p99 once the percentile rule admits it
// (at least 1000 samples), else the slowest sample. `pct_used` gets 99 or
// 100.
double TailLatency(const std::vector<double>& samples, double* pct_used) {
  if (HighestReportablePercentile(samples.size()) >= 99.0) {
    *pct_used = 99.0;
    return Percentile(samples, 99.0);
  }
  *pct_used = 100.0;
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

// Median wall time (us) of executing one frame of each pool entry
// in-process, `reps` passes over the pool.
double ExecMedianUs(const serve::Snapshot& snapshot, const FramePool& pool,
                    size_t reps, Tracer& tracer, const char* span_name) {
  std::vector<double> samples;
  for (size_t rep = 0; rep < reps; ++rep) {
    for (const auto& batch : pool.batches) {
      ScopedSpan span(tracer, span_name);
      double start = MonotonicSeconds();
      for (const auto& request : batch) {
        QueryResponse response = snapshot.Execute(request);
        (void)response;
      }
      samples.push_back((MonotonicSeconds() - start) * 1e6);
    }
  }
  return Median(std::move(samples));
}

// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Sleeps until shortly before `t`, then spins, so sends leave on time.
void WaitUntil(double t) {
  constexpr double kSpinS = 100e-6;
  double now = MonotonicSeconds();
  if (t - now > kSpinS) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(t - now - kSpinS));
  }
  while (MonotonicSeconds() < t) {
  }
}

// Reads one response frame; empty optional on I/O failure or timeout.
std::optional<std::vector<QueryResponse>> ReadResponse(int fd,
                                                       bool* corrupt) {
  uint8_t header[serve::kFrameHeaderSize];
  if (serve::ReadFully(fd, header, sizeof header) !=
      static_cast<ssize_t>(sizeof header)) {
    return std::nullopt;
  }
  auto length = serve::DecodeFrameHeader(header, serve::kResponseMagic);
  if (!length.ok()) {
    *corrupt = true;
    return std::nullopt;
  }
  std::vector<uint8_t> payload(length.value());
  if (!payload.empty() &&
      serve::ReadFully(fd, payload.data(), payload.size()) !=
          static_cast<ssize_t>(payload.size())) {
    return std::nullopt;
  }
  auto decoded = serve::DecodeResponsePayload(payload);
  if (!decoded.ok()) {
    *corrupt = true;
    return std::nullopt;
  }
  return decoded.take();
}

// One connection's socket; closed on destruction.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

Status MeasureServe(const MeasureOptions& options, Report& report) {
  Tracer& tracer = *options.tracer;

  // ---- Set-up inside the process, untimed: load, pools, answers ----
  std::vector<double> load_ms, decode_ms;
  std::shared_ptr<const serve::Snapshot> snapshot;
  for (int i = 0; i < 5; ++i) {
    double start = MonotonicSeconds();
    {
      ScopedSpan span(tracer, "corpus.load");
      auto artifact = corpus::LoadStudy(kArtifactFile);
      if (!artifact.ok()) {
        return artifact.status();
      }
    }
    decode_ms.push_back((MonotonicSeconds() - start) * 1e3);
    start = MonotonicSeconds();
    {
      ScopedSpan span(tracer, "serve.load");
      LAPIS_ASSIGN_OR_RETURN(snapshot,
                             serve::Snapshot::FromFile(kArtifactFile));
    }
    load_ms.push_back((MonotonicSeconds() - start) * 1e3);
  }
  serve::GenerationStore store;
  store.Publish(snapshot);
  const auto pools = BuildPools(*snapshot, options.seed);

  std::array<double, kFrameClassCount> exec_us = {
      ExecMedianUs(*snapshot, pools[0], 1, tracer, "serve.exec_point"),
      ExecMedianUs(*snapshot, pools[1], 8, tracer, "serve.exec_topk"),
      ExecMedianUs(*snapshot, pools[2], 8, tracer, "serve.exec_eval")};
  std::vector<double> completeness_us, supported_us;
  core::CompletenessOptions eval_options;
  eval_options.evaluated_kinds = {core::ApiKind::kSyscall};
  for (int rep = 0; rep < 8; ++rep) {
    for (const auto& batch : pools[2].batches) {
      std::set<core::ApiId> supported;
      for (const auto& ref : batch[0].supported) {
        auto nr = corpus::SyscallNumber(ref.name);
        if (nr.has_value()) {
          supported.insert(core::SyscallApi(static_cast<uint32_t>(*nr)));
        }
      }
      ScopedSpan span(tracer, "core.completeness");
      double start = MonotonicSeconds();
      double value =
          core::WeightedCompleteness(snapshot->dataset(), supported,
                                     eval_options);
      completeness_us.push_back((MonotonicSeconds() - start) * 1e6);
      start = MonotonicSeconds();
      auto packages = core::SupportedPackages(snapshot->dataset(), supported,
                                              eval_options);
      supported_us.push_back((MonotonicSeconds() - start) * 1e6);
      (void)value;
      (void)packages;
    }
  }

  ScheduleOptions schedule_options;
  schedule_options.rate_per_s = kRatePerS;
  schedule_options.seconds = options.seconds;
  schedule_options.connections = kConnections;
  schedule_options.class_mix = kClassMix;
  schedule_options.pool_sizes = kPoolSizes;
  const std::vector<Arrival> schedule =
      PoissonSchedule(options.seed ^ 0x6c6f6164ULL, schedule_options);
  std::array<std::vector<size_t>, kConnections> per_connection;
  for (size_t i = 0; i < schedule.size(); ++i) {
    per_connection[schedule[i].connection].push_back(i);
  }

  serve::ServerOptions server_options;
  server_options.unix_socket_path = kSocketPath;
  server_options.workers = kServerWorkers;
  LAPIS_ASSIGN_OR_RETURN(auto server,
                         serve::Server::Start(server_options, &store));
  std::vector<std::unique_ptr<Connection>> connections;
  for (uint32_t c = 0; c < kConnections; ++c) {
    LAPIS_ASSIGN_OR_RETURN(int fd, serve::ConnectUnixSocket(kSocketPath,
                                                            kReplyTimeoutMs));
    connections.push_back(std::make_unique<Connection>(fd));
    LAPIS_RETURN_IF_ERROR(serve::SetSocketTimeouts(fd, kReplyTimeoutMs));
  }

  // ---- The timed window ----
  // Per arrival: send time (written by the sender, read by receivers after
  // the reply arrives), reply time and outcome (receivers only).
  std::vector<std::atomic<double>> sent_at(schedule.size());
  for (auto& t : sent_at) {
    t.store(-1.0, std::memory_order_relaxed);
  }
  std::vector<double> replied_at(schedule.size(), -1.0);
  std::vector<uint8_t> answered_ok(schedule.size(), 0);
  std::atomic<uint64_t> busy_replies{0};
  std::array<std::atomic<bool>, kConnections> broken{};
  // CPU the load generator's own threads spend (receivers, then the
  // sender), so that serve.cpu_us_per_frame counts the server's work (and
  // the reloads) alone. Each thread writes its own slot.
  std::array<double, kConnections + 1> generator_cpu_s{};

  const double cpu_start = runtime::ProcessCpuSeconds();
  const double base = MonotonicSeconds() + 0.05;
  std::thread sender([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& arrival = schedule[i];
      if (broken[arrival.connection].load()) {
        continue;
      }
      WaitUntil(base + arrival.due_s);
      const auto cls = static_cast<size_t>(arrival.frame_class);
      sent_at[i].store(MonotonicSeconds(), std::memory_order_release);
      if (!serve::WriteFully(connections[arrival.connection]->fd(),
                             pools[cls].encoded[arrival.payload])) {
        broken[arrival.connection].store(true);
      }
    }
    generator_cpu_s[kConnections] = ThreadCpuSeconds();
  });
  std::vector<std::thread> receivers;
  for (uint32_t c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      for (size_t i : per_connection[c]) {
        bool corrupt = false;
        auto responses = ReadResponse(connections[c]->fd(), &corrupt);
        if (!responses.has_value()) {
          std::fprintf(stderr,
                       "perfbench: connection %u %s; remaining frames fail\n",
                       c, corrupt ? "got a corrupt reply" : "read failed");
          broken[c].store(true);
          break;
        }
        replied_at[i] = MonotonicSeconds();
        const Arrival& arrival = schedule[i];
        const auto& expected =
            pools[static_cast<size_t>(arrival.frame_class)]
                .expected[arrival.payload];
        bool ok = responses->size() == expected.size();
        for (size_t k = 0; ok && k < expected.size(); ++k) {
          ok = SameAnswer((*responses)[k], expected[k]);
        }
        if (!ok && responses->size() == 1 &&
            (*responses)[0].status == serve::WireStatus::kBusy) {
          busy_replies.fetch_add(1);
        }
        answered_ok[i] = ok ? 1 : 0;
      }
      generator_cpu_s[c] = ThreadCpuSeconds();
    });
  }
  std::vector<double> reload_ms;
  uint64_t reload_failures = 0;
  std::thread reloader([&] {
    for (double next = base + kReloadIntervalS / 2;
         next < base + options.seconds; next += kReloadIntervalS) {
      WaitUntil(next);
      ScopedSpan span(tracer, "serve.reload");
      double start = MonotonicSeconds();
      auto fresh = serve::Snapshot::FromFile(kArtifactFile);
      if (fresh.ok()) {
        store.Publish(fresh.take());
        reload_ms.push_back((MonotonicSeconds() - start) * 1e3);
      } else {
        ++reload_failures;
      }
    }
  });
  sender.join();
  for (auto& receiver : receivers) {
    receiver.join();
  }
  reloader.join();
  double cpu_s = runtime::ProcessCpuSeconds() - cpu_start;
  for (double generator_s : generator_cpu_s) {
    cpu_s -= generator_s;
  }
  server->Stop();
  const serve::ServerStats server_stats = server->stats();
  ::unlink(kSocketPath);

  // ---- Results ----
  const double timeout_us = kReplyTimeoutMs * 1e3;
  std::vector<double> all_ms, queue_us, transport_us;
  std::array<std::vector<double>, kFrameClassCount> class_us;
  uint64_t failed = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    const auto cls = static_cast<size_t>(arrival.frame_class);
    const double due = base + arrival.due_s;
    const double sent = sent_at[i].load(std::memory_order_acquire);
    double latency_us = timeout_us;
    if (answered_ok[i] && replied_at[i] >= 0) {
      latency_us = (replied_at[i] - due) * 1e6;
      queue_us.push_back((sent - due) * 1e6);
      transport_us.push_back((replied_at[i] - sent) * 1e6 - exec_us[cls]);
      tracer.Add("perfbench.queue", due, sent, 0, i + 1);
      tracer.Add("serve.roundtrip", sent, replied_at[i], 0, i + 1);
    } else {
      ++failed;
    }
    class_us[cls].push_back(latency_us);
    all_ms.push_back(latency_us / 1e3);
  }
  report.Attempt(schedule.size() + reload_ms.size() + reload_failures,
                 failed + reload_failures);

  report.Metric("op_p50_ms", Median(all_ms), "ms");
  report.Metric("serve.cpu_us_per_frame",
                cpu_s * 1e6 / static_cast<double>(schedule.size()), "us");
  report.Info("offered_frames_per_s", kRatePerS);
  report.Info("server_workers", static_cast<double>(kServerWorkers));

  uint64_t limit_misses = 0;
  for (size_t cls = 0; cls < kFrameClassCount; ++cls) {
    const std::string name = FrameClassName(static_cast<FrameClass>(cls));
    double pct = 0.0;
    double p99 = TailLatency(class_us[cls], &pct);
    report.Metric("serve." + name + "_p50_us", Median(class_us[cls]), "us");
    report.Metric("serve." + name + "_p99_us", p99, "us");
    report.Metric("serve.exec_us." + name, exec_us[cls], "us");
    report.Info(name + "_samples", static_cast<double>(class_us[cls].size()));
    report.Info(name + "_tail_percentile", pct);
    report.Info(name + "_p99_limit_us", kP99LimitUs[cls]);
    if (p99 > kP99LimitUs[cls]) {
      ++limit_misses;
      std::fprintf(stderr, "perfbench: %s p99 %.0f us misses its %.0f us "
                   "limit\n", name.c_str(), p99, kP99LimitUs[cls]);
    }
  }
  // Generator lateness: how late sends left, and whether it grew from the
  // first tenth of the window to the last (a growing backlog).
  std::vector<double> first_tenth, last_tenth;
  for (size_t i = 0; i < queue_us.size(); ++i) {
    if (i < queue_us.size() / 10) {
      first_tenth.push_back(queue_us[i]);
    } else if (i >= queue_us.size() - queue_us.size() / 10) {
      last_tenth.push_back(queue_us[i]);
    }
  }
  const double lateness_growth_us =
      Median(last_tenth) - Median(first_tenth);
  report.Info("generator_lateness_p50_us", Median(queue_us));
  report.Info("generator_lateness_growth_flag",
              lateness_growth_us > 1000.0 ? 1.0 : 0.0);
  report.Metric("serve.queue_us", Percentile(queue_us, 99.0), "us");
  report.Metric("serve.lateness_growth_us", lateness_growth_us, "us");
  report.Metric("serve.transport_us", Median(transport_us), "us");
  report.Metric("serve.limit_misses", static_cast<double>(limit_misses),
                "count");
  report.Metric("serve.frames", static_cast<double>(server_stats.frames_served),
                "count");
  report.Metric("serve.sheds",
                static_cast<double>(server_stats.frames_shed +
                                    server_stats.connections_shed +
                                    busy_replies.load()),
                "count");
  report.Metric("serve.reload_ms", Median(reload_ms), "ms");
  report.Metric("serve.load_ms", Median(load_ms), "ms");
  report.Metric("serve.decode_ms", Median(decode_ms), "ms");
  report.Metric("core.completeness_us", Median(completeness_us), "us");
  report.Metric("core.supported_packages_us", Median(supported_us), "us");
  return Status::Ok();
}

}  // namespace lapis::perfbench
