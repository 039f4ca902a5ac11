// lapis_serve end-to-end: snapshot answers must be byte-identical to
// direct dataset queries (the daemon adds transport, not arithmetic),
// generation swaps must never tear or block readers (run under TSan via
// the `tsan` label), and malformed frames must be rejected without
// disturbing other connections.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/core/completeness.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/plan/cost_model.h"
#include "src/plan/planner.h"
#include "src/serve/client.h"
#include "src/serve/generation.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/socket_io.h"

namespace lapis::serve {
namespace {

const corpus::StudyResult& Study() {
  static const corpus::StudyResult* study = [] {
    auto result = corpus::RunStudy(corpus::SmallStudyOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new corpus::StudyResult(result.take());
  }();
  return *study;
}

std::shared_ptr<const Snapshot> SharedSnapshot() {
  static const auto* snapshot = [] {
    auto result = Snapshot::FromStudy(Study(), "test-study");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new std::shared_ptr<const Snapshot>(result.take());
  }();
  return *snapshot;
}

std::string TestSocketPath(const char* name) {
  return testing::TempDir() + "/lapis_serve_" + name + ".sock";
}

QueryRequest ImportanceRequest(const std::string& name) {
  QueryRequest request;
  request.opcode = Opcode::kImportance;
  request.api.kind = core::ApiKind::kSyscall;
  request.api.name = name;
  return request;
}

// ---- Snapshot vs direct dataset computation (byte-stable results) ----

TEST(ServeSnapshot, ImportanceMatchesDatasetExactly) {
  auto snapshot = SharedSnapshot();
  const auto& dataset = *Study().dataset;
  for (int nr : {0, 1, 2, 9, 16, 157, 232, 317}) {
    auto api = core::SyscallApi(static_cast<uint32_t>(nr));
    auto response = snapshot->Execute(
        ImportanceRequest(std::string(corpus::SyscallName(nr))));
    ASSERT_EQ(response.status, WireStatus::kOk) << nr;
    // Exact equality: the snapshot reads the same dataset, so the daemon
    // must return bit-identical doubles to the TSV pipeline.
    EXPECT_EQ(response.importance.importance, dataset.ApiImportance(api));
    EXPECT_EQ(response.importance.unweighted,
              dataset.UnweightedImportance(api));
    EXPECT_EQ(response.importance.dependents, dataset.Dependents(api).size());
    EXPECT_EQ(response.importance.name, corpus::SyscallName(nr));
  }
}

TEST(ServeSnapshot, UnknownSyscallNameIsError) {
  auto response =
      SharedSnapshot()->Execute(ImportanceRequest("no_such_syscall"));
  EXPECT_EQ(response.status, WireStatus::kUnknownApi);
  EXPECT_FALSE(response.error.empty());
}

TEST(ServeSnapshot, AbsentPseudoFileHasZeroImportance) {
  QueryRequest request;
  request.opcode = Opcode::kImportance;
  request.api.kind = core::ApiKind::kPseudoFile;
  request.api.name = "/proc/definitely/not/a/real/path";
  auto response = SharedSnapshot()->Execute(request);
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.importance.importance, 0.0);
  EXPECT_EQ(response.importance.dependents, 0u);
}

TEST(ServeSnapshot, EvalProfileMatchesWeightedCompleteness) {
  auto snapshot = SharedSnapshot();
  const auto& dataset = *Study().dataset;
  auto ranked = dataset.RankByImportance(core::ApiKind::kSyscall,
                                         corpus::FullSyscallUniverse());
  ASSERT_GE(ranked.size(), 150u);

  QueryRequest request;
  request.opcode = Opcode::kEvalProfile;
  request.evaluated_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
  std::set<core::ApiId> supported;
  for (size_t i = 0; i < 150; ++i) {
    supported.insert(ranked[i]);
    ApiRef ref;
    ref.kind = core::ApiKind::kSyscall;
    ref.name = std::string(
        corpus::SyscallName(static_cast<int>(ranked[i].code)));
    request.supported.push_back(std::move(ref));
  }
  auto response = snapshot->Execute(request);
  ASSERT_EQ(response.status, WireStatus::kOk);

  core::CompletenessOptions options;
  options.evaluated_kinds = {core::ApiKind::kSyscall};
  EXPECT_EQ(response.eval.weighted_completeness,
            core::WeightedCompleteness(dataset, supported, options));
  auto flags = core::SupportedPackages(dataset, supported, options);
  uint32_t expected_supported = 0;
  for (bool ok : flags) {
    expected_supported += ok ? 1 : 0;
  }
  EXPECT_EQ(response.eval.supported_packages, expected_supported);
  EXPECT_EQ(response.eval.total_packages, dataset.package_count());
  EXPECT_EQ(response.eval.resolved_apis, 150u);
  EXPECT_EQ(response.eval.absent_apis, 0u);
}

TEST(ServeSnapshot, TopKMatchesSuggestNextApis) {
  auto snapshot = SharedSnapshot();
  const auto& dataset = *Study().dataset;
  auto ranked = dataset.RankByImportance(core::ApiKind::kSyscall,
                                         corpus::FullSyscallUniverse());
  std::set<core::ApiId> supported(ranked.begin(), ranked.begin() + 30);

  QueryRequest request;
  request.opcode = Opcode::kTopK;
  request.top_kind = core::ApiKind::kSyscall;
  request.top_k = 10;
  for (const auto& api : supported) {
    ApiRef ref;
    ref.kind = core::ApiKind::kSyscall;
    ref.name =
        std::string(corpus::SyscallName(static_cast<int>(api.code)));
    request.supported.push_back(std::move(ref));
  }
  auto response = snapshot->Execute(request);
  ASSERT_EQ(response.status, WireStatus::kOk);
  ASSERT_EQ(response.top_k.size(), 10u);

  auto expected = core::SuggestNextApis(dataset, supported,
                                        core::ApiKind::kSyscall, 10);
  ASSERT_EQ(expected.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(response.top_k[i].api.code, expected[i].code) << i;
    EXPECT_EQ(response.top_k[i].importance,
              dataset.ApiImportance(expected[i]))
        << i;
  }
}

TEST(ServeSnapshot, ProfileReferencesCountPerEntryAndFailAlike) {
  auto snapshot = SharedSnapshot();
  auto ref = [](core::ApiKind kind, const char* name) {
    ApiRef out;
    out.kind = kind;
    out.name = name;
    return out;
  };
  QueryRequest request;
  request.evaluated_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
  request.top_kind = core::ApiKind::kSyscall;
  request.top_k = 5;
  request.plan_max_actions = 3;
  request.supported = {
      ref(core::ApiKind::kSyscall, "read"),
      ref(core::ApiKind::kSyscall, "read"),
      ref(core::ApiKind::kPseudoFile, "/proc/definitely/not/a/real/path"),
      ref(core::ApiKind::kSyscall, "write")};

  // Eval counts every reference, the duplicate included.
  request.opcode = Opcode::kEvalProfile;
  auto eval = snapshot->Execute(request);
  ASSERT_EQ(eval.status, WireStatus::kOk) << eval.error;
  EXPECT_EQ(eval.eval.resolved_apis, 3u);
  EXPECT_EQ(eval.eval.absent_apis, 1u);
  const std::set<core::ApiId> read_write = {core::SyscallApi(0),
                                            core::SyscallApi(1)};
  core::CompletenessOptions options;
  options.evaluated_kinds = {core::ApiKind::kSyscall};
  EXPECT_EQ(eval.eval.weighted_completeness,
            core::WeightedCompleteness(*Study().dataset, read_write,
                                       options));

  request.opcode = Opcode::kTopK;
  auto top = snapshot->Execute(request);
  ASSERT_EQ(top.status, WireStatus::kOk) << top.error;
  ASSERT_EQ(top.top_k.size(), 5u);
  for (const TopKEntry& entry : top.top_k) {
    EXPECT_FALSE(read_write.contains(entry.api)) << entry.name;
  }

  // Every profile-taking opcode rejects an unknown name the same way.
  request.supported.push_back(
      ref(core::ApiKind::kSyscall, "no_such_syscall"));
  for (Opcode opcode :
       {Opcode::kEvalProfile, Opcode::kTopK, Opcode::kPlanFrontier}) {
    request.opcode = opcode;
    auto rejected = snapshot->Execute(request);
    EXPECT_EQ(rejected.status, WireStatus::kUnknownApi);
    EXPECT_EQ(rejected.error, "cannot resolve 'no_such_syscall'");
  }
}

TEST(ServeSnapshot, TopKZeroCountIsBadRequest) {
  QueryRequest request;
  request.opcode = Opcode::kTopK;
  request.top_k = 0;
  EXPECT_EQ(SharedSnapshot()->Execute(request).status,
            WireStatus::kBadRequest);
}

TEST(ServeSnapshot, PlanFrontierMatchesDirectGreedyPlan) {
  auto snapshot = SharedSnapshot();
  QueryRequest request;
  request.opcode = Opcode::kPlanFrontier;
  request.evaluated_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
  request.plan_max_actions = 32;
  auto response = snapshot->Execute(request);
  ASSERT_EQ(response.status, WireStatus::kOk);
  // SmallStudyOptions runs no audit, so the plan must be audit-blind even
  // without the client asking for it.
  EXPECT_EQ(response.plan.audit_blind, 1);
  ASSERT_FALSE(response.plan.actions.empty());
  ASSERT_LE(response.plan.actions.size(), 32u);

  plan::PlannerInput input;
  input.dataset = Study().dataset.get();
  plan::CostModel costs = plan::CostModel::Defaults();
  input.costs = &costs;
  input.evaluated_kinds = {core::ApiKind::kSyscall};
  input.max_actions = 32;
  plan::SupportPlan direct = plan::GreedyPlan(input);

  // The daemon adds transport, not arithmetic: bit-identical doubles.
  EXPECT_EQ(response.plan.initial_completeness, direct.initial_completeness);
  EXPECT_EQ(response.plan.final_completeness, direct.final_completeness);
  EXPECT_EQ(response.plan.total_cost, direct.total_cost);
  ASSERT_EQ(response.plan.actions.size(), direct.actions.size());
  for (size_t i = 0; i < direct.actions.size(); ++i) {
    EXPECT_EQ(response.plan.actions[i].api, direct.actions[i].api) << i;
    EXPECT_EQ(response.plan.actions[i].action,
              static_cast<uint8_t>(direct.actions[i].action))
        << i;
    EXPECT_EQ(response.plan.actions[i].cumulative_cost,
              direct.actions[i].cumulative_cost)
        << i;
    EXPECT_EQ(response.plan.actions[i].completeness_after,
              direct.actions[i].completeness_after)
        << i;
  }
}

TEST(ServeSnapshot, PlanFrontierUnknownSupportedApiIsError) {
  QueryRequest request;
  request.opcode = Opcode::kPlanFrontier;
  request.supported.resize(1);
  request.supported[0] = {core::ApiKind::kSyscall, 0, "no_such_syscall"};
  EXPECT_EQ(SharedSnapshot()->Execute(request).status,
            WireStatus::kUnknownApi);
}

TEST(ServeSnapshot, SameArtifactSameContentHash) {
  auto again = Snapshot::FromStudy(Study(), "other-label");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->content_hash(), SharedSnapshot()->content_hash());
}

// ---- GenerationStore ----

TEST(ServeGeneration, EmptyStoreHasNoCurrent) {
  GenerationStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.latest(), 0u);
}

TEST(ServeGeneration, PublishAssignsMonotonicNumbers) {
  GenerationStore store;
  auto snapshot = SharedSnapshot();
  EXPECT_EQ(store.Publish(snapshot), 1u);
  EXPECT_EQ(store.Publish(snapshot), 2u);
  EXPECT_EQ(store.Publish(snapshot), 3u);
  auto current = store.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->number, 3u);
  EXPECT_EQ(store.latest(), 3u);
}

TEST(ServeGeneration, OldGenerationSurvivesReplacement) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  auto pinned = store.Current();
  auto replacement = Snapshot::FromStudy(Study(), "gen2");
  ASSERT_TRUE(replacement.ok());
  store.Publish(replacement.take());
  // The pinned generation still answers from its own snapshot.
  EXPECT_EQ(pinned->number, 1u);
  EXPECT_EQ(pinned->snapshot->source(), "test-study");
  EXPECT_EQ(store.Current()->number, 2u);
}

// ---- Socket I/O: EINTR survival and timeouts ----

// A signal handler installed WITHOUT SA_RESTART makes every blocking
// read/write return EINTR — the daemon-reload (SIGHUP) scenario. Scoped
// installer so a failing assertion cannot leak the handler.
class ScopedSighupHandler {
 public:
  ScopedSighupHandler() {
    struct sigaction sa = {};
    sa.sa_handler = [](int) {};
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // no SA_RESTART: syscalls must surface EINTR
    sigaction(SIGHUP, &sa, &old_);
  }
  ~ScopedSighupHandler() { sigaction(SIGHUP, &old_, nullptr); }

 private:
  struct sigaction old_ = {};
};

TEST(SocketIo, ReadAndWriteFullySurviveSighupMidTransfer) {
  ScopedSighupHandler handler;
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the pipe so the writer genuinely blocks mid-payload and the
  // reader genuinely blocks between chunks.
  int small = 16 * 1024;
  setsockopt(fds[0], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  std::vector<uint8_t> payload(2 * 1024 * 1024);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131u + 17u);
  }

  std::atomic<int> remaining{2};
  std::vector<uint8_t> received(payload.size());
  ssize_t read_result = -2;
  bool write_result = false;

  std::thread reader([&] {
    read_result = ReadFully(fds[0], received.data(), received.size());
    remaining.fetch_sub(1);
  });
  std::thread writer([&] {
    write_result = WriteFully(fds[1], payload);
    remaining.fetch_sub(1);
  });
  // Pepper both blocked threads with SIGHUP for the whole transfer. The
  // pthread_t handles stay valid until join, which happens only after the
  // signaler exits.
  pthread_t reader_handle = reader.native_handle();
  pthread_t writer_handle = writer.native_handle();
  std::thread signaler([&] {
    while (remaining.load() > 0) {
      pthread_kill(reader_handle, SIGHUP);
      pthread_kill(writer_handle, SIGHUP);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  signaler.join();
  writer.join();
  reader.join();

  EXPECT_TRUE(write_result);
  EXPECT_EQ(read_result, static_cast<ssize_t>(payload.size()));
  EXPECT_EQ(received, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(SocketIo, ReadTimeoutExpiresInsteadOfHanging) {
  // A listener that never accepts: connect succeeds via the backlog, but
  // no response ever arrives — the client read must expire, not hang.
  std::string path = TestSocketPath("timeout");
  auto listener = ListenUnixSocket(path, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  auto client = QueryClient::ConnectUnix(path, /*timeout_ms=*/150);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto start = std::chrono::steady_clock::now();
  QueryRequest ping;  // defaults to kPing
  auto response = client.value().CallOne(ping);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().ToString().find("timed out"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_GE(elapsed, 100);
  EXPECT_LT(elapsed, 5000);
  close(listener.value());
  unlink(path.c_str());
}

TEST(SocketIo, ZeroTimeoutMeansWaitForever) {
  // timeout_ms = 0 must leave the socket blocking (no spurious EAGAIN on
  // a healthy round trip).
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("notimeout");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());
  auto client = QueryClient::ConnectUnix(options.unix_socket_path, 0);
  ASSERT_TRUE(client.ok());
  auto response = client.value().CallOne(ImportanceRequest("read"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, WireStatus::kOk);
  server.value()->Stop();
}

// ---- Server end-to-end over a Unix socket ----

TEST(ServeServer, AnswersBatchOverUnixSocket) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("e2e");
  options.workers = 2;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = QueryClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<QueryRequest> batch;
  QueryRequest ping;
  batch.push_back(ping);
  QueryRequest info;
  info.opcode = Opcode::kServerInfo;
  batch.push_back(info);
  batch.push_back(ImportanceRequest("read"));
  auto responses = client.value().Call(batch);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses.value().size(), 3u);
  for (const auto& response : responses.value()) {
    EXPECT_EQ(response.status, WireStatus::kOk);
    EXPECT_EQ(response.generation, 1u);
  }
  EXPECT_EQ(responses.value()[1].info.content_hash,
            SharedSnapshot()->content_hash());
  // The socket round trip preserves the exact doubles.
  EXPECT_EQ(responses.value()[2].importance.importance,
            Study().dataset->ApiImportance(core::SyscallApi(0)));

  // A second frame on the same connection works (persistent connections).
  auto again = client.value().CallOne(ImportanceRequest("write"));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().importance.importance,
            Study().dataset->ApiImportance(core::SyscallApi(1)));

  server.value()->Stop();
  auto stats = server.value()->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.frames_served, 2u);
  EXPECT_EQ(stats.requests_served, 4u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(ServeServer, PlanFrontierOverUnixSocket) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("plan");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = QueryClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  QueryRequest request;
  request.opcode = Opcode::kPlanFrontier;
  request.evaluated_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
  request.plan_max_actions = 16;  // output cap; budget stays unbounded
  auto response = client.value().CallOne(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, WireStatus::kOk);
  const PlanFrontierResult& plan = response.value().plan;
  ASSERT_FALSE(plan.actions.empty());
  EXPECT_LE(plan.actions.size(), 16u);
  // Per-action curves are monotone and end at the summary values.
  for (size_t i = 1; i < plan.actions.size(); ++i) {
    EXPECT_GE(plan.actions[i].cumulative_cost,
              plan.actions[i - 1].cumulative_cost);
    EXPECT_GE(plan.actions[i].completeness_after,
              plan.actions[i - 1].completeness_after);
  }
  EXPECT_EQ(plan.actions.back().cumulative_cost, plan.total_cost);
  EXPECT_EQ(plan.actions.back().completeness_after, plan.final_completeness);
  EXPECT_FALSE(plan.actions[0].name.empty());

  // The socket answer is bit-identical to asking the snapshot in-process.
  auto local = SharedSnapshot()->Execute(request);
  ASSERT_EQ(local.status, WireStatus::kOk);
  EXPECT_EQ(plan.final_completeness, local.plan.final_completeness);
  EXPECT_EQ(plan.total_cost, local.plan.total_cost);
  ASSERT_EQ(plan.actions.size(), local.plan.actions.size());

  server.value()->Stop();
}

TEST(ServeServer, NotReadyBeforeFirstPublish) {
  GenerationStore store;  // nothing published
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("notready");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());
  auto client = QueryClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(client.ok());
  auto response = client.value().CallOne(ImportanceRequest("read"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, WireStatus::kNotReady);
  server.value()->Stop();
}

TEST(ServeServer, MalformedMagicGetsFrameErrorAndClose) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("badmagic");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectUnixSocket(options.unix_socket_path);
  ASSERT_TRUE(fd.ok());
  uint8_t garbage[16];
  std::memset(garbage, 0xa5, sizeof garbage);
  ASSERT_TRUE(WriteFully(fd.value(), garbage));

  uint8_t header[kFrameHeaderSize];
  ASSERT_EQ(ReadFully(fd.value(), header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  auto payload_len = DecodeFrameHeader(header, kResponseMagic);
  ASSERT_TRUE(payload_len.ok()) << payload_len.status().ToString();
  std::vector<uint8_t> payload(payload_len.value());
  ASSERT_EQ(ReadFully(fd.value(), payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  auto decoded = DecodeResponsePayload(payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 1u);
  EXPECT_EQ(decoded.value()[0].opcode, Opcode::kFrameError);
  EXPECT_NE(decoded.value()[0].status, WireStatus::kOk);

  // The server closes the connection after a frame error (clean EOF, or
  // ECONNRESET when our unread trailing garbage triggers a reset).
  uint8_t extra;
  EXPECT_LE(ReadFully(fd.value(), &extra, 1), 0);
  ::close(fd.value());

  server.value()->Stop();
  EXPECT_GE(server.value()->stats().protocol_errors, 1u);
}

TEST(ServeServer, TruncatedHeaderCountsAsProtocolError) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("trunc");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectUnixSocket(options.unix_socket_path);
  ASSERT_TRUE(fd.ok());
  uint8_t partial[3] = {0x4c, 0x51, 0x46};
  ASSERT_TRUE(WriteFully(fd.value(), partial));
  ::shutdown(fd.value(), SHUT_WR);
  // Drain whatever the server sends (nothing or an error frame), then EOF.
  uint8_t sink[256];
  while (ReadFully(fd.value(), sink, sizeof sink) > 0) {
  }
  ::close(fd.value());

  server.value()->Stop();
  EXPECT_GE(server.value()->stats().protocol_errors, 1u);
}

TEST(ServeServer, OversizedDeclaredPayloadRejected) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("oversize");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectUnixSocket(options.unix_socket_path);
  ASSERT_TRUE(fd.ok());
  uint8_t header[kFrameHeaderSize];
  uint32_t magic = kRequestMagic;
  uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &huge, 4);
  ASSERT_TRUE(WriteFully(fd.value(), header));

  uint8_t response_header[kFrameHeaderSize];
  ASSERT_EQ(ReadFully(fd.value(), response_header, sizeof response_header),
            static_cast<ssize_t>(sizeof response_header));
  auto payload_len = DecodeFrameHeader(response_header, kResponseMagic);
  ASSERT_TRUE(payload_len.ok());
  std::vector<uint8_t> payload(payload_len.value());
  ASSERT_EQ(ReadFully(fd.value(), payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  auto decoded = DecodeResponsePayload(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value()[0].opcode, Opcode::kFrameError);
  ::close(fd.value());
  server.value()->Stop();
  EXPECT_GE(server.value()->stats().protocol_errors, 1u);
}

TEST(ServeServer, TcpTransportWorks) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;  // no unix path => loopback TCP, ephemeral port
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE(server.value()->tcp_port(), 0);
  auto client =
      QueryClient::ConnectTcp("127.0.0.1", server.value()->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto response = client.value().CallOne(ImportanceRequest("mmap"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, WireStatus::kOk);
  server.value()->Stop();
}

// ---- Concurrent clients hammering a generation swap (TSan target) ----

TEST(ServeServer, ConcurrentClientsSurviveGenerationSwaps) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  auto alternate = Snapshot::FromStudy(Study(), "alternate");
  ASSERT_TRUE(alternate.ok());
  auto alternate_snapshot = alternate.take();

  ServerOptions options;
  options.unix_socket_path = TestSocketPath("swap");
  options.workers = 4;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  constexpr int kClientThreads = 4;
  constexpr int kFramesPerClient = 60;
  constexpr int kPublishes = 50;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_seen_generation{0};

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      auto client = QueryClient::ConnectUnix(options.unix_socket_path);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<QueryRequest> batch;
      batch.push_back(ImportanceRequest("read"));
      batch.push_back(ImportanceRequest(t % 2 == 0 ? "mmap" : "close"));
      QueryRequest top;
      top.opcode = Opcode::kTopK;
      top.top_k = 3;
      batch.push_back(top);
      for (int i = 0; i < kFramesPerClient; ++i) {
        auto responses = client.value().Call(batch);
        if (!responses.ok() || responses.value().size() != batch.size()) {
          failures.fetch_add(1);
          return;
        }
        uint64_t generation = responses.value()[0].generation;
        for (const auto& response : responses.value()) {
          // Every request in a frame is answered on ONE pinned
          // generation — a mismatch means a torn swap.
          if (response.status != WireStatus::kOk ||
              response.generation != generation) {
            failures.fetch_add(1);
            return;
          }
        }
        uint64_t seen = max_seen_generation.load();
        while (generation > seen &&
               !max_seen_generation.compare_exchange_weak(seen, generation)) {
        }
      }
    });
  }

  for (int i = 0; i < kPublishes; ++i) {
    store.Publish(i % 2 == 0 ? alternate_snapshot : SharedSnapshot());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& thread : clients) {
    thread.join();
  }
  server.value()->Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.latest(), 1u + kPublishes);
  EXPECT_GT(max_seen_generation.load(), 1u);
  auto stats = server.value()->stats();
  EXPECT_EQ(stats.frames_served,
            static_cast<uint64_t>(kClientThreads) * kFramesPerClient);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---- SIGHUP-reload degradation: bad artifacts keep the old generation ----

// The lapis_serve SIGHUP handler is one call: store.PublishFromFile(path).
// These tests drive that exact API with every flavor of broken artifact an
// operator can produce — missing, garbage, truncated mid-save — and assert
// the daemon's contract: the old generation keeps serving untouched, the
// failure is counted, and a subsequent good reload recovers.

std::string SavedArtifactPath() {
  static const std::string* path = [] {
    auto p = testing::TempDir() + "/lapis_serve_reload_artifact.bin";
    EXPECT_TRUE(corpus::SaveStudy(Study(), p).ok());
    return new std::string(p);
  }();
  return *path;
}

TEST(ServeGeneration, ReloadFailuresKeepOldGenerationServing) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  auto pinned = store.Current();
  ASSERT_NE(pinned, nullptr);

  // Missing artifact (operator fat-fingered the path or the save crashed
  // before the rename landed).
  auto missing =
      store.PublishFromFile(testing::TempDir() + "/no_such_artifact.bin");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(store.reload_failures(), 1u);

  // Garbage bytes where an artifact should be.
  std::string corrupt_path = testing::TempDir() + "/lapis_serve_corrupt.bin";
  {
    std::ofstream out(corrupt_path, std::ios::binary);
    out << "this is not a study artifact";
  }
  EXPECT_FALSE(store.PublishFromFile(corrupt_path).ok());
  EXPECT_EQ(store.reload_failures(), 2u);

  // A real artifact torn in half (crash mid-copy without atomic rename).
  std::string truncated_path =
      testing::TempDir() + "/lapis_serve_truncated.bin";
  std::filesystem::copy_file(
      SavedArtifactPath(), truncated_path,
      std::filesystem::copy_options::overwrite_existing);
  std::filesystem::resize_file(
      truncated_path, std::filesystem::file_size(truncated_path) / 2);
  EXPECT_FALSE(store.PublishFromFile(truncated_path).ok());
  EXPECT_EQ(store.reload_failures(), 3u);

  // Through all three failures the original generation never moved and
  // still answers queries.
  EXPECT_EQ(store.latest(), 1u);
  auto current = store.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->number, 1u);
  EXPECT_EQ(current->snapshot->content_hash(),
            SharedSnapshot()->content_hash());

  // A good artifact recovers: next generation publishes, the failure
  // counter keeps its history.
  auto reloaded = store.PublishFromFile(SavedArtifactPath());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.value(), 2u);
  EXPECT_EQ(store.latest(), 2u);
  EXPECT_EQ(store.reload_failures(), 3u);

  std::filesystem::remove(corrupt_path);
  std::filesystem::remove(truncated_path);
}

TEST(ServeServer, InfoReportsReloadFailuresOverTheWire) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  EXPECT_FALSE(
      store.PublishFromFile(testing::TempDir() + "/still_missing.bin").ok());
  EXPECT_FALSE(
      store.PublishFromFile(testing::TempDir() + "/also_missing.bin").ok());

  ServerOptions options;
  options.unix_socket_path = TestSocketPath("reloadinfo");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());
  auto client = QueryClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(client.ok());

  QueryRequest info;
  info.opcode = Opcode::kServerInfo;
  auto response = client.value().CallOne(info);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().status, WireStatus::kOk);
  EXPECT_EQ(response.value().info.reload_failures, 2u);
  EXPECT_EQ(response.value().generation, 1u);

  // Recover, then the wire reflects both the new generation and the
  // preserved failure history.
  ASSERT_TRUE(store.PublishFromFile(SavedArtifactPath()).ok());
  auto after = client.value().CallOne(info);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().generation, 2u);
  EXPECT_EQ(after.value().info.reload_failures, 2u);

  server.value()->Stop();
  EXPECT_EQ(server.value()->stats().reload_failures, 2u);
}

// ---- Overload shedding: retryable busy, not a hang or a hard error ----

TEST(ServeServer, ConnectionCapShedsWithRetryableBusy) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("connshed");
  options.workers = 2;
  options.max_connections = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  // One client takes the only slot and proves it works.
  auto held = QueryClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(held.ok());
  QueryRequest ping;  // defaults to kPing
  ASSERT_TRUE(held.value().CallOne(ping).ok());

  // The second connection is accepted just long enough to be told "busy"
  // — a clean retryable status, not a hang, reset, or protocol error.
  auto shed = QueryClient::ConnectUnix(options.unix_socket_path);
  ASSERT_TRUE(shed.ok());
  auto response = shed.value().CallOne(ping);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable)
      << response.status().ToString();
  EXPECT_TRUE(IsRetryableStatus(response.status()));
  EXPECT_GE(server.value()->stats().connections_shed, 1u);

  // Once the slot frees up, a retrying client gets through.
  held.value().Close();
  Endpoint endpoint;
  endpoint.unix_path = options.unix_socket_path;
  RetryOptions retry;
  retry.retries = 20;
  retry.backoff_ms = 20;
  RetryTelemetry telemetry;
  auto retried = CallWithRetry(
      endpoint, std::span<const QueryRequest>(&ping, 1), retry, &telemetry);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_GE(telemetry.attempts, 1u);

  server.value()->Stop();
  EXPECT_EQ(server.value()->stats().protocol_errors, 0u);
}

TEST(ServeServer, InflightFrameCapShedsAndRetryRecovers) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("frameshed");
  options.workers = 2;
  options.max_inflight_frames = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  // Two clients hammer a slow request (plan frontier) so frames overlap;
  // with one in-flight slot, the loser of each race gets a busy response
  // on a connection that stays usable.
  QueryRequest slow;
  slow.opcode = Opcode::kPlanFrontier;
  slow.evaluated_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kSyscall);
  slow.plan_max_actions = 64;

  std::atomic<int> busy_seen{0};
  std::atomic<int> hard_failures{0};
  auto hammer = [&] {
    auto client = QueryClient::ConnectUnix(options.unix_socket_path);
    if (!client.ok()) {
      hard_failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < 300 && busy_seen.load() == 0; ++i) {
      auto response = client.value().CallOne(slow);
      if (response.ok()) {
        continue;
      }
      if (response.status().code() == StatusCode::kUnavailable) {
        busy_seen.fetch_add(1);
        // The shed connection survives: the very next call works (or is
        // shed again — both are fine, never a hard failure).
        auto next = client.value().CallOne(slow);
        if (!next.ok() &&
            next.status().code() != StatusCode::kUnavailable) {
          hard_failures.fetch_add(1);
        }
        return;
      }
      hard_failures.fetch_add(1);
      return;
    }
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();

  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_GT(busy_seen.load(), 0);
  EXPECT_GT(server.value()->stats().frames_shed, 0u);

  // CallWithRetry absorbs the shedding transparently.
  Endpoint endpoint;
  endpoint.unix_path = options.unix_socket_path;
  RetryOptions retry;
  retry.retries = 10;
  retry.backoff_ms = 5;
  auto retried = CallWithRetry(
      endpoint, std::span<const QueryRequest>(&slow, 1), retry, nullptr);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();

  server.value()->Stop();
  EXPECT_EQ(server.value()->stats().protocol_errors, 0u);
}

// ---- CallWithRetry: deadline, backoff, and retryability classification ----

TEST(ClientRetry, TotalDeadlineBoundsTheRetryLoop) {
  Endpoint endpoint;
  endpoint.unix_path = TestSocketPath("never_created");
  RetryOptions options;
  options.retries = 1000;  // the deadline, not the count, must stop us
  options.backoff_ms = 20;
  options.timeout_ms = 250;
  RetryTelemetry telemetry;
  QueryRequest ping;

  auto start = std::chrono::steady_clock::now();
  auto response = CallWithRetry(
      endpoint, std::span<const QueryRequest>(&ping, 1), options,
      &telemetry);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(response.ok());
  EXPECT_NE(response.status().ToString().find("deadline exhausted"),
            std::string::npos)
      << response.status().ToString();
  EXPECT_GE(telemetry.attempts, 2u);
  EXPECT_GT(telemetry.io_failures, 0u);
  EXPECT_GE(elapsed, 200);
  EXPECT_LT(elapsed, 5000);  // nowhere near 1000 * backoff
}

TEST(ClientRetry, NonRetryableErrorReturnsWithoutRetrying) {
  // A "server" that answers with garbage: the client must classify the
  // corrupt frame as non-retryable and give up after ONE attempt — retrying
  // a protocol violation would just hammer a broken peer.
  std::string path = TestSocketPath("garbage_server");
  auto listener = ListenUnixSocket(path, 4);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread garbage_server([fd = listener.value()] {
    int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      return;
    }
    uint8_t sink[512];
    (void)::read(conn, sink, sizeof sink);
    uint8_t garbage[kFrameHeaderSize];
    std::memset(garbage, 0xa5, sizeof garbage);
    WriteFully(conn, garbage);
    ::close(conn);
  });

  Endpoint endpoint;
  endpoint.unix_path = path;
  RetryOptions options;
  options.retries = 5;
  options.backoff_ms = 10;
  RetryTelemetry telemetry;
  QueryRequest ping;
  auto response = CallWithRetry(
      endpoint, std::span<const QueryRequest>(&ping, 1), options,
      &telemetry);
  ASSERT_FALSE(response.ok());
  EXPECT_FALSE(IsRetryableStatus(response.status()))
      << response.status().ToString();
  EXPECT_EQ(telemetry.attempts, 1u);

  garbage_server.join();
  ::close(listener.value());
  unlink(path.c_str());
}

TEST(ClientRetry, ZeroRetriesBehavesLikePlainCall) {
  GenerationStore store;
  store.Publish(SharedSnapshot());
  ServerOptions options;
  options.unix_socket_path = TestSocketPath("zeroretry");
  options.workers = 1;
  auto server = Server::Start(options, &store);
  ASSERT_TRUE(server.ok());

  Endpoint endpoint;
  endpoint.unix_path = options.unix_socket_path;
  RetryOptions retry;  // retries = 0
  RetryTelemetry telemetry;
  auto request = ImportanceRequest("read");
  auto response = CallWithRetry(
      endpoint, std::span<const QueryRequest>(&request, 1), retry,
      &telemetry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response.value().size(), 1u);
  EXPECT_EQ(response.value()[0].importance.importance,
            Study().dataset->ApiImportance(core::SyscallApi(0)));
  EXPECT_EQ(telemetry.attempts, 1u);
  EXPECT_EQ(telemetry.backoff_waited_ms, 0);
  server.value()->Stop();
}

}  // namespace
}  // namespace lapis::serve
