// lapis-query: CLI client for the lapis_serve daemon.
//
// Builds ONE batched request frame from the command line (and/or a batch
// script file), sends it, and prints one tab-separated line per response.
// Exit codes: 0 = every response OK (and no empty top-K), 1 = any
// per-request error or an empty top-K result, 2 = usage / connection
// errors.
//
// Examples:
//   lapis_query --socket=/run/lapis.sock --info --top=10
//   lapis_query --port=7419 --importance=epoll_wait
//   lapis_query --socket=... --eval=read,write,open,close,mmap
//   lapis_query --socket=... --top=5 --supported=read,write
//   lapis_query --socket=... --plan=20 --budget=50 --supported=read,write
//   lapis_query --socket=... --batch-file=queries.txt --timeout-ms=2000
//
// Batch file grammar (one request per line, '#' comments):
//   ping
//   info
//   importance <name> [kind]
//   eval <name,name,...> [kind]
//   top <k> [kind] [supported,csv]
//   plan <n> [budget] [supported,csv]

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/content_hash.h"
#include "src/corpus/dataset_io.h"
#include "src/plan/cost_model.h"
#include "src/plan/evidence.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

using namespace lapis;

namespace {

std::optional<core::ApiKind> ParseKind(const std::string& name) {
  if (name == "syscall") return core::ApiKind::kSyscall;
  if (name == "ioctl") return core::ApiKind::kIoctlOp;
  if (name == "fcntl") return core::ApiKind::kFcntlOp;
  if (name == "prctl") return core::ApiKind::kPrctlOp;
  if (name == "pseudo" || name == "file") return core::ApiKind::kPseudoFile;
  if (name == "libc") return core::ApiKind::kLibcFn;
  return std::nullopt;
}

std::vector<serve::ApiRef> NamesToRefs(const std::string& csv,
                                       core::ApiKind kind) {
  std::vector<serve::ApiRef> refs;
  for (const auto& name : Split(csv, ',')) {
    if (name.empty()) {
      continue;
    }
    serve::ApiRef ref;
    ref.kind = kind;
    ref.name = name;
    refs.push_back(std::move(ref));
  }
  return refs;
}

// Parses one batch-file line into a request; empty optional = parse error.
std::optional<serve::QueryRequest> ParseLine(const std::string& line) {
  std::vector<std::string> tokens;
  for (const auto& token : Split(line, ' ')) {
    if (!token.empty()) {
      tokens.push_back(token);
    }
  }
  if (tokens.empty()) {
    return std::nullopt;
  }
  serve::QueryRequest request;
  if (tokens[0] == "ping") {
    request.opcode = serve::Opcode::kPing;
    return request;
  }
  if (tokens[0] == "info") {
    request.opcode = serve::Opcode::kServerInfo;
    return request;
  }
  if (tokens[0] == "importance" && tokens.size() >= 2) {
    request.opcode = serve::Opcode::kImportance;
    request.api.kind = core::ApiKind::kSyscall;
    request.api.name = tokens[1];
    if (tokens.size() >= 3) {
      auto kind = ParseKind(tokens[2]);
      if (!kind.has_value()) {
        return std::nullopt;
      }
      request.api.kind = *kind;
    }
    return request;
  }
  if (tokens[0] == "eval" && tokens.size() >= 2) {
    request.opcode = serve::Opcode::kEvalProfile;
    core::ApiKind kind = core::ApiKind::kSyscall;
    if (tokens.size() >= 3) {
      auto parsed = ParseKind(tokens[2]);
      if (!parsed.has_value()) {
        return std::nullopt;
      }
      kind = *parsed;
    }
    request.evaluated_kinds_mask =
        static_cast<uint8_t>(1u << static_cast<uint8_t>(kind));
    request.supported = NamesToRefs(tokens[1], kind);
    return request;
  }
  if (tokens[0] == "plan" && tokens.size() >= 2) {
    request.opcode = serve::Opcode::kPlanFrontier;
    request.plan_max_actions =
        static_cast<uint32_t>(std::atoi(tokens[1].c_str()));
    if (tokens.size() >= 3) {
      request.plan_budget = std::atof(tokens[2].c_str());
    }
    if (tokens.size() >= 4) {
      request.supported = NamesToRefs(tokens[3], core::ApiKind::kSyscall);
    }
    return request;
  }
  if (tokens[0] == "top" && tokens.size() >= 2) {
    request.opcode = serve::Opcode::kTopK;
    request.top_k = static_cast<uint32_t>(std::atoi(tokens[1].c_str()));
    request.top_kind = core::ApiKind::kSyscall;
    if (tokens.size() >= 3) {
      auto kind = ParseKind(tokens[2]);
      if (!kind.has_value()) {
        return std::nullopt;
      }
      request.top_kind = *kind;
    }
    if (tokens.size() >= 4) {
      request.supported = NamesToRefs(tokens[3], request.top_kind);
    }
    return request;
  }
  return std::nullopt;
}

// Prints a response line; returns false when the caller should exit 1.
bool PrintResponse(const serve::QueryResponse& response) {
  if (response.status != serve::WireStatus::kOk) {
    std::printf("error\t%s\t%s\n",
                serve::WireStatusName(response.status),
                response.error.c_str());
    return false;
  }
  switch (response.opcode) {
    case serve::Opcode::kPing:
      std::printf("ping\tok\tgen=%llu\n",
                  static_cast<unsigned long long>(response.generation));
      return true;
    case serve::Opcode::kServerInfo:
      std::printf("info\tgen=%llu\thash=%016llx\tpackages=%u\t"
                  "installs=%llu\tprotocol=v%u\treload_failures=%llu\t"
                  "source=%s\n",
                  static_cast<unsigned long long>(response.generation),
                  static_cast<unsigned long long>(
                      response.info.content_hash),
                  response.info.package_count,
                  static_cast<unsigned long long>(
                      response.info.total_installations),
                  response.info.protocol_version,
                  static_cast<unsigned long long>(
                      response.info.reload_failures),
                  response.info.source.c_str());
      return true;
    case serve::Opcode::kImportance:
      std::printf("importance\t%s\t%.9g\t%.9g\t%u\n",
                  response.importance.name.c_str(),
                  response.importance.importance,
                  response.importance.unweighted,
                  response.importance.dependents);
      return true;
    case serve::Opcode::kEvalProfile:
      std::printf("eval\tcompleteness=%.9g\tsupported=%u/%u\t"
                  "resolved=%u\tabsent=%u\n",
                  response.eval.weighted_completeness,
                  response.eval.supported_packages,
                  response.eval.total_packages, response.eval.resolved_apis,
                  response.eval.absent_apis);
      return true;
    case serve::Opcode::kTopK: {
      if (response.top_k.empty()) {
        std::printf("top\tempty\n");
        return false;  // an empty ranking means something is very wrong
      }
      size_t rank = 1;
      for (const auto& entry : response.top_k) {
        std::printf("top\t%zu\t%s\t%.9g\n", rank++, entry.name.c_str(),
                    entry.importance);
      }
      return true;
    }
    case serve::Opcode::kPlanFrontier: {
      std::printf("plan\tsummary\tinitial=%.9g\tfinal=%.9g\tcost=%.9g\t"
                  "actions=%zu\taudit=%s\n",
                  response.plan.initial_completeness,
                  response.plan.final_completeness, response.plan.total_cost,
                  response.plan.actions.size(),
                  response.plan.audit_blind ? "blind" : "informed");
      size_t rank = 1;
      for (const auto& step : response.plan.actions) {
        std::printf("plan\t%zu\t%s\t%s\t%s\t%.9g\t%.9g\t%.9g\n", rank++,
                    step.name.c_str(),
                    plan::ActionName(
                        static_cast<plan::SupportAction>(step.action)),
                    plan::EvidenceClassName(
                        static_cast<plan::EvidenceClass>(step.evidence)),
                    step.cost, step.cumulative_cost,
                    step.completeness_after);
      }
      // A plan with zero actions against a non-degenerate dataset means the
      // request asked for nothing (budget below the cheapest move).
      return true;
    }
    case serve::Opcode::kFrameError:
      return false;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags("lapis-query: query a running lapis_serve daemon");
  flags.AddString("socket", "", "Unix socket path of the daemon");
  flags.AddString("host", "127.0.0.1", "TCP host when --socket is empty");
  flags.AddInt("port", 0, "TCP port when --socket is empty");
  flags.AddBool("ping", false, "liveness check");
  flags.AddBool("info", false, "snapshot generation + dataset shape");
  flags.AddString("importance", "",
                  "API name for a point importance lookup");
  flags.AddString("kind", "syscall",
                  "API kind for --importance/--eval/--top (syscall, ioctl, "
                  "fcntl, prctl, pseudo, libc)");
  flags.AddString("eval", "",
                  "comma-separated supported-API names: weighted "
                  "completeness of that profile");
  flags.AddInt("top", 0, "top-K APIs to add next");
  flags.AddInt("plan", 0,
               "support-plan length: next N (api, action) steps maximizing "
               "completeness per unit cost");
  flags.AddDouble("budget", 0.0,
                  "cost budget for --plan (0 = unbounded)");
  flags.AddBool("audit-blind", false,
                "ignore the study's audit evidence when planning");
  flags.AddString("supported", "",
                  "comma-separated already-supported names for "
                  "--top/--plan");
  flags.AddInt("timeout-ms", 0,
               "TOTAL deadline in milliseconds across connects, calls, and "
               "retry backoff (0 = wait forever); expiry exits 2 with a "
               "timeout message");
  flags.AddInt("retries", 0,
               "additional attempts after a retryable failure (server busy, "
               "connect refused/reset); each retry reconnects");
  flags.AddInt("backoff-ms", 100,
               "initial retry backoff; doubles per retry with jitter, "
               "capped by the --timeout-ms deadline");
  flags.AddString("batch-file", "",
                  "file of requests (one per line) sent in the same frame");
  flags.AddBool("version", false,
                "print protocol/schema versions and exit");
  auto status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  if (flags.GetBool("version")) {
    std::printf("lapis_query protocol v%u, study artifact schema v%u, "
                "cache schema v%u\n",
                serve::kProtocolVersion, corpus::kStudyArtifactVersion,
                cache::kCacheSchemaVersion);
    return 0;
  }

  if (auto range = flags.CheckIntRange({"port"}, 0, 65535); !range.ok()) {
    std::fprintf(stderr, "%s\n", range.message().c_str());
    return 2;
  }
  auto kind = ParseKind(flags.GetString("kind"));
  if (!kind.has_value()) {
    std::fprintf(stderr, "unknown --kind: %s\n",
                 flags.GetString("kind").c_str());
    return 2;
  }

  std::vector<serve::QueryRequest> batch;
  if (flags.GetBool("ping")) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kPing;
    batch.push_back(std::move(request));
  }
  if (flags.GetBool("info")) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kServerInfo;
    batch.push_back(std::move(request));
  }
  if (!flags.GetString("importance").empty()) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kImportance;
    request.api.kind = *kind;
    request.api.name = flags.GetString("importance");
    batch.push_back(std::move(request));
  }
  if (!flags.GetString("eval").empty()) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kEvalProfile;
    request.evaluated_kinds_mask =
        static_cast<uint8_t>(1u << static_cast<uint8_t>(*kind));
    request.supported = NamesToRefs(flags.GetString("eval"), *kind);
    batch.push_back(std::move(request));
  }
  if (flags.GetInt("top") > 0) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kTopK;
    request.top_kind = *kind;
    request.top_k = static_cast<uint32_t>(flags.GetInt("top"));
    request.supported = NamesToRefs(flags.GetString("supported"), *kind);
    batch.push_back(std::move(request));
  }
  if (flags.GetInt("plan") > 0) {
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kPlanFrontier;
    request.plan_max_actions = static_cast<uint32_t>(flags.GetInt("plan"));
    request.plan_budget = flags.GetDouble("budget");
    if (flags.GetBool("audit-blind")) {
      request.plan_flags |= serve::kPlanFlagAuditBlind;
    }
    request.supported = NamesToRefs(flags.GetString("supported"), *kind);
    batch.push_back(std::move(request));
  }
  if (!flags.GetString("batch-file").empty()) {
    std::ifstream in(flags.GetString("batch-file"));
    if (!in.good()) {
      std::fprintf(stderr, "cannot read %s\n",
                   flags.GetString("batch-file").c_str());
      return 2;
    }
    std::string line;
    size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty() || line[0] == '#') {
        continue;
      }
      auto request = ParseLine(line);
      if (!request.has_value()) {
        std::fprintf(stderr, "%s:%zu: cannot parse '%s'\n",
                     flags.GetString("batch-file").c_str(), line_no,
                     line.c_str());
        return 2;
      }
      batch.push_back(std::move(*request));
    }
  }
  if (batch.empty()) {
    std::fprintf(stderr,
                 "nothing to ask: pass --info, --importance, --eval, "
                 "--top, --plan, or --batch-file\n%s",
                 flags.Usage().c_str());
    return 2;
  }

  serve::Endpoint endpoint;
  endpoint.unix_path = flags.GetString("socket");
  endpoint.host = flags.GetString("host");
  endpoint.port = static_cast<uint16_t>(flags.GetInt("port"));
  serve::RetryOptions retry;
  retry.timeout_ms = static_cast<int>(flags.GetInt("timeout-ms"));
  retry.retries = static_cast<int>(flags.GetInt("retries"));
  retry.backoff_ms = static_cast<int>(flags.GetInt("backoff-ms"));
  serve::RetryTelemetry telemetry;
  auto responses = serve::CallWithRetry(endpoint, batch, retry, &telemetry);
  if (telemetry.attempts > 1) {
    std::fprintf(stderr,
                 "lapis_query: %u attempts (%u busy, %u transport "
                 "failures), %lld ms backed off\n",
                 telemetry.attempts, telemetry.busy_responses,
                 telemetry.io_failures,
                 static_cast<long long>(telemetry.backoff_waited_ms));
  }
  if (!responses.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 responses.status().ToString().c_str());
    return 2;
  }
  bool all_ok = true;
  for (const auto& response : responses.value()) {
    all_ok = PrintResponse(response) && all_ok;
  }
  return all_ok ? 0 : 1;
}
