#include "src/serve/snapshot.h"

#include <cstdio>
#include <set>

#include <algorithm>

#include "src/cache/content_hash.h"
#include "src/core/completeness.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/plan/planner.h"
#include "src/util/io.h"

namespace lapis::serve {

namespace {

// Accepts decimal ("1074025674") and 0x-prefixed hex ("0x40045431")
// numerals for vectored-opcode references sent by name.
bool ParseCode(std::string_view s, uint32_t* out) {
  if (s.empty()) {
    return false;
  }
  uint64_t value = 0;
  size_t i = 0;
  int base = 10;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    base = 16;
    i = 2;
  }
  for (; i < s.size(); ++i) {
    char c = s[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (base == 16 && c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    value = value * static_cast<uint64_t>(base) + static_cast<uint64_t>(digit);
    if (value > UINT32_MAX) {
      return false;
    }
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

Result<std::shared_ptr<const Snapshot>> Snapshot::FromArtifactBytes(
    std::span<const uint8_t> bytes, std::string source) {
  ByteReader reader(bytes);
  LAPIS_ASSIGN_OR_RETURN(corpus::StudyArtifact artifact,
                         corpus::DeserializeStudy(reader));
  auto snapshot = std::shared_ptr<Snapshot>(new Snapshot());
  snapshot->artifact_ = std::move(artifact);
  snapshot->content_hash_ = cache::HashBytes(bytes);
  snapshot->source_ = std::move(source);

  const core::StudyDataset& dataset = *snapshot->artifact_.dataset;
  for (int k = 0; k < core::kApiKindCount; ++k) {
    auto kind = static_cast<core::ApiKind>(k);
    // Syscalls rank over the full 320-entry universe so unused calls
    // surface (with importance 0) in deep top-K tails, matching the
    // paper's "what to support" tables.
    snapshot->ranked_[static_cast<size_t>(k)] = dataset.RankByImportance(
        kind, kind == core::ApiKind::kSyscall ? corpus::FullSyscallUniverse()
                                              : std::vector<core::ApiId>{});
  }

  // Intern canonical names for everything rankable (and thus returnable).
  auto intern = [&snapshot](core::ApiId api, std::string_view name) {
    snapshot->name_ids_.emplace(api.Encode(), snapshot->names_.Intern(name));
  };
  char buf[48];
  for (const auto& ranked : snapshot->ranked_) {
    for (const core::ApiId& api : ranked) {
      switch (api.kind) {
        case core::ApiKind::kSyscall:
          intern(api, corpus::SyscallName(static_cast<int>(api.code)));
          break;
        case core::ApiKind::kIoctlOp:
          std::snprintf(buf, sizeof buf, "ioctl:0x%x", api.code);
          intern(api, buf);
          break;
        case core::ApiKind::kFcntlOp:
          std::snprintf(buf, sizeof buf, "fcntl:%u", api.code);
          intern(api, buf);
          break;
        case core::ApiKind::kPrctlOp:
          std::snprintf(buf, sizeof buf, "prctl:%u", api.code);
          intern(api, buf);
          break;
        case core::ApiKind::kPseudoFile:
          intern(api, snapshot->artifact_.path_interner.NameOf(api.code));
          break;
        case core::ApiKind::kLibcFn:
          intern(api, snapshot->artifact_.libc_interner.NameOf(api.code));
          break;
      }
    }
  }
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const Snapshot>> Snapshot::FromFile(
    const std::string& path) {
  LAPIS_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                         io::ReadFileBytes(path, io::Profile::kArtifactIo));
  return FromArtifactBytes(bytes, path);
}

Result<std::shared_ptr<const Snapshot>> Snapshot::FromStudy(
    const corpus::StudyResult& study, std::string source) {
  ByteWriter writer;
  LAPIS_RETURN_IF_ERROR(corpus::SerializeStudy(study, writer));
  return FromArtifactBytes(writer.bytes(), std::move(source));
}

std::string_view Snapshot::ApiName(core::ApiId api) const {
  auto it = name_ids_.find(api.Encode());
  if (it != name_ids_.end()) {
    return names_.NameOf(it->second);
  }
  return "";
}

WireStatus Snapshot::ResolveApi(const ApiRef& ref, core::ApiId* out,
                                bool* absent) const {
  *absent = false;
  if (static_cast<uint8_t>(ref.kind) >= core::kApiKindCount) {
    return WireStatus::kUnsupportedKind;
  }
  if (ref.name.empty()) {
    *out = core::ApiId{ref.kind, ref.code};
    return WireStatus::kOk;
  }
  switch (ref.kind) {
    case core::ApiKind::kSyscall: {
      auto nr = corpus::SyscallNumber(ref.name);
      if (!nr.has_value()) {
        return WireStatus::kUnknownApi;
      }
      *out = core::SyscallApi(static_cast<uint32_t>(*nr));
      return WireStatus::kOk;
    }
    case core::ApiKind::kIoctlOp:
    case core::ApiKind::kFcntlOp:
    case core::ApiKind::kPrctlOp: {
      // Accept both the bare numeral and the canonical "ioctl:0x..."
      // prefix form the server itself prints.
      std::string_view name = ref.name;
      auto colon = name.find(':');
      if (colon != std::string_view::npos) {
        name.remove_prefix(colon + 1);
      }
      uint32_t code = 0;
      if (!ParseCode(name, &code)) {
        return WireStatus::kUnknownApi;
      }
      *out = core::ApiId{ref.kind, code};
      return WireStatus::kOk;
    }
    case core::ApiKind::kPseudoFile: {
      uint32_t id = artifact_.path_interner.Find(ref.name);
      if (id == UINT32_MAX) {
        // A path no package touches: perfectly valid, importance 0.
        *absent = true;
        *out = core::ApiId{ref.kind, 0};
        return WireStatus::kOk;
      }
      *out = core::ApiId{ref.kind, id};
      return WireStatus::kOk;
    }
    case core::ApiKind::kLibcFn: {
      uint32_t id = artifact_.libc_interner.Find(ref.name);
      if (id == UINT32_MAX) {
        *absent = true;
        *out = core::ApiId{ref.kind, 0};
        return WireStatus::kOk;
      }
      *out = core::ApiId{ref.kind, id};
      return WireStatus::kOk;
    }
  }
  return WireStatus::kUnsupportedKind;
}

QueryResponse Snapshot::Execute(const QueryRequest& request) const {
  switch (request.opcode) {
    case Opcode::kPing: {
      QueryResponse response;
      response.opcode = Opcode::kPing;
      return response;
    }
    case Opcode::kServerInfo: {
      QueryResponse response;
      response.opcode = Opcode::kServerInfo;
      response.info.protocol_version = kProtocolVersion;
      response.info.content_hash = content_hash_;
      response.info.package_count =
          static_cast<uint32_t>(dataset().package_count());
      response.info.total_installations = dataset().total_installations();
      response.info.source = source_;
      return response;
    }
    case Opcode::kImportance:
      return ExecuteImportance(request);
    case Opcode::kEvalProfile:
      return ExecuteEvalProfile(request);
    case Opcode::kTopK:
      return ExecuteTopK(request);
    case Opcode::kPlanFrontier:
      return ExecutePlanFrontier(request);
    case Opcode::kFrameError:
      break;
  }
  QueryResponse response;
  response.opcode = request.opcode;
  response.status = WireStatus::kBadRequest;
  response.error = "unsupported opcode";
  return response;
}

QueryResponse Snapshot::ExecuteImportance(const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kImportance;
  core::ApiId api;
  bool absent = false;
  WireStatus status = ResolveApi(request.api, &api, &absent);
  if (status != WireStatus::kOk) {
    response.status = status;
    response.error = "cannot resolve '" + request.api.name + "'";
    return response;
  }
  ImportanceResult& result = response.importance;
  if (absent) {
    // Syntactically valid but unused anywhere: importance is exactly 0.
    result.api = core::ApiId{request.api.kind, 0};
    result.name = request.api.name;
    return response;
  }
  result.api = api;
  std::string_view canonical = ApiName(api);
  result.name = canonical.empty() ? request.api.name
                                  : std::string(canonical);
  result.importance = dataset().ApiImportance(api);
  result.unweighted = dataset().UnweightedImportance(api);
  result.dependents = static_cast<uint32_t>(dataset().Dependents(api).size());
  return response;
}

QueryResponse Snapshot::ExecuteEvalProfile(const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kEvalProfile;
  std::set<core::ApiId> supported;
  EvalProfileResult& result = response.eval;
  for (const ApiRef& ref : request.supported) {
    core::ApiId api;
    bool absent = false;
    WireStatus status = ResolveApi(ref, &api, &absent);
    if (status != WireStatus::kOk) {
      response.status = status;
      response.error = "cannot resolve '" + ref.name + "'";
      return response;
    }
    if (absent) {
      ++result.absent_apis;
    } else {
      supported.insert(api);
      ++result.resolved_apis;
    }
  }
  core::CompletenessOptions options;
  for (int k = 0; k < core::kApiKindCount; ++k) {
    if (request.evaluated_kinds_mask & (1u << k)) {
      options.evaluated_kinds.insert(static_cast<core::ApiKind>(k));
    }
  }
  core::SupportEvaluation evaluation =
      core::EvaluateSupport(dataset(), supported, options);
  result.weighted_completeness = evaluation.weighted_completeness;
  for (bool ok : evaluation.supported_packages) {
    result.supported_packages += ok ? 1 : 0;
  }
  result.total_packages = static_cast<uint32_t>(dataset().package_count());
  return response;
}

QueryResponse Snapshot::ExecuteTopK(const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kTopK;
  if (static_cast<uint8_t>(request.top_kind) >= core::kApiKindCount) {
    response.status = WireStatus::kUnsupportedKind;
    response.error = "bad top-K kind";
    return response;
  }
  if (request.top_k == 0 || request.top_k > kMaxProfileApis) {
    response.status = WireStatus::kBadRequest;
    response.error = "top-K count must be in [1, " +
                     std::to_string(kMaxProfileApis) + "]";
    return response;
  }
  std::set<core::ApiId> supported;
  for (const ApiRef& ref : request.supported) {
    core::ApiId api;
    bool absent = false;
    WireStatus status = ResolveApi(ref, &api, &absent);
    if (status != WireStatus::kOk) {
      response.status = status;
      response.error = "cannot resolve '" + ref.name + "'";
      return response;
    }
    if (!absent) {
      supported.insert(api);
    }
  }
  const auto& ranked = ranked_[static_cast<size_t>(request.top_kind)];
  for (const core::ApiId& api : ranked) {
    if (response.top_k.size() >= request.top_k) {
      break;
    }
    if (supported.find(api) != supported.end()) {
      continue;
    }
    TopKEntry entry;
    entry.api = api;
    entry.name = std::string(ApiName(api));
    entry.importance = dataset().ApiImportance(api);
    response.top_k.push_back(std::move(entry));
  }
  return response;
}

QueryResponse Snapshot::ExecutePlanFrontier(
    const QueryRequest& request) const {
  QueryResponse response;
  response.opcode = Opcode::kPlanFrontier;

  plan::PlannerInput input;
  input.dataset = artifact_.dataset.get();
  plan::CostModel costs = plan::CostModel::Defaults();
  input.costs = &costs;
  for (const ApiRef& ref : request.supported) {
    core::ApiId api;
    bool absent = false;
    WireStatus status = ResolveApi(ref, &api, &absent);
    if (status != WireStatus::kOk) {
      response.status = status;
      response.error = "cannot resolve '" + ref.name + "'";
      return response;
    }
    if (!absent) {
      input.already_supported.insert(api);
    }
  }
  for (int k = 0; k < core::kApiKindCount; ++k) {
    if (request.evaluated_kinds_mask & (1u << k)) {
      input.evaluated_kinds.insert(static_cast<core::ApiKind>(k));
    }
  }
  const bool audit_blind = (request.plan_flags & kPlanFlagAuditBlind) != 0 ||
                           artifact_.evidence_kinds_mask == 0;
  if (!audit_blind) {
    input.evidence.kinds_mask = artifact_.evidence_kinds_mask;
    input.evidence.observed = artifact_.evidence_observed;
  }
  if (request.plan_budget > 0.0) {
    input.budget = request.plan_budget;
  }
  // Cap the action list so the response always fits one frame (the payload
  // ceiling is 1 MiB; ~60 bytes/action keeps 4096 comfortably inside it).
  input.max_actions = request.plan_max_actions == 0
                          ? 100
                          : std::min<uint32_t>(request.plan_max_actions, 4096);

  plan::SupportPlan support_plan = plan::GreedyPlan(input);

  PlanFrontierResult& result = response.plan;
  result.initial_completeness = support_plan.initial_completeness;
  result.final_completeness = support_plan.final_completeness;
  result.total_cost = support_plan.total_cost;
  result.audit_blind = audit_blind ? 1 : 0;
  result.actions.reserve(support_plan.actions.size());
  for (const plan::PlanAction& action : support_plan.actions) {
    PlanActionWire wire;
    wire.api = action.api;
    std::string_view canonical = ApiName(action.api);
    wire.name = canonical.empty()
                    ? plan::PlanApiName(action.api, artifact_.path_interner,
                                        artifact_.libc_interner)
                    : std::string(canonical);
    wire.action = static_cast<uint8_t>(action.action);
    wire.evidence = static_cast<uint8_t>(action.evidence);
    wire.cost = action.cost;
    wire.cumulative_cost = action.cumulative_cost;
    wire.completeness_after = action.completeness_after;
    wire.importance = action.importance;
    result.actions.push_back(std::move(wire));
  }
  return response;
}

}  // namespace lapis::serve
