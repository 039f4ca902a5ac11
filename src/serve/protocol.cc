#include "src/serve/protocol.h"

#include <bit>

namespace lapis::serve {

namespace {

// The fewest bytes one encoded item of each list takes: an ApiRef is a kind
// byte, a code and a name length; a top-K entry adds an importance; a plan
// action adds action and evidence bytes and four doubles.
constexpr size_t kApiRefBytes = 1 + 4 + 4;
constexpr size_t kTopKEntryBytes = kApiRefBytes + 8;
constexpr size_t kPlanActionBytes = kApiRefBytes + 1 + 1 + 4 * 8;

void PutDouble(ByteWriter& writer, double v) {
  writer.PutU64(std::bit_cast<uint64_t>(v));
}

Result<double> ReadDouble(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint64_t bits, reader.ReadU64());
  return std::bit_cast<double>(bits);
}

Result<core::ApiKind> ReadKind(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint8_t kind, reader.ReadU8());
  if (kind >= core::kApiKindCount) {
    return InvalidArgumentError("bad ApiKind byte " + std::to_string(kind));
  }
  return static_cast<core::ApiKind>(kind);
}

void PutApiRef(ByteWriter& writer, const ApiRef& ref) {
  writer.PutU8(static_cast<uint8_t>(ref.kind));
  writer.PutU32(ref.code);
  writer.PutLengthPrefixedString(ref.name);
}

Result<ApiRef> ReadApiRef(ByteReader& reader) {
  ApiRef ref;
  LAPIS_ASSIGN_OR_RETURN(ref.kind, ReadKind(reader));
  LAPIS_ASSIGN_OR_RETURN(ref.code, reader.ReadU32());
  LAPIS_ASSIGN_OR_RETURN(ref.name, reader.ReadLengthPrefixedString());
  return ref;
}

Result<std::vector<ApiRef>> ReadApiRefList(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(kApiRefBytes));
  if (count > kMaxProfileApis) {
    return InvalidArgumentError("profile too large: " + std::to_string(count) +
                                " APIs");
  }
  std::vector<ApiRef> refs;
  refs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(ApiRef ref, ReadApiRef(reader));
    refs.push_back(std::move(ref));
  }
  return refs;
}

void PutApiRefList(ByteWriter& writer, std::span<const ApiRef> refs) {
  writer.PutU32(static_cast<uint32_t>(refs.size()));
  for (const ApiRef& ref : refs) {
    PutApiRef(writer, ref);
  }
}

void EncodeRequest(const QueryRequest& request, ByteWriter& writer) {
  writer.PutU8(static_cast<uint8_t>(request.opcode));
  switch (request.opcode) {
    case Opcode::kPing:
    case Opcode::kServerInfo:
      break;
    case Opcode::kImportance:
      PutApiRef(writer, request.api);
      break;
    case Opcode::kEvalProfile:
      writer.PutU8(request.evaluated_kinds_mask);
      PutApiRefList(writer, request.supported);
      break;
    case Opcode::kTopK:
      writer.PutU8(static_cast<uint8_t>(request.top_kind));
      writer.PutU32(request.top_k);
      PutApiRefList(writer, request.supported);
      break;
    case Opcode::kPlanFrontier:
      writer.PutU8(request.plan_flags);
      writer.PutU8(request.evaluated_kinds_mask);
      writer.PutU32(request.plan_max_actions);
      PutDouble(writer, request.plan_budget);
      PutApiRefList(writer, request.supported);
      break;
    case Opcode::kFrameError:
      break;  // never sent as a request; decoder rejects it
  }
}

Result<QueryRequest> DecodeRequest(ByteReader& reader) {
  QueryRequest request;
  LAPIS_ASSIGN_OR_RETURN(uint8_t opcode, reader.ReadU8());
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
    case Opcode::kServerInfo:
      request.opcode = static_cast<Opcode>(opcode);
      return request;
    case Opcode::kImportance: {
      request.opcode = Opcode::kImportance;
      LAPIS_ASSIGN_OR_RETURN(request.api, ReadApiRef(reader));
      return request;
    }
    case Opcode::kEvalProfile: {
      request.opcode = Opcode::kEvalProfile;
      LAPIS_ASSIGN_OR_RETURN(request.evaluated_kinds_mask, reader.ReadU8());
      LAPIS_ASSIGN_OR_RETURN(request.supported, ReadApiRefList(reader));
      return request;
    }
    case Opcode::kTopK: {
      request.opcode = Opcode::kTopK;
      LAPIS_ASSIGN_OR_RETURN(request.top_kind, ReadKind(reader));
      LAPIS_ASSIGN_OR_RETURN(request.top_k, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(request.supported, ReadApiRefList(reader));
      return request;
    }
    case Opcode::kPlanFrontier: {
      request.opcode = Opcode::kPlanFrontier;
      LAPIS_ASSIGN_OR_RETURN(request.plan_flags, reader.ReadU8());
      LAPIS_ASSIGN_OR_RETURN(request.evaluated_kinds_mask, reader.ReadU8());
      LAPIS_ASSIGN_OR_RETURN(request.plan_max_actions, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(request.plan_budget, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(request.supported, ReadApiRefList(reader));
      return request;
    }
    case Opcode::kFrameError:
      break;
  }
  return InvalidArgumentError("unknown request opcode " +
                              std::to_string(opcode));
}

void EncodeResponse(const QueryResponse& response, ByteWriter& writer) {
  writer.PutU8(static_cast<uint8_t>(response.opcode));
  writer.PutU8(static_cast<uint8_t>(response.status));
  writer.PutU64(response.generation);
  if (response.status != WireStatus::kOk) {
    writer.PutLengthPrefixedString(response.error);
    return;
  }
  switch (response.opcode) {
    case Opcode::kPing:
      break;
    case Opcode::kServerInfo: {
      const ServerInfoResult& info = response.info;
      writer.PutU32(info.protocol_version);
      writer.PutU64(info.content_hash);
      writer.PutU32(info.package_count);
      writer.PutU64(info.total_installations);
      writer.PutU64(info.reload_failures);
      writer.PutLengthPrefixedString(info.source);
      break;
    }
    case Opcode::kImportance: {
      const ImportanceResult& result = response.importance;
      writer.PutU8(static_cast<uint8_t>(result.api.kind));
      writer.PutU32(result.api.code);
      writer.PutLengthPrefixedString(result.name);
      PutDouble(writer, result.importance);
      PutDouble(writer, result.unweighted);
      writer.PutU32(result.dependents);
      break;
    }
    case Opcode::kEvalProfile: {
      const EvalProfileResult& result = response.eval;
      PutDouble(writer, result.weighted_completeness);
      writer.PutU32(result.supported_packages);
      writer.PutU32(result.total_packages);
      writer.PutU32(result.resolved_apis);
      writer.PutU32(result.absent_apis);
      break;
    }
    case Opcode::kTopK: {
      writer.PutU32(static_cast<uint32_t>(response.top_k.size()));
      for (const TopKEntry& entry : response.top_k) {
        writer.PutU8(static_cast<uint8_t>(entry.api.kind));
        writer.PutU32(entry.api.code);
        writer.PutLengthPrefixedString(entry.name);
        PutDouble(writer, entry.importance);
      }
      break;
    }
    case Opcode::kPlanFrontier: {
      const PlanFrontierResult& result = response.plan;
      PutDouble(writer, result.initial_completeness);
      PutDouble(writer, result.final_completeness);
      PutDouble(writer, result.total_cost);
      writer.PutU8(result.audit_blind);
      writer.PutU32(static_cast<uint32_t>(result.actions.size()));
      for (const PlanActionWire& action : result.actions) {
        writer.PutU8(static_cast<uint8_t>(action.api.kind));
        writer.PutU32(action.api.code);
        writer.PutLengthPrefixedString(action.name);
        writer.PutU8(action.action);
        writer.PutU8(action.evidence);
        PutDouble(writer, action.cost);
        PutDouble(writer, action.cumulative_cost);
        PutDouble(writer, action.completeness_after);
        PutDouble(writer, action.importance);
      }
      break;
    }
    case Opcode::kFrameError:
      break;  // status is never kOk for frame errors
  }
}

Result<QueryResponse> DecodeResponse(ByteReader& reader) {
  QueryResponse response;
  LAPIS_ASSIGN_OR_RETURN(uint8_t opcode, reader.ReadU8());
  LAPIS_ASSIGN_OR_RETURN(uint8_t status, reader.ReadU8());
  if (status > static_cast<uint8_t>(WireStatus::kBusy)) {
    return InvalidArgumentError("bad WireStatus byte " +
                                std::to_string(status));
  }
  response.status = static_cast<WireStatus>(status);
  LAPIS_ASSIGN_OR_RETURN(response.generation, reader.ReadU64());
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kPing:
    case Opcode::kServerInfo:
    case Opcode::kImportance:
    case Opcode::kEvalProfile:
    case Opcode::kTopK:
    case Opcode::kPlanFrontier:
    case Opcode::kFrameError:
      response.opcode = static_cast<Opcode>(opcode);
      break;
    default:
      return InvalidArgumentError("unknown response opcode " +
                                  std::to_string(opcode));
  }
  if (response.status != WireStatus::kOk) {
    LAPIS_ASSIGN_OR_RETURN(response.error,
                           reader.ReadLengthPrefixedString());
    return response;
  }
  switch (response.opcode) {
    case Opcode::kPing:
      break;
    case Opcode::kServerInfo: {
      ServerInfoResult& info = response.info;
      LAPIS_ASSIGN_OR_RETURN(info.protocol_version, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(info.content_hash, reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(info.package_count, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(info.total_installations, reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(info.reload_failures, reader.ReadU64());
      LAPIS_ASSIGN_OR_RETURN(info.source, reader.ReadLengthPrefixedString());
      info.generation = response.generation;
      break;
    }
    case Opcode::kImportance: {
      ImportanceResult& result = response.importance;
      LAPIS_ASSIGN_OR_RETURN(result.api.kind, ReadKind(reader));
      LAPIS_ASSIGN_OR_RETURN(result.api.code, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(result.name, reader.ReadLengthPrefixedString());
      LAPIS_ASSIGN_OR_RETURN(result.importance, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(result.unweighted, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(result.dependents, reader.ReadU32());
      break;
    }
    case Opcode::kEvalProfile: {
      EvalProfileResult& result = response.eval;
      LAPIS_ASSIGN_OR_RETURN(result.weighted_completeness, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(result.supported_packages, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(result.total_packages, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(result.resolved_apis, reader.ReadU32());
      LAPIS_ASSIGN_OR_RETURN(result.absent_apis, reader.ReadU32());
      break;
    }
    case Opcode::kTopK: {
      LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(kTopKEntryBytes));
      if (count > kMaxProfileApis) {
        return InvalidArgumentError("top-K result too large: " +
                                    std::to_string(count));
      }
      response.top_k.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        TopKEntry entry;
        LAPIS_ASSIGN_OR_RETURN(entry.api.kind, ReadKind(reader));
        LAPIS_ASSIGN_OR_RETURN(entry.api.code, reader.ReadU32());
        LAPIS_ASSIGN_OR_RETURN(entry.name,
                               reader.ReadLengthPrefixedString());
        LAPIS_ASSIGN_OR_RETURN(entry.importance, ReadDouble(reader));
        response.top_k.push_back(std::move(entry));
      }
      break;
    }
    case Opcode::kPlanFrontier: {
      PlanFrontierResult& result = response.plan;
      LAPIS_ASSIGN_OR_RETURN(result.initial_completeness, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(result.final_completeness, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(result.total_cost, ReadDouble(reader));
      LAPIS_ASSIGN_OR_RETURN(result.audit_blind, reader.ReadU8());
      LAPIS_ASSIGN_OR_RETURN(uint32_t count,
                             reader.ReadCount(kPlanActionBytes));
      if (count > kMaxProfileApis) {
        return InvalidArgumentError("plan result too large: " +
                                    std::to_string(count));
      }
      result.actions.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        PlanActionWire action;
        LAPIS_ASSIGN_OR_RETURN(action.api.kind, ReadKind(reader));
        LAPIS_ASSIGN_OR_RETURN(action.api.code, reader.ReadU32());
        LAPIS_ASSIGN_OR_RETURN(action.name,
                               reader.ReadLengthPrefixedString());
        LAPIS_ASSIGN_OR_RETURN(action.action, reader.ReadU8());
        LAPIS_ASSIGN_OR_RETURN(action.evidence, reader.ReadU8());
        LAPIS_ASSIGN_OR_RETURN(action.cost, ReadDouble(reader));
        LAPIS_ASSIGN_OR_RETURN(action.cumulative_cost, ReadDouble(reader));
        LAPIS_ASSIGN_OR_RETURN(action.completeness_after,
                               ReadDouble(reader));
        LAPIS_ASSIGN_OR_RETURN(action.importance, ReadDouble(reader));
        result.actions.push_back(std::move(action));
      }
      break;
    }
    case Opcode::kFrameError:
      break;
  }
  return response;
}

std::vector<uint8_t> Frame(uint32_t magic, ByteWriter payload) {
  ByteWriter framed;
  framed.PutU32(magic);
  framed.PutU32(static_cast<uint32_t>(payload.size()));
  framed.PutBytes(payload.bytes());
  return framed.Take();
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kBadRequest: return "BAD_REQUEST";
    case WireStatus::kUnknownApi: return "UNKNOWN_API";
    case WireStatus::kUnsupportedKind: return "UNSUPPORTED_KIND";
    case WireStatus::kNotReady: return "NOT_READY";
    case WireStatus::kInternal: return "INTERNAL";
    case WireStatus::kBusy: return "BUSY";
  }
  return "INVALID";
}

std::vector<uint8_t> EncodeRequestFrame(std::span<const QueryRequest> batch) {
  ByteWriter payload;
  payload.PutU32(static_cast<uint32_t>(batch.size()));
  for (const QueryRequest& request : batch) {
    EncodeRequest(request, payload);
  }
  return Frame(kRequestMagic, std::move(payload));
}

std::vector<uint8_t> EncodeResponseFrame(
    std::span<const QueryResponse> batch) {
  ByteWriter payload;
  payload.PutU32(static_cast<uint32_t>(batch.size()));
  for (const QueryResponse& response : batch) {
    EncodeResponse(response, payload);
  }
  return Frame(kResponseMagic, std::move(payload));
}

Result<uint32_t> DecodeFrameHeader(std::span<const uint8_t> header,
                                   uint32_t expected_magic) {
  if (header.size() < kFrameHeaderSize) {
    return CorruptDataError("truncated frame header: " +
                            std::to_string(header.size()) + " bytes");
  }
  ByteReader reader(header);
  uint32_t magic = reader.ReadU32().take();
  if (magic != expected_magic) {
    return CorruptDataError("bad frame magic");
  }
  uint32_t payload_len = reader.ReadU32().take();
  if (payload_len > kMaxFramePayload) {
    return CorruptDataError("oversized frame: " + std::to_string(payload_len) +
                            " bytes (max " + std::to_string(kMaxFramePayload) +
                            ")");
  }
  if (payload_len < 4) {  // at least the batch count
    return CorruptDataError("frame payload too short to hold a batch count");
  }
  return payload_len;
}

template <typename T, typename DecodeFn>
static Result<std::vector<T>> DecodePayload(std::span<const uint8_t> payload,
                                            DecodeFn decode_one) {
  ByteReader reader(payload);
  // Each request or response starts with at least its opcode byte.
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(1));
  if (count > kMaxBatchRequests) {
    return InvalidArgumentError("batch too large: " + std::to_string(count) +
                                " entries (max " +
                                std::to_string(kMaxBatchRequests) + ")");
  }
  std::vector<T> batch;
  batch.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(T entry, decode_one(reader));
    batch.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) {
    return CorruptDataError(std::to_string(reader.remaining()) +
                            " trailing bytes after batch");
  }
  return batch;
}

Result<std::vector<QueryRequest>> DecodeRequestPayload(
    std::span<const uint8_t> payload) {
  return DecodePayload<QueryRequest>(payload, DecodeRequest);
}

Result<std::vector<QueryResponse>> DecodeResponsePayload(
    std::span<const uint8_t> payload) {
  return DecodePayload<QueryResponse>(payload, DecodeResponse);
}

std::vector<uint8_t> EncodeFrameErrorResponse(const std::string& error) {
  QueryResponse response;
  response.opcode = Opcode::kFrameError;
  response.status = WireStatus::kBadRequest;
  response.error = error;
  return EncodeResponseFrame(std::span<const QueryResponse>(&response, 1));
}

std::vector<uint8_t> EncodeBusyResponse(const std::string& error) {
  QueryResponse response;
  response.opcode = Opcode::kFrameError;
  response.status = WireStatus::kBusy;
  response.error = error;
  return EncodeResponseFrame(std::span<const QueryResponse>(&response, 1));
}

}  // namespace lapis::serve
