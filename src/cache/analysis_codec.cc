#include "src/cache/analysis_codec.h"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

namespace lapis::cache {

namespace {

using analysis::BinaryAnalysis;
using analysis::Footprint;
using analysis::FunctionInfo;

// The fewest bytes one encoded item of each count takes. A footprint is six
// counts and four i32 site counters; a function adds its name length,
// vaddr, size, call and callee counts, block count and completeness byte.
constexpr size_t kWordBytes = 4;  // an i32, a u32 or a string's length
constexpr size_t kCalleeBytes = 8;
constexpr size_t kFootprintBytes = 6 * 4 + 4 * 4;
constexpr size_t kFunctionBytes = 4 + 8 + 8 + kFootprintBytes + 4 + 4 + 8 + 1;

template <typename Set, typename Put>
void EncodeSet(const Set& values, ByteWriter& writer, Put put) {
  writer.PutU32(static_cast<uint32_t>(values.size()));
  for (const auto& v : values) {
    put(v);
  }
}

// Decodes a count-prefixed run of strings.
Result<SortedSet<std::string>> DecodeStringSet(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(kWordBytes));
  SortedSet<std::string> out;
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(std::string s, reader.ReadLengthPrefixedString());
    out.insert(out.end(), std::move(s));
  }
  return out;
}

void EncodeFootprint(const Footprint& footprint, ByteWriter& writer) {
  EncodeSet(footprint.syscalls, writer,
            [&](int nr) { writer.PutI32(nr); });
  EncodeSet(footprint.ioctl_ops, writer,
            [&](uint32_t op) { writer.PutU32(op); });
  EncodeSet(footprint.fcntl_ops, writer,
            [&](uint32_t op) { writer.PutU32(op); });
  EncodeSet(footprint.prctl_ops, writer,
            [&](uint32_t op) { writer.PutU32(op); });
  EncodeSet(footprint.pseudo_paths, writer, [&](const std::string& path) {
    writer.PutLengthPrefixedString(path);
  });
  EncodeSet(footprint.int80_syscalls, writer,
            [&](int nr) { writer.PutI32(nr); });
  writer.PutI32(footprint.unknown_syscall_sites);
  writer.PutI32(footprint.unknown_opcode_sites);
  writer.PutI32(footprint.indirect_call_sites);
  writer.PutI32(footprint.int80_sites);
}

Result<Footprint> DecodeFootprint(ByteReader& reader) {
  Footprint fp;
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(kWordBytes));
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(int32_t nr, reader.ReadI32());
    fp.syscalls.insert(fp.syscalls.end(), nr);
  }
  for (auto* ops : {&fp.ioctl_ops, &fp.fcntl_ops, &fp.prctl_ops}) {
    LAPIS_ASSIGN_OR_RETURN(count, reader.ReadCount(kWordBytes));
    for (uint32_t i = 0; i < count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(uint32_t op, reader.ReadU32());
      ops->insert(ops->end(), op);
    }
  }
  LAPIS_ASSIGN_OR_RETURN(fp.pseudo_paths, DecodeStringSet(reader));
  LAPIS_ASSIGN_OR_RETURN(count, reader.ReadCount(kWordBytes));
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(int32_t nr, reader.ReadI32());
    fp.int80_syscalls.insert(fp.int80_syscalls.end(), nr);
  }
  LAPIS_ASSIGN_OR_RETURN(fp.unknown_syscall_sites, reader.ReadI32());
  LAPIS_ASSIGN_OR_RETURN(fp.unknown_opcode_sites, reader.ReadI32());
  LAPIS_ASSIGN_OR_RETURN(fp.indirect_call_sites, reader.ReadI32());
  LAPIS_ASSIGN_OR_RETURN(fp.int80_sites, reader.ReadI32());
  return fp;
}

}  // namespace

void AnalysisCodec::Encode(const BinaryAnalysis& analysis,
                           ByteWriter& writer) {
  writer.PutLengthPrefixedString(analysis.soname_);
  writer.PutU8(analysis.is_executable_ ? 1 : 0);
  writer.PutU64(analysis.entry_);
  writer.PutI32(analysis.total_syscall_sites);
  writer.PutI32(analysis.unknown_syscall_sites);

  writer.PutU32(static_cast<uint32_t>(analysis.needed_.size()));
  for (const auto& n : analysis.needed_) {
    writer.PutLengthPrefixedString(n);
  }
  writer.PutU32(static_cast<uint32_t>(analysis.exports_.size()));
  for (const auto& e : analysis.exports_) {
    writer.PutLengthPrefixedString(e);
  }

  writer.PutU32(static_cast<uint32_t>(analysis.functions_.size()));
  for (const FunctionInfo& fn : analysis.functions_) {
    writer.PutLengthPrefixedString(fn.name);
    writer.PutU64(fn.vaddr);
    writer.PutU64(fn.size);
    EncodeFootprint(fn.local, writer);
    // Ids ascend in name order: the same bytes as the names' set.
    EncodeSet(fn.plt_calls, writer, [&](uint32_t id) {
      writer.PutLengthPrefixedString(analysis.imports_[id]);
    });
    EncodeSet(fn.local_callees, writer,
              [&](uint64_t callee) { writer.PutU64(callee); });
    writer.PutU64(fn.basic_block_count);
    writer.PutU8(fn.decode_complete ? 1 : 0);
  }
}

Result<BinaryAnalysis> AnalysisCodec::Decode(ByteReader& reader) {
  BinaryAnalysis analysis;
  LAPIS_ASSIGN_OR_RETURN(analysis.soname_,
                         reader.ReadLengthPrefixedString());
  LAPIS_ASSIGN_OR_RETURN(uint8_t is_exe, reader.ReadU8());
  analysis.is_executable_ = is_exe != 0;
  LAPIS_ASSIGN_OR_RETURN(analysis.entry_, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(analysis.total_syscall_sites, reader.ReadI32());
  LAPIS_ASSIGN_OR_RETURN(analysis.unknown_syscall_sites, reader.ReadI32());

  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(kWordBytes));
  analysis.needed_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(std::string s, reader.ReadLengthPrefixedString());
    analysis.needed_.push_back(std::move(s));
  }
  LAPIS_ASSIGN_OR_RETURN(count, reader.ReadCount(kWordBytes));
  analysis.exports_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(std::string s, reader.ReadLengthPrefixedString());
    analysis.exports_.push_back(std::move(s));
  }

  LAPIS_ASSIGN_OR_RETURN(count, reader.ReadCount(kFunctionBytes));
  analysis.functions_.reserve(count);
  // Every function's called names in turn (function i's end at
  // call_ends[i]), viewed in the payload until the import table exists.
  std::vector<std::string_view> calls;
  std::vector<size_t> call_ends;
  for (uint32_t i = 0; i < count; ++i) {
    FunctionInfo fn;
    LAPIS_ASSIGN_OR_RETURN(fn.name, reader.ReadLengthPrefixedString());
    LAPIS_ASSIGN_OR_RETURN(fn.vaddr, reader.ReadU64());
    if (i > 0 && fn.vaddr < analysis.functions_.back().vaddr) {
      return CorruptDataError("functions out of vaddr order");
    }
    LAPIS_ASSIGN_OR_RETURN(fn.size, reader.ReadU64());
    LAPIS_ASSIGN_OR_RETURN(fn.local, DecodeFootprint(reader));
    LAPIS_ASSIGN_OR_RETURN(uint32_t call_count, reader.ReadCount(kWordBytes));
    for (uint32_t c = 0; c < call_count; ++c) {
      LAPIS_ASSIGN_OR_RETURN(std::string_view name,
                             reader.ReadLengthPrefixedView());
      calls.push_back(name);
    }
    call_ends.push_back(calls.size());
    LAPIS_ASSIGN_OR_RETURN(uint32_t callees, reader.ReadCount(kCalleeBytes));
    for (uint32_t c = 0; c < callees; ++c) {
      LAPIS_ASSIGN_OR_RETURN(uint64_t callee, reader.ReadU64());
      fn.local_callees.insert(fn.local_callees.end(), callee);
    }
    LAPIS_ASSIGN_OR_RETURN(uint64_t blocks, reader.ReadU64());
    fn.basic_block_count = static_cast<size_t>(blocks);
    LAPIS_ASSIGN_OR_RETURN(uint8_t complete, reader.ReadU8());
    fn.decode_complete = complete != 0;
    analysis.functions_.push_back(std::move(fn));
  }
  // Rebuild the name-sorted import table: visit the calls in name order
  // (one function's calls already are) and number each by its name's rank.
  std::vector<uint32_t> order(calls.size());
  std::iota(order.begin(), order.end(), 0);
  if (!std::is_sorted(calls.begin(), calls.end())) {
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return calls[a] < calls[b]; });
  }
  std::vector<std::string_view> names;
  std::vector<uint32_t> ids(calls.size());
  for (uint32_t call : order) {
    if (names.empty() || names.back() != calls[call]) {
      names.push_back(calls[call]);
    }
    ids[call] = static_cast<uint32_t>(names.size() - 1);
  }
  analysis.imports_ = PackedStrings(names);
  auto first = ids.begin();
  for (uint32_t i = 0; i < count; ++i) {
    const auto last = ids.begin() + static_cast<ptrdiff_t>(call_ends[i]);
    analysis.functions_[i].plt_calls.insert(first, last);
    first = last;
  }
  analysis.IndexNames();
  return analysis;
}

}  // namespace lapis::cache
