#include "src/corpus/dataset_io.h"

#include <algorithm>
#include <cstdio>

#include "src/util/io.h"

namespace lapis::corpus {

namespace {

constexpr uint32_t kMagic = 0x4c505354;  // "LPST"
constexpr uint32_t kVersion = kStudyArtifactVersion;

// The fewest bytes one item of each count takes on disk. A package holds a
// name length, an install count, a dependency count and a footprint size.
constexpr size_t kPackageBytes = 4 + 8 + 4 + 4;
constexpr size_t kDepBytes = 4;
constexpr size_t kApiIdBytes = 8;
constexpr size_t kDenseIdBytes = 4;
constexpr size_t kStringBytes = 4;

// The dataset rejects what it cannot hold as InvalidArgument; read from an
// artifact, that is corrupt data.
Status AsCorrupt(const Status& status) {
  return status.ok() ? status : CorruptDataError(status.message());
}

void SerializeInterner(const core::StringInterner& interner,
                       ByteWriter& writer) {
  writer.PutU32(static_cast<uint32_t>(interner.size()));
  for (uint32_t id = 0; id < interner.size(); ++id) {
    writer.PutLengthPrefixedString(interner.NameOf(id));
  }
}

Result<core::StringInterner> DeserializeInterner(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, reader.ReadCount(kStringBytes));
  core::StringInterner interner;
  for (uint32_t id = 0; id < count; ++id) {
    LAPIS_ASSIGN_OR_RETURN(std::string name,
                           reader.ReadLengthPrefixedString());
    if (interner.Intern(name) != id) {
      return CorruptDataError("duplicate interned string: " + name);
    }
  }
  return interner;
}

// One past the largest pseudo-file and libc codes an artifact's ApiIds
// name. The interners follow the footprints on disk, so the codes are
// checked against them once everything is read.
struct CodeBounds {
  uint64_t paths = 0;
  uint64_t libc = 0;
};

// Reads one footprint or evidence ApiId, rejecting unknown kinds.
Result<core::ApiId> ReadApiId(ByteReader& reader, CodeBounds& bounds) {
  LAPIS_ASSIGN_OR_RETURN(int64_t encoded, reader.ReadI64());
  if (static_cast<uint64_t>(encoded) >> 32 >= core::kApiKindCount) {
    return CorruptDataError("artifact names an unknown API kind");
  }
  const core::ApiId api = core::ApiId::Decode(encoded);
  if (api.kind == core::ApiKind::kPseudoFile) {
    bounds.paths = std::max(bounds.paths, api.code + uint64_t{1});
  } else if (api.kind == core::ApiKind::kLibcFn) {
    bounds.libc = std::max(bounds.libc, api.code + uint64_t{1});
  }
  return api;
}

}  // namespace

Status SerializeStudy(const StudyResult& study, ByteWriter& writer) {
  if (study.dataset == nullptr || !study.dataset->finalized()) {
    return FailedPreconditionError("study has no finalized dataset");
  }
  const core::StudyDataset& dataset = *study.dataset;
  writer.PutU32(kMagic);
  writer.PutU32(kVersion);
  writer.PutU64(dataset.total_installations());
  writer.PutU32(static_cast<uint32_t>(dataset.package_count()));
  writer.PutU32(static_cast<uint32_t>(dataset.UsedApis().size()));
  for (const core::ApiId& api : dataset.UsedApis()) {
    writer.PutI64(api.Encode());
  }
  size_t entry_count = 0;
  for (uint32_t pkg = 0; pkg < dataset.package_count(); ++pkg) {
    entry_count += dataset.Footprint(pkg).size();
  }
  writer.PutU32(static_cast<uint32_t>(entry_count));
  for (uint32_t pkg = 0; pkg < dataset.package_count(); ++pkg) {
    writer.PutLengthPrefixedString(dataset.PackageName(pkg));
    writer.PutU64(dataset.InstallCount(pkg));
    const auto& deps = dataset.DirectDependencies(pkg);
    writer.PutU32(static_cast<uint32_t>(deps.size()));
    for (core::PackageId dep : deps) {
      writer.PutU32(dep);
    }
    const std::span<const uint32_t> footprint = dataset.Footprint(pkg);
    writer.PutU32(static_cast<uint32_t>(footprint.size()));
    for (uint32_t dense : footprint) {
      writer.PutU32(dense);
    }
  }
  SerializeInterner(study.path_interner, writer);
  SerializeInterner(study.libc_interner, writer);
  writer.PutU8(study.evidence_kinds_mask);
  writer.PutU32(static_cast<uint32_t>(study.evidence_observed.size()));
  for (const core::ApiId& api : study.evidence_observed) {
    writer.PutI64(api.Encode());
  }
  return Status::Ok();
}

Result<StudyArtifact> DeserializeStudy(ByteReader& reader) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kMagic) {
    return CorruptDataError("bad study artifact magic");
  }
  LAPIS_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version < 1 || version > kVersion) {
    return UnimplementedError("unsupported artifact version " +
                              std::to_string(version));
  }
  LAPIS_ASSIGN_OR_RETURN(uint64_t installations, reader.ReadU64());
  LAPIS_ASSIGN_OR_RETURN(uint32_t package_count,
                         reader.ReadCount(kPackageBytes));

  StudyArtifact artifact;
  CodeBounds bounds;
  artifact.dataset =
      std::make_unique<core::StudyDataset>(package_count, installations);
  core::StudyDataset& dataset = *artifact.dataset;
  // v3 stores the footprints dense: the used-API table and the entry total
  // come first, and the ids go straight into one CSR pair.
  const bool dense = version >= 3;
  std::vector<core::ApiId> used_apis;
  std::vector<uint32_t> footprint_begin;
  std::vector<uint32_t> footprint_ids;
  uint32_t entry_count = 0;
  if (dense) {
    LAPIS_ASSIGN_OR_RETURN(uint32_t used_count,
                           reader.ReadCount(kApiIdBytes));
    used_apis.reserve(used_count);
    for (uint32_t i = 0; i < used_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(core::ApiId api, ReadApiId(reader, bounds));
      used_apis.push_back(api);
    }
    LAPIS_ASSIGN_OR_RETURN(entry_count, reader.ReadCount(kDenseIdBytes));
    footprint_begin.reserve(size_t{package_count} + 1);
    footprint_begin.push_back(0);
    footprint_ids.reserve(entry_count);
  }
  for (uint32_t pkg = 0; pkg < package_count; ++pkg) {
    LAPIS_ASSIGN_OR_RETURN(std::string name,
                           reader.ReadLengthPrefixedString());
    LAPIS_RETURN_IF_ERROR(
        AsCorrupt(dataset.SetPackageName(pkg, std::move(name))));
    LAPIS_ASSIGN_OR_RETURN(uint64_t installs, reader.ReadU64());
    LAPIS_RETURN_IF_ERROR(AsCorrupt(dataset.SetInstallCount(pkg, installs)));
    LAPIS_ASSIGN_OR_RETURN(uint32_t dep_count, reader.ReadCount(kDepBytes));
    std::vector<core::PackageId> deps;
    LAPIS_RETURN_IF_ERROR(reader.ReadU32s(dep_count, deps));
    LAPIS_RETURN_IF_ERROR(
        AsCorrupt(dataset.SetDependencies(pkg, std::move(deps))));
    if (dense) {
      LAPIS_ASSIGN_OR_RETURN(uint32_t size, reader.ReadCount(kDenseIdBytes));
      if (size > entry_count - footprint_ids.size()) {
        return CorruptDataError("footprint sizes exceed the entry count");
      }
      LAPIS_RETURN_IF_ERROR(reader.ReadU32s(size, footprint_ids));
      footprint_begin.push_back(static_cast<uint32_t>(footprint_ids.size()));
      continue;
    }
    LAPIS_ASSIGN_OR_RETURN(uint32_t api_count, reader.ReadCount(kApiIdBytes));
    std::vector<core::ApiId> footprint;
    footprint.reserve(api_count);
    for (uint32_t i = 0; i < api_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(core::ApiId api, ReadApiId(reader, bounds));
      footprint.push_back(api);
    }
    LAPIS_RETURN_IF_ERROR(
        AsCorrupt(dataset.SetFootprint(pkg, std::move(footprint))));
  }
  if (footprint_ids.size() != entry_count) {
    return CorruptDataError("footprint sizes fall short of the entry count");
  }
  LAPIS_ASSIGN_OR_RETURN(artifact.path_interner,
                         DeserializeInterner(reader));
  LAPIS_ASSIGN_OR_RETURN(artifact.libc_interner,
                         DeserializeInterner(reader));
  if (version >= 2) {
    LAPIS_ASSIGN_OR_RETURN(artifact.evidence_kinds_mask, reader.ReadU8());
    LAPIS_ASSIGN_OR_RETURN(uint32_t observed_count,
                           reader.ReadCount(kApiIdBytes));
    for (uint32_t i = 0; i < observed_count; ++i) {
      LAPIS_ASSIGN_OR_RETURN(core::ApiId api, ReadApiId(reader, bounds));
      artifact.evidence_observed.insert(api);
    }
  }
  if (bounds.paths > artifact.path_interner.size() ||
      bounds.libc > artifact.libc_interner.size()) {
    return CorruptDataError("artifact names an API its interners lack");
  }
  LAPIS_RETURN_IF_ERROR(AsCorrupt(
      dense ? dataset.FinalizeDense(std::move(used_apis),
                                    std::move(footprint_begin),
                                    std::move(footprint_ids))
            : dataset.Finalize()));
  return artifact;
}

Status SaveStudy(const StudyResult& study, const std::string& path) {
  ByteWriter writer;
  LAPIS_RETURN_IF_ERROR(SerializeStudy(study, writer));
  // Atomic publication: a reader (e.g. lapis_serve catching SIGHUP mid-
  // export) sees either the previous complete artifact or this one, never
  // a torn prefix.
  return io::AtomicWriteFile(path, writer.bytes().data(), writer.size());
}

Result<StudyArtifact> LoadStudy(const std::string& path) {
  LAPIS_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      io::ReadFileBytes(path, io::Profile::kArtifactIo));
  ByteReader reader(bytes);
  return DeserializeStudy(reader);
}

}  // namespace lapis::corpus
