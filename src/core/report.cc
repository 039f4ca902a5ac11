#include "src/core/report.h"

#include <algorithm>
#include <initializer_list>
#include <string_view>

#include "src/util/strings.h"

namespace lapis::core {

namespace {

// Collects TSV lines and hands them to the stream in large writes.
class TsvWriter {
 public:
  explicit TsvWriter(std::ostream& os) : os_(os) {}

  // Appends one line of tab-separated fields.
  void Line(std::initializer_list<std::string_view> fields) {
    const char* separator = "";
    for (std::string_view field : fields) {
      buffer_.append(separator).append(field);
      separator = "\t";
    }
    buffer_.push_back('\n');
    if (buffer_.size() >= kFlushBytes) {
      Flush();
    }
  }

  Status Finish() {
    Flush();
    if (!os_.good()) {
      return IoError("write failed");
    }
    return Status::Ok();
  }

 private:
  // 1 MiB: with 64 KiB writes, an in-memory stream's first large buffer
  // landed in heap space Finalize frees, and perfbench's study_cold peaked
  // near 92 MiB instead of 79 MiB (glibc malloc).
  static constexpr size_t kFlushBytes = 1 << 20;

  void Flush() {
    os_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }

  std::ostream& os_;
  std::string buffer_;
};

}  // namespace

std::string ApiName(const ApiId& api, const StringInterner& path_interner,
                    const StringInterner& libc_interner) {
  switch (api.kind) {
    case ApiKind::kSyscall:
      return "syscall:" + std::to_string(api.code);
    case ApiKind::kIoctlOp:
      return "ioctl:" + std::to_string(api.code);
    case ApiKind::kFcntlOp:
      return "fcntl:" + std::to_string(api.code);
    case ApiKind::kPrctlOp:
      return "prctl:" + std::to_string(api.code);
    case ApiKind::kPseudoFile:
      if (api.code < path_interner.size()) {
        return "file:" + path_interner.NameOf(api.code);
      }
      return "file:#" + std::to_string(api.code);
    case ApiKind::kLibcFn:
      if (api.code < libc_interner.size()) {
        return "libc:" + libc_interner.NameOf(api.code);
      }
      return "libc:#" + std::to_string(api.code);
  }
  return "?";
}

Status ExportImportanceTsv(const StudyDataset& dataset,
                           const std::vector<ApiKind>& kinds,
                           const StringInterner& path_interner,
                           const StringInterner& libc_interner,
                           std::ostream& os) {
  if (!dataset.finalized()) {
    return FailedPreconditionError("dataset not finalized");
  }
  TsvWriter out(os);
  out.Line({"kind", "api", "importance", "unweighted_importance",
            "dependents"});
  for (ApiKind kind : kinds) {
    for (const ApiId& api : dataset.RankByImportance(kind)) {
      out.Line({ApiKindName(kind), ApiName(api, path_interner, libc_interner),
                FormatDouble(dataset.ApiImportance(api), 6),
                FormatDouble(dataset.UnweightedImportance(api), 6),
                std::to_string(dataset.Dependents(api).size())});
    }
  }
  return out.Finish();
}

Status ExportPackagesTsv(const StudyDataset& dataset, std::ostream& os) {
  if (!dataset.finalized()) {
    return FailedPreconditionError("dataset not finalized");
  }
  TsvWriter out(os);
  out.Line({"package", "install_probability", "footprint_apis", "syscalls"});
  const uint32_t syscalls_end = dataset.KindRange(ApiKind::kSyscall).second;
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    // Syscalls sort first, so they are the footprint's prefix.
    const std::span<const uint32_t> footprint = dataset.Footprint(id);
    const auto syscalls =
        std::lower_bound(footprint.begin(), footprint.end(), syscalls_end) -
        footprint.begin();
    out.Line({dataset.PackageName(id),
              FormatDouble(dataset.InstallProbability(id), 6),
              std::to_string(footprint.size()), std::to_string(syscalls)});
  }
  return out.Finish();
}

Status ExportFootprintsTsv(const StudyDataset& dataset,
                           const StringInterner& path_interner,
                           const StringInterner& libc_interner,
                           std::ostream& os) {
  if (!dataset.finalized()) {
    return FailedPreconditionError("dataset not finalized");
  }
  // Each distinct API's name is rendered once; footprints index the names
  // by dense id.
  std::vector<std::string> names;
  names.reserve(dataset.UsedApis().size());
  for (const ApiId& api : dataset.UsedApis()) {
    names.push_back(ApiName(api, path_interner, libc_interner));
  }
  TsvWriter out(os);
  out.Line({"package", "api"});
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    const std::string& package = dataset.PackageName(id);
    for (uint32_t dense : dataset.Footprint(id)) {
      out.Line({package, names[dense]});
    }
  }
  return out.Finish();
}

}  // namespace lapis::core
