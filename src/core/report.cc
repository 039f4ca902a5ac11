#include "src/core/report.h"

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
  static constexpr size_t kFlushBytes = 1 << 16;

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
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    size_t syscalls = 0;
    for (const ApiId& api : dataset.Footprint(id)) {
      syscalls += api.kind == ApiKind::kSyscall ? 1 : 0;
    }
    out.Line({dataset.PackageName(id),
              FormatDouble(dataset.InstallProbability(id), 6),
              std::to_string(dataset.Footprint(id).size()),
              std::to_string(syscalls)});
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
  // Each distinct API's name is rendered once. Walking the dependents
  // index in API order lists every package's APIs in footprint order, so
  // rows find their names without a search.
  const std::vector<ApiId>& apis = dataset.UsedApis();
  std::vector<std::string> names;
  names.reserve(apis.size());
  std::vector<size_t> cursor(dataset.package_count());  // next free row
  size_t rows = 0;
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    cursor[id] = rows;
    rows += dataset.Footprint(id).size();
  }
  std::vector<uint32_t> name_of_row(rows);
  for (uint32_t i = 0; i < apis.size(); ++i) {
    names.push_back(ApiName(apis[i], path_interner, libc_interner));
    for (PackageId id : dataset.Dependents(apis[i])) {
      name_of_row[cursor[id]++] = i;
    }
  }
  // Each cursor now ends its package's rows.
  TsvWriter out(os);
  out.Line({"package", "api"});
  size_t next_row = 0;
  for (PackageId id = 0; id < dataset.package_count(); ++id) {
    const std::string& package = dataset.PackageName(id);
    for (; next_row < cursor[id]; ++next_row) {
      out.Line({package, names[name_of_row[next_row]]});
    }
  }
  return out.Finish();
}

}  // namespace lapis::core
