// Study-artifact persistence: a saved dataset must reload with identical
// metrics; corrupt artifacts are rejected cleanly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/core/completeness.h"
#include "src/core/report.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/util/prng.h"

namespace lapis::corpus {
namespace {

// Audited, so that its artifacts carry evidence.
const StudyResult& Study() {
  static const StudyResult* study = [] {
    auto options = SmallStudyOptions();
    options.audit = true;
    auto result = RunStudy(options);
    EXPECT_TRUE(result.ok());
    return new StudyResult(result.take());
  }();
  return *study;
}

std::vector<uint8_t> SerializedStudy() {
  ByteWriter writer;
  EXPECT_TRUE(SerializeStudy(Study(), writer).ok());
  return writer.Take();
}

TEST(DatasetIo, RoundTripPreservesEverything) {
  auto bytes = SerializedStudy();
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();

  const auto& original = *Study().dataset;
  const auto& restored = *artifact.value().dataset;
  ASSERT_EQ(restored.package_count(), original.package_count());
  EXPECT_EQ(restored.total_installations(), original.total_installations());
  // Footprints compare by the APIs their dense ids name.
  auto apis = [](const core::StudyDataset& dataset, uint32_t pkg) {
    std::vector<core::ApiId> named;
    for (uint32_t dense : dataset.Footprint(pkg)) {
      named.push_back(dataset.UsedApis()[dense]);
    }
    return named;
  };
  for (uint32_t pkg = 0; pkg < original.package_count(); ++pkg) {
    EXPECT_EQ(restored.PackageName(pkg), original.PackageName(pkg));
    EXPECT_EQ(restored.InstallCount(pkg), original.InstallCount(pkg));
    EXPECT_EQ(apis(restored, pkg), apis(original, pkg));
    EXPECT_TRUE(std::ranges::equal(restored.DependencyClosure(pkg),
                                   original.DependencyClosure(pkg)));
  }
  // Interners preserved.
  EXPECT_EQ(artifact.value().libc_interner.size(),
            Study().libc_interner.size());
  EXPECT_EQ(artifact.value().path_interner.Find("/dev/null"),
            Study().path_interner.Find("/dev/null"));
}

TEST(DatasetIo, MetricsIdenticalAfterReload) {
  auto bytes = SerializedStudy();
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader).take();
  const auto& original = *Study().dataset;
  const auto& restored = *artifact.dataset;
  for (int nr : {0, 16, 157, 237, 317}) {
    core::ApiId api = core::SyscallApi(static_cast<uint32_t>(nr));
    EXPECT_DOUBLE_EQ(restored.ApiImportance(api),
                     original.ApiImportance(api));
    EXPECT_DOUBLE_EQ(restored.UnweightedImportance(api),
                     original.UnweightedImportance(api));
  }
  auto ranked = original.RankByImportance(core::ApiKind::kSyscall,
                                          FullSyscallUniverse());
  std::set<core::ApiId> supported(ranked.begin(),
                                  ranked.begin() + 150);
  core::CompletenessOptions options;
  options.evaluated_kinds = {core::ApiKind::kSyscall};
  EXPECT_DOUBLE_EQ(
      core::WeightedCompleteness(restored, supported, options),
      core::WeightedCompleteness(original, supported, options));
}

TEST(DatasetIo, FileRoundTrip) {
  std::string path = testing::TempDir() + "/lapis_study_artifact.bin";
  ASSERT_TRUE(SaveStudy(Study(), path).ok());
  auto loaded = LoadStudy(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dataset->package_count(),
            Study().dataset->package_count());
  std::remove(path.c_str());
}

// Minimal finalized StudyResult (SerializeStudy only reads the dataset,
// the interners, and the evidence fields).
StudyResult TinyStudy(std::vector<core::ApiId> footprint = {
                          core::SyscallApi(0), core::SyscallApi(9)}) {
  StudyResult study;
  study.dataset = std::make_unique<core::StudyDataset>(1, 100);
  EXPECT_TRUE(study.dataset->SetPackageName(0, "p").ok());
  EXPECT_TRUE(study.dataset->SetInstallCount(0, 100).ok());
  EXPECT_TRUE(study.dataset->SetFootprint(0, std::move(footprint)).ok());
  EXPECT_TRUE(study.dataset->Finalize().ok());
  return study;
}

TEST(DatasetIo, EvidenceSurvivesRoundTrip) {
  StudyResult study = TinyStudy();
  study.evidence_kinds_mask =
      static_cast<uint8_t>(1u << static_cast<uint8_t>(core::ApiKind::kSyscall)) |
      static_cast<uint8_t>(1u << static_cast<uint8_t>(core::ApiKind::kIoctlOp));
  study.evidence_observed = {core::SyscallApi(0), core::SyscallApi(9),
                             core::IoctlApi(0x5401)};

  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  auto bytes = writer.Take();
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().evidence_kinds_mask, study.evidence_kinds_mask);
  EXPECT_EQ(artifact.value().evidence_observed, study.evidence_observed);
}

// The layout before v3, kept as the reference for artifacts written then:
// each footprint entry is its 8-byte ApiId, and v2 appends the evidence.
std::vector<uint8_t> LegacyArtifact(const StudyResult& study,
                                    uint32_t version) {
  const core::StudyDataset& dataset = *study.dataset;
  ByteWriter writer;
  writer.PutU32(0x4c505354);  // "LPST"
  writer.PutU32(version);
  writer.PutU64(dataset.total_installations());
  writer.PutU32(static_cast<uint32_t>(dataset.package_count()));
  for (uint32_t pkg = 0; pkg < dataset.package_count(); ++pkg) {
    writer.PutLengthPrefixedString(dataset.PackageName(pkg));
    writer.PutU64(dataset.InstallCount(pkg));
    writer.PutU32(
        static_cast<uint32_t>(dataset.DirectDependencies(pkg).size()));
    for (core::PackageId dep : dataset.DirectDependencies(pkg)) {
      writer.PutU32(dep);
    }
    writer.PutU32(static_cast<uint32_t>(dataset.Footprint(pkg).size()));
    for (uint32_t dense : dataset.Footprint(pkg)) {
      writer.PutI64(dataset.UsedApis()[dense].Encode());
    }
  }
  for (const auto* interner : {&study.path_interner, &study.libc_interner}) {
    writer.PutU32(static_cast<uint32_t>(interner->size()));
    for (uint32_t id = 0; id < interner->size(); ++id) {
      writer.PutLengthPrefixedString(interner->NameOf(id));
    }
  }
  if (version >= 2) {
    writer.PutU8(study.evidence_kinds_mask);
    writer.PutU32(static_cast<uint32_t>(study.evidence_observed.size()));
    for (const core::ApiId& api : study.evidence_observed) {
      writer.PutI64(api.Encode());
    }
  }
  return writer.Take();
}

Result<StudyArtifact> Load(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  return DeserializeStudy(reader);
}

TEST(DatasetIo, V1ArtifactLoadsWithEmptyEvidence) {
  StudyResult study = TinyStudy();
  study.evidence_kinds_mask = 1;
  study.evidence_observed = {core::SyscallApi(0)};
  auto artifact = Load(LegacyArtifact(study, 1));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().evidence_kinds_mask, 0u);
  EXPECT_TRUE(artifact.value().evidence_observed.empty());
  EXPECT_EQ(artifact.value().dataset->package_count(), 1u);
}

// The three TSV exports of a loaded artifact, concatenated.
std::string Exports(const StudyArtifact& artifact) {
  std::ostringstream os;
  EXPECT_TRUE(core::ExportImportanceTsv(
                  *artifact.dataset,
                  {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
                   core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
                   core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
                  artifact.path_interner, artifact.libc_interner, os)
                  .ok());
  EXPECT_TRUE(core::ExportPackagesTsv(*artifact.dataset, os).ok());
  EXPECT_TRUE(core::ExportFootprintsTsv(*artifact.dataset,
                                        artifact.path_interner,
                                        artifact.libc_interner, os)
                  .ok());
  return os.str();
}

// v1 and v2 artifacts go through SetFootprint + Finalize, v3 through the
// dense entry; all three must load to the same dataset.
TEST(DatasetIo, LegacyArtifactsLoadLikeTheCurrentFormat) {
  ASSERT_NE(Study().evidence_kinds_mask, 0u);
  auto current = Load(SerializedStudy());
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  const core::StudyDataset& expected = *current.value().dataset;
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE(version);
    auto legacy = Load(LegacyArtifact(Study(), version));
    ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
    const core::StudyDataset& loaded = *legacy.value().dataset;
    ASSERT_EQ(loaded.UsedApis(), expected.UsedApis());
    for (uint32_t pkg = 0; pkg < expected.package_count(); ++pkg) {
      EXPECT_TRUE(std::ranges::equal(loaded.Footprint(pkg),
                                     expected.Footprint(pkg)));
      EXPECT_TRUE(std::ranges::equal(loaded.DependencyClosure(pkg),
                                     expected.DependencyClosure(pkg)));
    }
    for (uint32_t dense = 0; dense < expected.UsedApis().size(); ++dense) {
      EXPECT_TRUE(std::ranges::equal(loaded.DependentsAt(dense),
                                     expected.DependentsAt(dense)));
    }
    for (int k = 0; k < core::kApiKindCount; ++k) {
      const auto kind = static_cast<core::ApiKind>(k);
      EXPECT_EQ(loaded.KindRange(kind), expected.KindRange(kind));
    }
    EXPECT_EQ(legacy.value().evidence_kinds_mask,
              version == 1 ? 0u : Study().evidence_kinds_mask);
    EXPECT_EQ(legacy.value().evidence_observed,
              version == 1 ? std::set<core::ApiId>{}
                           : current.value().evidence_observed);
    EXPECT_EQ(Exports(legacy.value()), Exports(current.value()));
  }
  EXPECT_EQ(current.value().evidence_observed, Study().evidence_observed);
}

TEST(DatasetIo, RejectsBadMagicAndTruncation) {
  auto bytes = SerializedStudy();
  {
    auto corrupted = bytes;
    corrupted[0] ^= 0xff;
    ByteReader reader(corrupted);
    EXPECT_EQ(DeserializeStudy(reader).status().code(),
              StatusCode::kCorruptData);
  }
  for (size_t cut : {0u, 8u, 64u, 1024u}) {
    if (cut >= bytes.size()) {
      continue;
    }
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<long>(cut));
    ByteReader reader(truncated);
    EXPECT_FALSE(DeserializeStudy(reader).ok()) << cut;
  }
}

TEST(DatasetIo, RejectsUnknownVersion) {
  auto bytes = SerializedStudy();
  bytes[4] = 0x7f;  // version field
  ByteReader reader(bytes);
  EXPECT_EQ(DeserializeStudy(reader).status().code(),
            StatusCode::kUnimplemented);
}

// The status of saving `study` and loading it back.
StatusCode ReloadCode(const StudyResult& study) {
  ByteWriter writer;
  EXPECT_TRUE(SerializeStudy(study, writer).ok());
  auto bytes = writer.Take();
  ByteReader reader(bytes);
  return DeserializeStudy(reader).status().code();
}

TEST(DatasetIo, RejectsPathIdPastTheInterner) {
  for (uint32_t id : {0u, 1u}) {
    StudyResult study =
        TinyStudy({core::ApiId{core::ApiKind::kPseudoFile, id}});
    study.path_interner.Intern("/dev/null");
    EXPECT_EQ(ReloadCode(study),
              id == 0 ? StatusCode::kOk : StatusCode::kCorruptData);
  }
  // Evidence is held to the same bound.
  StudyResult study = TinyStudy();
  study.evidence_kinds_mask =
      1u << static_cast<uint8_t>(core::ApiKind::kLibcFn);
  study.evidence_observed = {core::ApiId{core::ApiKind::kLibcFn, 0}};
  EXPECT_EQ(ReloadCode(study), StatusCode::kCorruptData);
}

TEST(DatasetIo, RejectsUnknownApiKind) {
  StudyResult study =
      TinyStudy({core::ApiId{static_cast<core::ApiKind>(42), 1}});
  EXPECT_EQ(ReloadCode(study), StatusCode::kCorruptData);
}

// The u32 at `offset` of `bytes`.
uint32_t WordAt(const std::vector<uint8_t>& bytes, size_t offset) {
  ByteReader reader(bytes);
  EXPECT_TRUE(reader.Seek(offset).ok());
  return reader.ReadU32().value();
}

constexpr size_t kPackageCountAt = 16;  // magic, version, installations
constexpr size_t kUsedCountAt = 20;     // v3: the used-API table's count

// v3: the offset of the footprint-entry total, after the used-API table.
size_t EntryCountAt(const std::vector<uint8_t>& bytes) {
  return kUsedCountAt + 4 + 8 * WordAt(bytes, kUsedCountAt);
}

// Offsets of package `pkg`'s install count, dependency count and footprint
// size in an artifact of `version`.
struct PackageOffsets {
  size_t installs_at;
  size_t deps_at;
  size_t footprint_at;
};
PackageOffsets PackageAt(const std::vector<uint8_t>& bytes, uint32_t pkg,
                         uint32_t version = kStudyArtifactVersion) {
  const size_t entry_bytes = version >= 3 ? 4 : 8;
  size_t at = version >= 3 ? EntryCountAt(bytes) + 4 : kPackageCountAt + 4;
  for (uint32_t p = 0;; ++p) {
    PackageOffsets offsets;
    offsets.installs_at = at + 4 + WordAt(bytes, at);
    offsets.deps_at = offsets.installs_at + 8;
    offsets.footprint_at =
        offsets.deps_at + 4 + 4 * WordAt(bytes, offsets.deps_at);
    if (p == pkg) {
      return offsets;
    }
    at = offsets.footprint_at + 4 +
         entry_bytes * WordAt(bytes, offsets.footprint_at);
  }
}

StatusCode LoadCode(const std::vector<uint8_t>& bytes) {
  return Load(bytes).status().code();
}

// A count the bytes left cannot hold is corrupt, and is rejected before
// anything is sized by it: the package count (before the dataset is
// built), the used-API count, the footprint-entry total, and the first
// package's dependency count and footprint size.
TEST(DatasetIo, RejectsOversizedCounts) {
  const auto bytes = SerializedStudy();
  const auto& dataset = *Study().dataset;
  ASSERT_EQ(WordAt(bytes, kPackageCountAt), dataset.package_count());
  ASSERT_EQ(WordAt(bytes, kUsedCountAt), dataset.UsedApis().size());
  const PackageOffsets first = PackageAt(bytes, 0);
  ASSERT_EQ(WordAt(bytes, first.deps_at), dataset.DirectDependencies(0).size());
  ASSERT_EQ(WordAt(bytes, first.footprint_at), dataset.Footprint(0).size());
  for (size_t at : {kPackageCountAt, kUsedCountAt, EntryCountAt(bytes),
                    first.deps_at, first.footprint_at}) {
    auto mutated = bytes;
    StoreLittleEndian<uint32_t>(mutated.data() + at, 0xFFFFFFF0u);
    EXPECT_EQ(LoadCode(mutated), StatusCode::kCorruptData)
        << "count at byte " << at;
  }
}

// A dependency on a package the artifact lacks, or more installations of
// a package than the survey holds, is corrupt data in every version.
TEST(DatasetIo, RejectsOutOfRangeDependencyAndInstallCount) {
  StudyResult study;
  study.dataset = std::make_unique<core::StudyDataset>(2, 100);
  ASSERT_TRUE(study.dataset->SetPackageName(0, "a").ok());
  ASSERT_TRUE(study.dataset->SetPackageName(1, "b").ok());
  ASSERT_TRUE(study.dataset->SetInstallCount(0, 100).ok());
  ASSERT_TRUE(study.dataset->SetDependencies(0, {1}).ok());
  ASSERT_TRUE(study.dataset->SetFootprint(0, {core::SyscallApi(0)}).ok());
  ASSERT_TRUE(study.dataset->Finalize().ok());
  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  for (uint32_t version : {1u, 2u, kStudyArtifactVersion}) {
    const auto bytes = version == kStudyArtifactVersion
                           ? writer.bytes()
                           : LegacyArtifact(study, version);
    ASSERT_EQ(LoadCode(bytes), StatusCode::kOk) << version;
    const PackageOffsets first = PackageAt(bytes, 0, version);
    auto mutated = bytes;
    StoreLittleEndian<uint32_t>(mutated.data() + first.deps_at + 4, 2);
    EXPECT_EQ(LoadCode(mutated), StatusCode::kCorruptData) << version;
    mutated = bytes;
    StoreLittleEndian<uint64_t>(mutated.data() + first.installs_at, 101);
    EXPECT_EQ(LoadCode(mutated), StatusCode::kCorruptData) << version;
  }
}

// v3 footprints are dense ids into the used-API table; each way they can
// disagree with it, or with the entry total, is corrupt data.
TEST(DatasetIo, RejectsMalformedDenseFootprints) {
  // Used APIs [read, write, open]; a's ids [0, 1], b's ids [1, 2].
  StudyResult study;
  study.dataset = std::make_unique<core::StudyDataset>(2, 100);
  ASSERT_TRUE(study.dataset->SetPackageName(0, "a").ok());
  ASSERT_TRUE(study.dataset->SetPackageName(1, "b").ok());
  ASSERT_TRUE(study.dataset
                  ->SetFootprint(0, {core::SyscallApi(0), core::SyscallApi(1)})
                  .ok());
  ASSERT_TRUE(study.dataset
                  ->SetFootprint(1, {core::SyscallApi(1), core::SyscallApi(2)})
                  .ok());
  ASSERT_TRUE(study.dataset->Finalize().ok());
  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  const std::vector<uint8_t> bytes = writer.Take();
  ASSERT_EQ(LoadCode(bytes), StatusCode::kOk);
  const size_t a_ids = PackageAt(bytes, 0).footprint_at + 4;
  const size_t b_ids = PackageAt(bytes, 1).footprint_at + 4;
  ASSERT_EQ(WordAt(bytes, a_ids + 4), 1u);
  ASSERT_EQ(WordAt(bytes, b_ids + 4), 2u);
  auto with = [&](std::initializer_list<std::pair<size_t, uint32_t>> words) {
    auto mutated = bytes;
    for (auto [at, word] : words) {
      StoreLittleEndian(mutated.data() + at, word);
    }
    return LoadCode(mutated);
  };
  const size_t entries_at = EntryCountAt(bytes);
  ASSERT_EQ(WordAt(bytes, entries_at), 4u);
  // An id past the used-API table.
  EXPECT_EQ(with({{b_ids + 4, 3}}), StatusCode::kCorruptData);
  // Ids out of order, and repeated, in one package.
  EXPECT_EQ(with({{b_ids, 2}, {b_ids + 4, 1}}), StatusCode::kCorruptData);
  EXPECT_EQ(with({{b_ids, 1}, {b_ids + 4, 1}}), StatusCode::kCorruptData);
  // A used table out of order (write before read), and with a repeat.
  const size_t used_at = kUsedCountAt + 4;
  EXPECT_EQ(with({{used_at, 1}, {used_at + 8, 0}}), StatusCode::kCorruptData);
  EXPECT_EQ(with({{used_at + 8, 0}}), StatusCode::kCorruptData);
  // A used API no package names: a's ids [1, 2] leave read unreferenced.
  EXPECT_EQ(with({{a_ids, 1}, {a_ids + 4, 2}}), StatusCode::kCorruptData);
  // Package footprints that sum to more, or less, than the entry total.
  EXPECT_EQ(with({{entries_at, 3}}), StatusCode::kCorruptData);
  EXPECT_EQ(with({{entries_at, 5}}), StatusCode::kCorruptData);
}

// Every 4-byte-aligned word of a tiny artifact, set to a huge count and
// then to a seeded random word: each decode returns a status or a value.
TEST(DatasetIo, MutatedWordsNeverAbortTheDecoder) {
  StudyResult study =
      TinyStudy({core::SyscallApi(0), core::ApiId{core::ApiKind::kLibcFn, 0},
                 core::ApiId{core::ApiKind::kPseudoFile, 0}});
  study.path_interner.Intern("/dev/null");
  study.libc_interner.Intern("malloc");
  study.evidence_kinds_mask = 1;
  study.evidence_observed = {core::SyscallApi(0)};
  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  const std::vector<uint8_t> bytes = writer.Take();
  Prng prng(20160418);
  size_t rejected = 0;
  for (size_t at = 0; at + 4 <= bytes.size(); at += 4) {
    for (uint32_t word : {0xFFFFFFF0u, static_cast<uint32_t>(prng.Next())}) {
      auto mutated = bytes;
      StoreLittleEndian(mutated.data() + at, word);
      ByteReader reader(mutated);
      rejected += DeserializeStudy(reader).ok() ? 0 : 1;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(DatasetIo, LoadMissingFileFails) {
  // io::ReadFileBytes distinguishes a missing artifact (kNotFound) from a
  // present-but-unreadable one (kIoError).
  EXPECT_EQ(LoadStudy("/nonexistent/path/study.bin").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace lapis::corpus
