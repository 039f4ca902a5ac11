// Study-artifact persistence: a saved dataset must reload with identical
// metrics; corrupt artifacts are rejected cleanly.

#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/completeness.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/corpus/system_profiles.h"
#include "src/util/prng.h"

namespace lapis::corpus {
namespace {

const StudyResult& Study() {
  static const StudyResult* study = [] {
    auto options = SmallStudyOptions();
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
    EXPECT_EQ(restored.DependencyClosure(pkg),
              original.DependencyClosure(pkg));
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

TEST(DatasetIo, V1ArtifactLoadsWithEmptyEvidence) {
  // A v1 artifact is a v2 one minus the trailing evidence section (1-byte
  // mask + u32 count) with the version field rewritten; loading it must
  // succeed with no evidence rather than be rejected.
  StudyResult study = TinyStudy();
  ByteWriter writer;
  ASSERT_TRUE(SerializeStudy(study, writer).ok());
  auto bytes = writer.Take();
  ASSERT_GE(bytes.size(), 5u + 4u);
  bytes.resize(bytes.size() - 5);  // empty evidence: u8 mask + u32 count
  bytes[4] = 1;                    // version field follows the magic
  ByteReader reader(bytes);
  auto artifact = DeserializeStudy(reader);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact.value().evidence_kinds_mask, 0u);
  EXPECT_TRUE(artifact.value().evidence_observed.empty());
  EXPECT_EQ(artifact.value().dataset->package_count(), 1u);
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

// A count the bytes left cannot hold is corrupt, and is rejected before
// anything is sized by it: the package count (before the dataset is
// built), and the first package's dependency count and footprint size.
TEST(DatasetIo, RejectsOversizedCounts) {
  const auto bytes = SerializedStudy();
  const auto& dataset = *Study().dataset;
  constexpr size_t kPackageCountAt = 16;  // magic, version, installations
  ASSERT_EQ(WordAt(bytes, kPackageCountAt), dataset.package_count());
  const size_t deps_at = kPackageCountAt + 4 + 4 +
                         WordAt(bytes, kPackageCountAt + 4) + 8;
  ASSERT_EQ(WordAt(bytes, deps_at), dataset.DirectDependencies(0).size());
  const size_t footprint_at = deps_at + 4 + 4 * WordAt(bytes, deps_at);
  ASSERT_EQ(WordAt(bytes, footprint_at), dataset.Footprint(0).size());
  for (size_t at : {kPackageCountAt, deps_at, footprint_at}) {
    auto mutated = bytes;
    StoreLittleEndian<uint32_t>(mutated.data() + at, 0xFFFFFFF0u);
    ByteReader reader(mutated);
    EXPECT_EQ(DeserializeStudy(reader).status().code(),
              StatusCode::kCorruptData)
        << "count at byte " << at;
  }
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
