// The content-addressed incremental cache (src/cache): codec roundtrips,
// key invalidation (methodology flip, schema bump, byte mutation),
// persistence across reopen, corruption tolerance, lock-free interner
// reads, and the study-level warm-run guarantee (>=95% of analyses skipped with
// byte-identical exports).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/cache/analysis_codec.h"
#include "src/cache/content_hash.h"
#include "src/cache/footprint_cache.h"
#include "src/cache/survey_codec.h"
#include "src/core/report.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/corpus/study_runner.h"
#include "src/elf/elf_reader.h"
#include "src/package/popcon.h"
#include "src/util/prng.h"
#include "src/util/string_interner.h"

namespace lapis {
namespace {

using cache::AnalysisCodec;
using cache::CacheKey;
using cache::EntryKind;
using cache::FootprintCache;

// --- Fixtures: a small synthesized distribution ---------------------------

const corpus::DistroSpec& Spec() {
  static const corpus::DistroSpec* spec = [] {
    corpus::DistroOptions options;
    options.app_package_count = 300;
    options.script_package_count = 30;
    options.data_package_count = 6;
    return new corpus::DistroSpec(corpus::BuildDistroSpec(options).take());
  }();
  return *spec;
}

const std::vector<corpus::SynthesizedBinary>& CoreLibs() {
  static const std::vector<corpus::SynthesizedBinary>* libs = [] {
    corpus::DistroSynthesizer synthesizer(Spec());
    return new std::vector<corpus::SynthesizedBinary>(
        synthesizer.CoreLibraries().take());
  }();
  return *libs;
}

analysis::BinaryAnalysis AnalyzeBytes(const std::vector<uint8_t>& bytes) {
  auto image = elf::ElfReader::Parse(bytes).take();
  return analysis::BinaryAnalyzer::Analyze(image).take();
}

void ExpectAnalysesEqual(const analysis::BinaryAnalysis& a,
                         const analysis::BinaryAnalysis& b) {
  EXPECT_EQ(a.soname(), b.soname());
  EXPECT_EQ(a.needed(), b.needed());
  EXPECT_EQ(a.exports(), b.exports());
  EXPECT_EQ(a.is_executable(), b.is_executable());
  EXPECT_EQ(a.entry(), b.entry());
  EXPECT_EQ(a.total_syscall_sites, b.total_syscall_sites);
  EXPECT_EQ(a.unknown_syscall_sites, b.unknown_syscall_sites);
  ASSERT_EQ(a.imports().size(), b.imports().size());
  for (size_t i = 0; i < a.imports().size(); ++i) {
    EXPECT_EQ(a.imports()[i], b.imports()[i]);
  }
  EXPECT_TRUE(a.imports() == b.imports());
  ASSERT_EQ(a.functions().size(), b.functions().size());
  for (size_t i = 0; i < a.functions().size(); ++i) {
    const auto& fa = a.functions()[i];
    const auto& fb = b.functions()[i];
    EXPECT_EQ(fa.name, fb.name);
    EXPECT_EQ(fa.vaddr, fb.vaddr);
    EXPECT_EQ(fa.size, fb.size);
    EXPECT_TRUE(fa.local == fb.local) << fa.name;
    EXPECT_EQ(fa.plt_calls, fb.plt_calls);
    EXPECT_EQ(fa.local_callees, fb.local_callees);
    EXPECT_EQ(fa.basic_block_count, fb.basic_block_count);
    EXPECT_EQ(fa.decode_complete, fb.decode_complete);
  }
}

// --- Content hashing & fingerprints ---------------------------------------

TEST(ContentHash, SingleByteMutationChangesHash) {
  std::vector<uint8_t> bytes = CoreLibs().back().bytes;
  uint64_t original = cache::HashBytes(bytes);
  for (size_t offset : {size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> mutated = bytes;
    mutated[offset] ^= 0x01;
    EXPECT_NE(cache::HashBytes(mutated), original)
        << "mutation at offset " << offset << " did not change the hash";
  }
}

TEST(ContentHash, UseDataflowFlipChangesFingerprint) {
  analysis::AnalyzerOptions dataflow;
  analysis::AnalyzerOptions linear;
  linear.use_dataflow = false;
  EXPECT_NE(cache::ConfigFingerprint(dataflow, EntryKind::kAnalysis),
            cache::ConfigFingerprint(linear, EntryKind::kAnalysis));
}

TEST(ContentHash, UseIpaFlipChangesFingerprint) {
  analysis::AnalyzerOptions dataflow;
  analysis::AnalyzerOptions ipa;
  ipa.use_ipa = true;
  EXPECT_NE(cache::ConfigFingerprint(dataflow, EntryKind::kAnalysis),
            cache::ConfigFingerprint(ipa, EntryKind::kAnalysis));
}

TEST(ContentHash, IpaMaxDepthChangesFingerprint) {
  analysis::AnalyzerOptions deep;
  deep.use_ipa = true;
  analysis::AnalyzerOptions flat = deep;
  flat.ipa_max_depth = 1;
  EXPECT_NE(cache::ConfigFingerprint(deep, EntryKind::kAnalysis),
            cache::ConfigFingerprint(flat, EntryKind::kAnalysis));
}

TEST(ContentHash, SchemaVersionBumpChangesFingerprint) {
  analysis::AnalyzerOptions options;
  EXPECT_NE(cache::ConfigFingerprint(options, EntryKind::kAnalysis,
                                     cache::kCacheSchemaVersion),
            cache::ConfigFingerprint(options, EntryKind::kAnalysis,
                                     cache::kCacheSchemaVersion + 1));
  EXPECT_NE(
      cache::BaseFingerprint(EntryKind::kSurvey, cache::kCacheSchemaVersion),
      cache::BaseFingerprint(EntryKind::kSurvey,
                             cache::kCacheSchemaVersion + 1));
}

TEST(ContentHash, EntryKindsNeverCollide) {
  analysis::AnalyzerOptions options;
  EXPECT_NE(cache::ConfigFingerprint(options, EntryKind::kAnalysis),
            cache::BaseFingerprint(EntryKind::kSurvey));
}

// The fingerprints a cache written at schema 2 holds its live entries
// under. A change here leaves every cached analysis and survey unreachable,
// so it must come with a kCacheSchemaVersion bump.
TEST(ContentHash, LiveFingerprintsMatchParent) {
  analysis::AnalyzerOptions dataflow;
  analysis::AnalyzerOptions linear;
  linear.use_dataflow = false;
  analysis::AnalyzerOptions ipa;
  ipa.use_ipa = true;
  EXPECT_EQ(cache::ConfigFingerprint(dataflow, EntryKind::kAnalysis),
            0xbad7e79e15993e83u);
  EXPECT_EQ(cache::ConfigFingerprint(linear, EntryKind::kAnalysis),
            0x94303e62582f5422u);
  EXPECT_EQ(cache::ConfigFingerprint(ipa, EntryKind::kAnalysis),
            0x6bd9d1d602842642u);
  EXPECT_EQ(cache::BaseFingerprint(EntryKind::kSurvey), 0xaa312f255b6c6c63u);
}

// Values 2 and 3 (a library's export reach, an executable's resolution)
// are retired, but caches written before their retirement still hold
// records under them. Those fingerprints must stay clear of every live one
// at each analyzer tier, so a dead record is never read as a live entry.
TEST(ContentHash, RetiredEntryKindsNeverAliasLiveOnes) {
  EXPECT_EQ(static_cast<int>(EntryKind::kAnalysis), 1);
  EXPECT_EQ(static_cast<int>(EntryKind::kSurvey), 4);
  analysis::AnalyzerOptions dataflow;
  analysis::AnalyzerOptions linear;
  linear.use_dataflow = false;
  analysis::AnalyzerOptions ipa;
  ipa.use_ipa = true;
  const std::vector<analysis::AnalyzerOptions> tiers = {dataflow, linear, ipa};
  std::vector<uint64_t> live = {cache::BaseFingerprint(EntryKind::kSurvey)};
  for (const auto& options : tiers) {
    live.push_back(cache::ConfigFingerprint(options, EntryKind::kAnalysis));
  }
  for (const auto& options : tiers) {
    for (int retired : {2, 3}) {
      const uint64_t dead =
          cache::ConfigFingerprint(options, static_cast<EntryKind>(retired));
      for (uint64_t fingerprint : live) {
        EXPECT_NE(dead, fingerprint) << "retired kind " << retired;
      }
    }
  }
}

// --- Codec roundtrips ------------------------------------------------------

TEST(AnalysisCodec, BinaryAnalysisRoundtrip) {
  for (const auto& lib : CoreLibs()) {
    analysis::BinaryAnalysis original = AnalyzeBytes(lib.bytes);
    ByteWriter writer;
    AnalysisCodec::Encode(original, writer);
    ByteReader reader(writer.bytes());
    auto decoded = AnalysisCodec::Decode(reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectAnalysesEqual(original, decoded.value());
    // The decoder must rebuild the lookup indexes, not just the rows.
    for (const auto& fn : original.functions()) {
      ASSERT_NE(decoded.value().FunctionAt(fn.vaddr), nullptr);
      EXPECT_EQ(decoded.value().FunctionAt(fn.vaddr)->name, fn.name);
      EXPECT_NE(decoded.value().FunctionNamed(fn.name), nullptr);
    }
    // Reachability over the decoded call graph matches the original.
    const analysis::LibraryResolver resolver;
    auto a = resolver.ResolveExecutable(original);
    auto b = resolver.ResolveExecutable(decoded.value());
    EXPECT_TRUE(a.footprint == b.footprint);
    EXPECT_EQ(a.unresolved_imports, b.unresolved_imports);
    EXPECT_EQ(a.reachable_function_count, b.reachable_function_count);
  }
}

// The codec's bytes for a fixed corpus sample, pinned by FNV-1a digest:
// the core libraries and every 15th ELF package's binaries (dataflow and
// ipa tiers). The digest was taken from the set-based analyses the flat
// ones replaced, so cache entries written by either decode as the same
// analyses; a change here orphans every cached entry and must come with a
// kCacheSchemaVersion bump. Each analysis also survives a decode field by
// field.
TEST(AnalysisCodec, BytesMatchPinnedDigests) {
  analysis::AnalyzerOptions ipa_options;
  ipa_options.use_ipa = true;
  ByteWriter analyses;
  auto encode = [&](const analysis::BinaryAnalysis& analyzed) {
    ByteWriter alone;
    AnalysisCodec::Encode(analyzed, alone);
    AnalysisCodec::Encode(analyzed, analyses);
    ByteReader reader(alone.bytes());
    auto decoded = AnalysisCodec::Decode(reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectAnalysesEqual(analyzed, decoded.value());
  };
  size_t executables = 0;
  auto analyze = [&](const corpus::SynthesizedBinary& binary) {
    auto image = elf::ElfReader::Parse(binary.bytes).take();
    encode(analysis::BinaryAnalyzer::Analyze(image).take());
    encode(analysis::BinaryAnalyzer::Analyze(image, ipa_options).take());
    executables += binary.is_library ? 0 : 1;
  };
  for (const auto& lib : CoreLibs()) {
    analyze(lib);
  }
  corpus::DistroSynthesizer synthesizer(Spec());
  for (size_t pkg = 0; pkg < Spec().packages.size(); pkg += 15) {
    const auto& plan = Spec().packages[pkg];
    if (plan.data_only || !plan.interpreter_package.empty()) {
      continue;
    }
    for (const auto& binary : synthesizer.PackageBinaries(pkg).take()) {
      analyze(binary);
    }
  }
  EXPECT_EQ(executables, 36u);
  EXPECT_EQ(analyses.bytes().size(), 356170u);
  EXPECT_EQ(cache::HashBytes(analyses.bytes()), 0x43afb957c6b1e561u);
}

// Every 4-byte-aligned word of `payload`, set to a huge count and then to
// a seeded random word, handed to `decode`: each decode must return a
// status or a value. Returns how many decodes were rejected.
template <typename Decode>
size_t DecodeMutatedWords(const std::vector<uint8_t>& payload,
                          Decode decode) {
  Prng prng(20160418);
  size_t rejected = 0;
  for (size_t at = 0; at + 4 <= payload.size(); at += 4) {
    for (uint32_t word : {0xFFFFFFF0u, static_cast<uint32_t>(prng.Next())}) {
      auto mutated = payload;
      StoreLittleEndian(mutated.data() + at, word);
      ByteReader reader(mutated);
      rejected += decode(reader).ok() ? 0 : 1;
    }
  }
  return rejected;
}

TEST(AnalysisCodec, MutatedWordsNeverAbortTheDecoder) {
  // The smallest analysis among the first ELF packages' binaries.
  corpus::DistroSynthesizer synthesizer(Spec());
  std::vector<uint8_t> payload;
  for (size_t pkg = 0; pkg < 10; ++pkg) {
    const auto& plan = Spec().packages[pkg];
    if (plan.data_only || !plan.interpreter_package.empty()) {
      continue;
    }
    for (const auto& binary : synthesizer.PackageBinaries(pkg).take()) {
      ByteWriter writer;
      AnalysisCodec::Encode(AnalyzeBytes(binary.bytes), writer);
      if (payload.empty() || writer.size() < payload.size()) {
        payload = writer.Take();
      }
    }
  }
  ASSERT_FALSE(payload.empty());
  EXPECT_GT(DecodeMutatedWords(payload, AnalysisCodec::Decode), 0u);
}

// The cache holds no resolutions: a warm run registers libraries and
// resolves executables from decoded analyses. The resolver must not tell
// decoded analyses from computed ones.
TEST(AnalysisCodec, RestoredAnalysesResolveLikeComputed) {
  auto restore = [](const analysis::BinaryAnalysis& analyzed) {
    ByteWriter writer;
    AnalysisCodec::Encode(analyzed, writer);
    ByteReader reader(writer.bytes());
    auto decoded = AnalysisCodec::Decode(reader);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return std::make_shared<analysis::BinaryAnalysis>(decoded.take());
  };
  analysis::LibraryResolver computed;
  analysis::LibraryResolver restored;
  std::vector<analysis::BinaryAnalysis> executables;
  auto add = [&](const corpus::SynthesizedBinary& binary) {
    analysis::BinaryAnalysis analyzed = AnalyzeBytes(binary.bytes);
    if (!binary.is_library) {
      executables.push_back(std::move(analyzed));
      return;
    }
    ASSERT_TRUE(restored.AddLibrary(restore(analyzed)).ok());
    ASSERT_TRUE(computed
                    .AddLibrary(std::make_shared<analysis::BinaryAnalysis>(
                        std::move(analyzed)))
                    .ok());
  };
  for (const auto& lib : CoreLibs()) {
    add(lib);
  }
  corpus::DistroSynthesizer synthesizer(Spec());
  for (size_t pkg = 0; pkg < Spec().packages.size(); pkg += 15) {
    const auto& plan = Spec().packages[pkg];
    if (plan.data_only || !plan.interpreter_package.empty()) {
      continue;
    }
    for (const auto& binary : synthesizer.PackageBinaries(pkg).take()) {
      add(binary);
    }
  }
  ASSERT_EQ(computed.library_count(), restored.library_count());
  ASSERT_EQ(executables.size(), 36u);
  for (size_t i = 0; i < executables.size(); ++i) {
    const auto want = computed.ResolveExecutable(executables[i]);
    const auto got = restored.ResolveExecutable(*restore(executables[i]));
    EXPECT_FALSE(want.footprint.Empty()) << "executable " << i;
    EXPECT_TRUE(got.footprint == want.footprint) << "executable " << i;
    EXPECT_EQ(got.used_exports, want.used_exports) << "executable " << i;
    EXPECT_EQ(got.unresolved_imports, want.unresolved_imports)
        << "executable " << i;
    EXPECT_EQ(got.reachable_function_count, want.reachable_function_count)
        << "executable " << i;
  }
}

TEST(SurveyCodec, SurveyRoundtripWithSamples) {
  corpus::DistroSynthesizer synthesizer(Spec());
  auto repo = synthesizer.BuildRepository().take();
  std::vector<double> marginals;
  for (const auto& plan : Spec().packages) {
    marginals.push_back(plan.target_marginal);
  }
  package::PopconOptions options;
  options.installation_count = 500;
  options.retain_samples = 50;
  auto original = package::PopconSimulator::Run(repo, marginals, options);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_FALSE(original.value().samples.empty());

  ByteWriter writer;
  cache::SurveyCodec::Encode(original.value(), writer);
  ByteReader reader(writer.bytes());
  auto decoded = cache::SurveyCodec::Decode(reader, repo.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().total_reporting, original.value().total_reporting);
  EXPECT_EQ(decoded.value().install_counts, original.value().install_counts);
  ASSERT_EQ(decoded.value().samples.size(), original.value().samples.size());
  for (size_t i = 0; i < original.value().samples.size(); ++i) {
    EXPECT_EQ(decoded.value().samples[i].words(),
              original.value().samples[i].words());
  }
}

TEST(SurveyCodec, MutatedWordsNeverAbortTheDecoder) {
  package::PopconSurvey survey;
  survey.total_reporting = 40;
  survey.install_counts = {40, 12, 0, 7, 3};
  survey.samples.push_back(package::InstallationSet::FromWords({0b11011}));
  survey.samples.push_back(package::InstallationSet::FromWords({0b00001}));
  ByteWriter writer;
  cache::SurveyCodec::Encode(survey, writer);
  EXPECT_GT(DecodeMutatedWords(writer.bytes(),
                               [](ByteReader& reader) {
                                 return cache::SurveyCodec::Decode(reader, 5);
                               }),
            0u);
}

// A checksummed survey that does not fit the repository is corrupt data:
// too few or too many counts, a count above total_reporting, or a sample
// whose word count is not ceil(package_count / 64).
TEST(SurveyCodec, RejectsSurveysThatDoNotFitTheRepository) {
  package::PopconSurvey survey;
  survey.total_reporting = 40;
  survey.install_counts.assign(65, 7);
  survey.samples.push_back(package::InstallationSet(65));
  auto decode = [](const package::PopconSurvey& candidate,
                   size_t package_count) {
    ByteWriter writer;
    cache::SurveyCodec::Encode(candidate, writer);
    ByteReader reader(writer.bytes());
    return cache::SurveyCodec::Decode(reader, package_count).status().code();
  };
  EXPECT_EQ(decode(survey, 65), StatusCode::kOk);
  EXPECT_EQ(decode(survey, 64), StatusCode::kCorruptData);
  EXPECT_EQ(decode(survey, 66), StatusCode::kCorruptData);

  package::PopconSurvey overcounted = survey;
  overcounted.install_counts[64] = 41;
  EXPECT_EQ(decode(overcounted, 65), StatusCode::kCorruptData);

  package::PopconSurvey short_sample = survey;
  short_sample.samples.push_back(package::InstallationSet(64));
  EXPECT_EQ(decode(short_sample, 65), StatusCode::kCorruptData);
}

TEST(SurveyCodec, InputHashTracksEveryInput) {
  corpus::DistroSynthesizer synthesizer(Spec());
  auto repo = synthesizer.BuildRepository().take();
  std::vector<double> marginals(Spec().packages.size(), 0.5);
  package::PopconOptions options;
  options.installation_count = 500;

  uint64_t base = cache::HashSurveyInputs(repo, marginals, options);
  EXPECT_EQ(cache::HashSurveyInputs(repo, marginals, options), base);

  auto tweaked = marginals;
  tweaked[3] = 0.5000001;
  EXPECT_NE(cache::HashSurveyInputs(repo, tweaked, options), base);

  package::PopconOptions more = options;
  more.installation_count = 501;
  EXPECT_NE(cache::HashSurveyInputs(repo, marginals, more), base);

  auto hash_with = [&](auto edit) {
    package::PopconOptions edited = options;
    edit(edited);
    return cache::HashSurveyInputs(repo, marginals, edited);
  };
  EXPECT_NE(hash_with([](auto& o) { o.report_rate = 0.9; }), base);
  EXPECT_NE(hash_with([](auto& o) { o.retain_samples = 10; }), base);
  EXPECT_NE(hash_with([](auto& o) { o.seed ^= 1; }), base);
  EXPECT_NE(hash_with([](auto& o) { o.profile_count = 3; }), base);
  EXPECT_NE(hash_with([](auto& o) { o.profile_boost = 2.5; }), base);

  // The same repository with one dependency edge dropped.
  package::Repository pruned;
  bool dropped = false;
  for (package::Package pkg : repo.packages()) {
    if (!dropped && !pkg.depends.empty()) {
      pkg.depends.pop_back();
      dropped = true;
    }
    ASSERT_TRUE(pruned.AddPackage(std::move(pkg)).ok());
  }
  ASSERT_TRUE(dropped);
  EXPECT_NE(cache::HashSurveyInputs(pruned, marginals, options), base);
}

// --- FootprintCache store --------------------------------------------------

std::vector<uint8_t> Payload(uint8_t fill, size_t n = 64) {
  return std::vector<uint8_t>(n, fill);
}

std::vector<uint8_t> Bytes(std::span<const uint8_t> view) {
  return std::vector<uint8_t>(view.begin(), view.end());
}

// An empty path for one test's cache directory, unique to this process.
std::filesystem::path FreshCacheDir(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() /
             (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// One record of a shard log: magic, content, fingerprint, payload length,
// payload, and the payload's FNV-1a.
struct LogRecord {
  CacheKey key;
  std::vector<uint8_t> payload;
};

// Every record of every shard log under `dir`.
std::vector<LogRecord> ReadLogs(const std::filesystem::path& dir) {
  std::vector<LogRecord> records;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<uint8_t> log((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    ByteReader reader(log);
    while (!reader.AtEnd()) {
      reader.ReadU32().take();  // magic
      LogRecord record;
      record.key.content = reader.ReadU64().take();
      record.key.fingerprint = reader.ReadU64().take();
      const uint32_t length = reader.ReadU32().take();
      record.payload = reader.ReadBytes(length).take();
      EXPECT_EQ(reader.ReadU64().take(), cache::HashBytes(record.payload));
      records.push_back(std::move(record));
    }
  }
  return records;
}

TEST(FootprintCacheTest, LookupsServeOnlyWhatOpenLoaded) {
  EXPECT_EQ(FootprintCache::Open("").status().code(),
            StatusCode::kInvalidArgument);

  const auto dir = FreshCacheDir("lapis-cache-test-open-loaded");
  const CacheKey key{0x1234, 0x5678};
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    FootprintCache& store = *cache.value();
    EXPECT_FALSE(store.Lookup(key).has_value());
    store.Insert(key, Payload(0xab));
    // The run's own append is for the next run, not this one.
    EXPECT_FALSE(store.Lookup(key).has_value());
    // A run appends each key once.
    store.Insert(key, Payload(0xcd));
    auto stats = store.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes_written, Payload(0xab).size());
  }
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    FootprintCache& store = *cache.value();
    EXPECT_EQ(store.stats().entries_loaded, 1u);
    auto hit = store.Lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(Bytes(*hit), Payload(0xab));
    // Fingerprint half must discriminate as strongly as the content half.
    EXPECT_FALSE(store.Lookup(CacheKey{0x1234, 0x9999}).has_value());
    EXPECT_FALSE(store.Lookup(CacheKey{0x9999, 0x5678}).has_value());
    // A run that rejects a loaded payload appends its replacement; the
    // view of the loaded bytes stays valid, and the rejected lookup counts
    // as a miss.
    store.Insert(key, Payload(0xcd));
    EXPECT_EQ(Bytes(*hit), Payload(0xab));
    EXPECT_EQ(store.stats().entries, 1u);
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, 3u);
  }
  // The next Open keeps the key's last record.
  auto cache = FootprintCache::Open(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(cache.value()->stats().entries_loaded, 1u);
  auto hit = cache.value()->Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Bytes(*hit), Payload(0xcd));
  EXPECT_EQ(ReadLogs(dir).size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(FootprintCacheTest, PersistentStoreSurvivesReopen) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-reopen";
  std::filesystem::remove_all(dir);

  constexpr size_t kEntries = 64;  // enough to populate many shards
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    for (size_t i = 0; i < kEntries; ++i) {
      cache.value()->Insert(CacheKey{i, ~i},
                            Payload(static_cast<uint8_t>(i), 32 + i));
    }
  }
  auto reopened = FootprintCache::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->stats().entries_loaded, kEntries);
  EXPECT_EQ(reopened.value()->stats().corrupt_entries_dropped, 0u);
  for (size_t i = 0; i < kEntries; ++i) {
    auto hit = reopened.value()->Lookup(CacheKey{i, ~i});
    ASSERT_TRUE(hit.has_value()) << "entry " << i << " lost across reopen";
    EXPECT_EQ(Bytes(*hit), Payload(static_cast<uint8_t>(i), 32 + i));
  }
  std::filesystem::remove_all(dir);
}

TEST(FootprintCacheTest, CorruptTailsAreDroppedAndTruncated) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-corrupt";
  std::filesystem::remove_all(dir);

  constexpr size_t kEntries = 64;
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok());
    for (size_t i = 0; i < kEntries; ++i) {
      cache.value()->Insert(CacheKey{i, i * 31}, Payload(0x5a, 48));
    }
  }
  // Simulate a crash mid-append: garbage on the tail of every shard log.
  size_t garbaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ofstream out(entry.path(), std::ios::app | std::ios::binary);
    out.write("\x13garbage-not-a-record", 21);
    ++garbaged;
  }
  ASSERT_GT(garbaged, 0u);

  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    EXPECT_EQ(cache.value()->stats().entries_loaded, kEntries);
    EXPECT_EQ(cache.value()->stats().corrupt_entries_dropped, garbaged);
    for (size_t i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(cache.value()->Lookup(CacheKey{i, i * 31}).has_value());
    }
    // Appending after recovery must produce a readable log again...
    cache.value()->Insert(CacheKey{999, 999}, Payload(0x77));
  }
  // ...because recovery truncated the garbage off the shard files.
  auto cache = FootprintCache::Open(dir.string());
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ(cache.value()->stats().corrupt_entries_dropped, 0u);
  EXPECT_EQ(cache.value()->stats().entries_loaded, kEntries + 1);
  ASSERT_TRUE(cache.value()->Lookup(CacheKey{999, 999}).has_value());
  std::filesystem::remove_all(dir);
}

TEST(FootprintCacheTest, TruncatedRecordDegradesToRecompute) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-truncated";
  std::filesystem::remove_all(dir);
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok());
    cache.value()->Insert(CacheKey{1, 2}, Payload(0x11, 256));
  }
  // Cut the record in half (short read mid-payload). Open pre-creates every
  // shard log, so find the non-empty one that actually holds the record.
  size_t truncated = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto size = std::filesystem::file_size(entry.path());
    if (size > 0) {
      std::filesystem::resize_file(entry.path(), size / 2);
      ++truncated;
    }
  }
  ASSERT_EQ(truncated, 1u);

  auto cache = FootprintCache::Open(dir.string());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ(cache.value()->stats().entries_loaded, 0u);
  EXPECT_EQ(cache.value()->stats().corrupt_entries_dropped, 1u);
  EXPECT_FALSE(cache.value()->Lookup(CacheKey{1, 2}).has_value());  // recompute
  std::filesystem::remove_all(dir);
}

TEST(FootprintCacheTest, ConcurrentInsertLookupHammer) {
  const auto dir = FreshCacheDir("lapis-cache-test-hammer");
  constexpr size_t kThreads = 8;
  constexpr size_t kKeys = 256;  // shared across threads: every shard races
  auto run_threads = [](FootprintCache& store, bool warm) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&store, warm] {
        for (size_t i = 0; i < kKeys; ++i) {
          CacheKey key{i, i ^ 0xdead};
          auto hit = store.Lookup(key);
          ASSERT_EQ(hit.has_value(), warm);
          if (hit.has_value()) {
            ASSERT_EQ(Bytes(*hit), Payload(static_cast<uint8_t>(i)));
          } else {
            store.Insert(key, Payload(static_cast<uint8_t>(i)));
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  };
  {
    auto cache = FootprintCache::Open(dir.string());
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    run_threads(*cache.value(), /*warm=*/false);
    EXPECT_EQ(cache.value()->stats().inserts, kKeys);
    EXPECT_EQ(cache.value()->stats().entries, kKeys);
  }
  // However the threads raced, each key was appended exactly once.
  const std::vector<LogRecord> records = ReadLogs(dir);
  ASSERT_EQ(records.size(), kKeys);
  std::set<uint64_t> contents;
  for (const LogRecord& record : records) {
    EXPECT_EQ(record.key.fingerprint, record.key.content ^ 0xdead);
    EXPECT_EQ(record.payload,
              Payload(static_cast<uint8_t>(record.key.content)));
    contents.insert(record.key.content);
  }
  EXPECT_EQ(contents.size(), kKeys);
  uint64_t shard_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    shard_bytes += std::filesystem::file_size(entry.path());
  }
  EXPECT_EQ(shard_bytes, kKeys * (24 + Payload(0).size() + 8));

  auto reopened = FootprintCache::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->stats().entries_loaded, kKeys);
  run_threads(*reopened.value(), /*warm=*/true);
  EXPECT_EQ(reopened.value()->stats().hits, kThreads * kKeys);
  EXPECT_EQ(reopened.value()->stats().inserts, 0u);
  std::filesystem::remove_all(dir);
}

// --- StringInterner: concurrent readers once writes stop -----------------

TEST(StringInternerTest, ConcurrentReadersAfterWrites) {
  StringInterner interner;
  constexpr uint32_t kStrings = 512;
  for (uint32_t i = 0; i < kStrings; ++i) {
    ASSERT_EQ(interner.Intern("sym_" + std::to_string(i)), i);
  }
  constexpr size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&interner] {
      for (uint32_t i = 0; i < kStrings; ++i) {
        const std::string name = "sym_" + std::to_string(i);
        ASSERT_EQ(interner.Find(name), i);
        ASSERT_EQ(interner.NameOf(i), name);
        ASSERT_EQ(interner.Find(name + "_"), StringInterner::kNotFound);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(interner.size(), kStrings);
}

// --- Study-level: the warm-run guarantee -----------------------------------

struct StudyExports {
  std::string importance;
  std::string packages;
  std::string footprints;
};

StudyExports ExportAll(const corpus::StudyResult& result) {
  StudyExports out;
  std::ostringstream importance;
  EXPECT_TRUE(core::ExportImportanceTsv(
                  *result.dataset,
                  {core::ApiKind::kSyscall, core::ApiKind::kIoctlOp,
                   core::ApiKind::kFcntlOp, core::ApiKind::kPrctlOp,
                   core::ApiKind::kPseudoFile, core::ApiKind::kLibcFn},
                  result.path_interner, result.libc_interner, importance)
                  .ok());
  out.importance = importance.str();
  std::ostringstream packages;
  EXPECT_TRUE(core::ExportPackagesTsv(*result.dataset, packages).ok());
  out.packages = packages.str();
  std::ostringstream footprints;
  EXPECT_TRUE(core::ExportFootprintsTsv(*result.dataset,
                                        result.path_interner,
                                        result.libc_interner, footprints)
                  .ok());
  out.footprints = footprints.str();
  return out;
}

TEST(CacheStudyTest, WarmRunSkipsAnalysesWithByteIdenticalExports) {
  const auto dir = FreshCacheDir("lapis-cache-test-warm");
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = dir.string();

  auto cold = corpus::RunStudy(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_TRUE(cold.value().cache_enabled);
  EXPECT_GT(cold.value().cache_stats.inserts, 0u);
  // One lookup per analyzed binary, plus the survey's.
  EXPECT_EQ(cold.value().cache_stats.Lookups(),
            cold.value().analyzed_binaries + 1);

  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm.value().cache_enabled);

  // The acceptance bar: >=95% of per-binary analyses skipped on warm runs.
  ASSERT_GT(warm.value().analyzed_binaries, 0u);
  EXPECT_GE(static_cast<double>(warm.value().analyses_from_cache),
            0.95 * static_cast<double>(warm.value().analyzed_binaries));
  EXPECT_EQ(warm.value().cache_stats.Lookups(),
            warm.value().analyzed_binaries + 1);
  EXPECT_EQ(warm.value().cache_stats.misses, 0u);
  EXPECT_EQ(warm.value().cache_stats.HitRate(), 1.0);
  // A fully warm run has nothing to append.
  EXPECT_EQ(warm.value().cache_stats.inserts, 0u);

  StudyExports cold_exports = ExportAll(cold.value());
  StudyExports warm_exports = ExportAll(warm.value());
  EXPECT_EQ(warm_exports.importance, cold_exports.importance);
  EXPECT_EQ(warm_exports.packages, cold_exports.packages);
  EXPECT_EQ(warm_exports.footprints, cold_exports.footprints);
  EXPECT_EQ(warm.value().ground_truth_mismatches,
            cold.value().ground_truth_mismatches);
  std::filesystem::remove_all(dir);
}

// A run serves only what earlier runs appended, so a cold run hits nothing
// at any worker count, even where one binary occurs twice in the corpus,
// and appends each key exactly once.
TEST(CacheStudyTest, ColdRunNeverHitsItsOwnAppends) {
  for (size_t jobs : {1, 2, 4, 8}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const auto dir = FreshCacheDir("lapis-cache-test-cold-jobs");
    corpus::StudyOptions options = corpus::SmallStudyOptions();
    options.jobs = jobs;
    options.cache_dir = dir.string();
    auto cold = corpus::RunStudy(options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const cache::CacheStats& stats = cold.value().cache_stats;
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(cold.value().analyses_from_cache, 0u);
    EXPECT_EQ(stats.Lookups(), cold.value().analyzed_binaries + 1);

    auto reopened = FootprintCache::Open(dir.string());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value()->stats().entries_loaded, stats.inserts);
    const std::vector<LogRecord> records = ReadLogs(dir);
    EXPECT_EQ(records.size(), stats.inserts);
    std::set<std::pair<uint64_t, uint64_t>> keys;
    for (const LogRecord& record : records) {
      keys.emplace(record.key.content, record.key.fingerprint);
    }
    EXPECT_EQ(keys.size(), records.size());
    std::filesystem::remove_all(dir);
  }
}

TEST(CacheStudyTest, MethodologyFlipForcesRecompute) {
  // Warm a cache with the dataflow methodology and rerun linear on it.
  const auto dir = FreshCacheDir("lapis-cache-test-methodology");
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = dir.string();
  options.analyzer.use_dataflow = true;
  auto dataflow = corpus::RunStudy(options);
  ASSERT_TRUE(dataflow.ok()) << dataflow.status().ToString();

  // A stale dataflow payload served to the linear ablation would silently
  // corrupt the ablation study: the linear run must restore no analysis.
  // Its one hit is the analyzer-independent survey entry, which is
  // deliberately shared across methodologies.
  options.analyzer.use_dataflow = false;
  auto linear = corpus::RunStudy(options);
  ASSERT_TRUE(linear.ok()) << linear.status().ToString();
  EXPECT_EQ(linear.value().analyses_from_cache, 0u);
  EXPECT_EQ(linear.value().cache_stats.hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(CacheStudyTest, IpaTierFlipMissesButNeverCorrupts) {
  // A warm dataflow cache must MISS under the ipa tier (fingerprints fold
  // use_ipa), never serve stale dataflow payloads into the ipa study — and
  // vice versa. Correctness oracle: the no-cache run of each tier.
  corpus::StudyOptions options = corpus::SmallStudyOptions();

  options.analyzer.use_ipa = true;
  auto ipa_reference = corpus::RunStudy(options);
  ASSERT_TRUE(ipa_reference.ok()) << ipa_reference.status().ToString();

  // Warm a cache with the dataflow tier, then flip to ipa on top of it.
  const auto dir = FreshCacheDir("lapis-cache-test-ipa-flip");
  options.cache_dir = dir.string();
  options.analyzer.use_ipa = false;
  auto dataflow = corpus::RunStudy(options);
  ASSERT_TRUE(dataflow.ok()) << dataflow.status().ToString();

  options.analyzer.use_ipa = true;
  auto ipa_on_warm = corpus::RunStudy(options);
  ASSERT_TRUE(ipa_on_warm.ok()) << ipa_on_warm.status().ToString();
  // No dataflow analysis was reused; the one hit is the tier-independent
  // survey entry.
  EXPECT_EQ(ipa_on_warm.value().analyses_from_cache, 0u);
  EXPECT_EQ(ipa_on_warm.value().cache_stats.hits, 1u);
  // And the recovered precision is the no-cache ipa result, not dataflow's.
  EXPECT_EQ(ipa_on_warm.value().unknown_syscall_sites,
            ipa_reference.value().unknown_syscall_sites);
  EXPECT_LT(ipa_on_warm.value().unknown_syscall_sites,
            dataflow.value().unknown_syscall_sites);

  // Vice versa: flipping back to dataflow on the now-mixed cache replays
  // the dataflow entries (fully warm) with dataflow's own counters.
  options.analyzer.use_ipa = false;
  auto dataflow_warm = corpus::RunStudy(options);
  ASSERT_TRUE(dataflow_warm.ok()) << dataflow_warm.status().ToString();
  EXPECT_EQ(dataflow_warm.value().analyses_from_cache,
            dataflow_warm.value().analyzed_binaries);
  EXPECT_EQ(dataflow_warm.value().unknown_syscall_sites,
            dataflow.value().unknown_syscall_sites);
  std::filesystem::remove_all(dir);
}

TEST(CacheStudyTest, PersistentCacheDirSurvivesAcrossRuns) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-study";
  std::filesystem::remove_all(dir);

  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = dir.string();

  auto cold = corpus::RunStudy(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold.value().cache_stats.bytes_written, 0u);

  // A brand-new cache instance (fresh process in spirit) reloads the store.
  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm.value().cache_stats.misses, 0u);
  EXPECT_GE(static_cast<double>(warm.value().analyses_from_cache),
            0.95 * static_cast<double>(warm.value().analyzed_binaries));
  EXPECT_EQ(ExportAll(warm.value()).footprints,
            ExportAll(cold.value()).footprints);
  std::filesystem::remove_all(dir);
}

// A cache written before the library-reach and resolution kinds were
// retired still holds their records. They load with the store but are
// never looked up: a warm run makes one lookup per analyzed binary plus
// the survey's, all hits, and exports what the cold run did.
TEST(CacheStudyTest, RetiredKindRecordsLoadButAreNeverLookedUp) {
  auto dir = std::filesystem::temp_directory_path() /
             "lapis-cache-test-retired-kinds";
  std::filesystem::remove_all(dir);

  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = dir.string();
  auto cold = corpus::RunStudy(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Dead records under the retired kinds, keyed by the study's own core
  // libraries: the content an older cache filed library reach under.
  const corpus::DistroSpec spec =
      corpus::BuildDistroSpec(options.distro).take();
  corpus::DistroSynthesizer synthesizer(spec);
  const auto libs = synthesizer.CoreLibraries().take();
  ASSERT_FALSE(libs.empty());
  {
    auto store = FootprintCache::Open(dir.string());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (int retired : {2, 3}) {
      const uint64_t fingerprint = cache::ConfigFingerprint(
          options.analyzer, static_cast<EntryKind>(retired));
      for (const auto& lib : libs) {
        store.value()->Insert({cache::HashBytes(lib.bytes), fingerprint},
                              Payload(0xee));
      }
    }
  }

  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  const cache::CacheStats& stats = warm.value().cache_stats;
  EXPECT_EQ(stats.entries_loaded,
            cold.value().cache_stats.entries + 2 * libs.size());
  EXPECT_EQ(stats.Lookups(), warm.value().analyzed_binaries + 1);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(warm.value().analyses_from_cache,
            warm.value().analyzed_binaries);

  StudyExports cold_exports = ExportAll(cold.value());
  StudyExports warm_exports = ExportAll(warm.value());
  EXPECT_EQ(warm_exports.importance, cold_exports.importance);
  EXPECT_EQ(warm_exports.packages, cold_exports.packages);
  EXPECT_EQ(warm_exports.footprints, cold_exports.footprints);
  std::filesystem::remove_all(dir);
}

// On a warm cache, a corpus in which some binaries changed restores the
// unchanged analyses and recomputes the rest; resolution over the mix
// must give exactly what a run without a cache gives.
TEST(CacheStudyTest, ChangedBinariesOnWarmCacheResolveAsUncached) {
  const auto dir = FreshCacheDir("lapis-cache-test-changed");
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = dir.string();
  auto before = corpus::RunStudy(options);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  options.distro.modern_variant_adoption = 2.0;
  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  options.cache_dir.clear();
  auto uncached = corpus::RunStudy(options);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  std::filesystem::remove_all(dir);

  EXPECT_GT(warm.value().analyses_from_cache, 0u);
  EXPECT_LT(warm.value().analyses_from_cache,
            warm.value().analyzed_binaries);
  EXPECT_EQ(warm.value().cache_stats.Lookups(),
            warm.value().analyzed_binaries + 1);

  StudyExports warm_exports = ExportAll(warm.value());
  StudyExports uncached_exports = ExportAll(uncached.value());
  EXPECT_EQ(warm_exports.importance, uncached_exports.importance);
  EXPECT_EQ(warm_exports.packages, uncached_exports.packages);
  EXPECT_EQ(warm_exports.footprints, uncached_exports.footprints);
  EXPECT_NE(warm_exports.footprints, ExportAll(before.value()).footprints);
  EXPECT_EQ(warm.value().ground_truth_mismatches,
            uncached.value().ground_truth_mismatches);
}

// Replaces the payload of the survey record in the store at `dir` with
// `survey`'s bytes, under the same key and with a valid checksum: only the
// decoder's shape check can tell it from a survey the study wrote.
void RewriteSurveyRecord(const std::filesystem::path& dir,
                         const package::PopconSurvey& survey) {
  const uint64_t survey_fingerprint =
      cache::BaseFingerprint(EntryKind::kSurvey);
  ByteWriter encoded;
  cache::SurveyCodec::Encode(survey, encoded);
  size_t rewritten = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::vector<uint8_t> log((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
    in.close();
    // Records: magic, content, fingerprint, payload length, payload, and
    // the payload's FNV-1a.
    ByteReader reader(log);
    ByteWriter out;
    while (!reader.AtEnd()) {
      const uint32_t magic = reader.ReadU32().take();
      const uint64_t content = reader.ReadU64().take();
      const uint64_t fingerprint = reader.ReadU64().take();
      const uint32_t length = reader.ReadU32().take();
      std::vector<uint8_t> payload = reader.ReadBytes(length).take();
      uint64_t checksum = reader.ReadU64().take();
      if (fingerprint == survey_fingerprint) {
        payload = encoded.bytes();
        checksum = cache::HashBytes(payload);
        ++rewritten;
      }
      out.PutU32(magic);
      out.PutU64(content);
      out.PutU64(fingerprint);
      out.PutU32(static_cast<uint32_t>(payload.size()));
      out.PutBytes(payload);
      out.PutU64(checksum);
    }
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(out.bytes().data()),
               static_cast<std::streamsize>(out.size()));
  }
  ASSERT_EQ(rewritten, 1u);
}

// A checksummed survey record that does not fit the study is a miss, as an
// undecodable analysis is: the warm run recomputes the survey, exports
// what a run without a cache exports, and appends the survey again, which
// the next Open serves in place of the misfit. Each mutant keeps the
// record's key and checksum.
TEST(CacheStudyTest, MisfitSurveyRecordIsRecomputed) {
  const auto cold_dir = FreshCacheDir("lapis-cache-test-misfit-cold");
  const auto dir = FreshCacheDir("lapis-cache-test-misfit-survey");
  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.popcon_retain_samples = 64;
  auto uncached = corpus::RunStudy(options);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  const package::PopconSurvey& want = uncached.value().survey;
  ASSERT_FALSE(want.samples.empty());

  options.cache_dir = cold_dir.string();
  auto cold = corpus::RunStudy(options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  options.cache_dir = dir.string();

  package::PopconSurvey overcounted = want;
  overcounted.install_counts[0] = want.total_reporting + 1;
  package::PopconSurvey short_counts = want;
  short_counts.install_counts.resize(10);
  package::PopconSurvey short_sample = want;
  std::vector<uint64_t> words = want.samples[0].words();
  words.pop_back();
  short_sample.samples[0] = package::InstallationSet::FromWords(words);
  const std::pair<const char*, const package::PopconSurvey*> mutants[] = {
      {"a count above total_reporting", &overcounted},
      {"10 counts", &short_counts},
      {"a sample one word short", &short_sample},
  };
  const uint64_t survey_fingerprint =
      cache::BaseFingerprint(EntryKind::kSurvey);
  const StudyExports uncached_exports = ExportAll(uncached.value());
  for (const auto& [name, mutant] : mutants) {
    SCOPED_TRACE(name);
    // Each mutant starts from the cold cache: a healed log holds a second
    // survey record.
    std::filesystem::remove_all(dir);
    std::filesystem::copy(cold_dir, dir);
    RewriteSurveyRecord(dir, *mutant);
    auto warm = corpus::RunStudy(options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(warm.value().analyses_from_cache,
              warm.value().analyzed_binaries);
    const package::PopconSurvey& got = warm.value().survey;
    EXPECT_EQ(got.total_reporting, want.total_reporting);
    EXPECT_EQ(got.install_counts, want.install_counts);
    ASSERT_EQ(got.samples.size(), want.samples.size());
    for (size_t i = 0; i < want.samples.size(); ++i) {
      EXPECT_EQ(got.samples[i].words(), want.samples[i].words()) << i;
    }
    const StudyExports warm_exports = ExportAll(warm.value());
    EXPECT_EQ(warm_exports.importance, uncached_exports.importance);
    EXPECT_EQ(warm_exports.packages, uncached_exports.packages);
    EXPECT_EQ(warm_exports.footprints, uncached_exports.footprints);

    // The rejected survey lookup is a miss, and the recomputed survey was
    // written back, and heals the store.
    EXPECT_EQ(warm.value().cache_stats.hits + 1,
              warm.value().cache_stats.Lookups());
    EXPECT_GT(warm.value().cache_stats.bytes_written, 0u);
    CacheKey survey_key;
    for (const LogRecord& record : ReadLogs(dir)) {
      if (record.key.fingerprint == survey_fingerprint) {
        survey_key = record.key;
      }
    }
    ASSERT_EQ(survey_key.fingerprint, survey_fingerprint);
    auto reopened = FootprintCache::Open(dir.string());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto payload = reopened.value()->Lookup(survey_key);
    ASSERT_TRUE(payload.has_value());
    ByteReader reader(*payload);
    EXPECT_TRUE(cache::SurveyCodec::Decode(
                    reader, uncached.value().repository.size())
                    .ok());
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(cold_dir);
}

}  // namespace
}  // namespace lapis
