// Chaos harness for the deterministic fault injector (src/util/fault) and
// everything that routes through it: the io::File wrappers, the cache's
// record-level commit and quarantine protocol, atomic artifact publication,
// socket EINTR survival, and the study-level guarantee that injected cache
// faults only ever cost recomputation — never a wrong byte in an export.
//
// The heavyweight tests sweep crash points over every byte offset of a
// shard log (physically truncated AND injected via crash#N) and assert the
// recovery oracle exactly: entries_loaded == offset / record_size, one
// dropped tail iff the cut is mid-record, and every surviving lookup is
// byte-identical to what was inserted.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cache/footprint_cache.h"
#include "src/core/report.h"
#include "src/corpus/dataset_io.h"
#include "src/corpus/study_runner.h"
#include "src/serve/client.h"
#include "src/serve/generation.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/serve/socket_io.h"
#include "src/util/fault.h"
#include "src/util/io.h"
#include "src/util/status.h"

namespace lapis {
namespace {

using cache::CacheKey;
using cache::FootprintCache;
using fault::FaultInjector;
using fault::Injected;
using fault::Kind;
using fault::ScopedFaultInjection;
using fault::Site;

std::filesystem::path FreshDir(const std::string& name) {
  auto dir = std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<uint8_t> Payload(uint8_t fill, size_t n = 16) {
  return std::vector<uint8_t>(n, fill);
}

// ---- Spec parsing ---------------------------------------------------------

TEST(FaultSpec, RejectsMalformedClauses) {
  auto& injector = FaultInjector::Global();
  for (const char* bad : {
           "no_colon_here",               // missing site:kind split
           ":eio@0",                      // empty site
           "bogus_site:eio@0",            // unknown site
           "cache_write:frobnicate@0",    // unknown kind
           "cache_write:eio",             // missing trigger
           "cache_write:eio@",            // empty trigger arg
           "cache_write:eio@abc",         // non-numeric index
           "cache_write:eio~1.5",         // probability out of range
           "cache_write:eio~banana",      // non-numeric probability
           "cache_write:eio#5",           // #N only valid for crash
           "cache_write:short@1;oops",    // bad clause in a list
       }) {
    Status status = injector.Configure(bad, 0);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
  }
  injector.Reset();
}

TEST(FaultSpec, BadSpecLeavesPreviousScheduleArmed) {
  auto& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("cache_write:eio@0", 0).ok());
  EXPECT_TRUE(fault::Enabled());
  EXPECT_FALSE(injector.Configure("garbage", 0).ok());
  EXPECT_TRUE(fault::Enabled());  // old schedule still in place
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kEio);
  injector.Reset();
}

TEST(FaultSpec, AcceptsEveryClauseShapeAndEmptySpecDisarms) {
  auto& injector = FaultInjector::Global();
  ASSERT_TRUE(injector
                  .Configure("cache_write:eio@3;artifact_read:short@2+;"
                             "sock_read:eintr~0.25;*:crash#100",
                             7)
                  .ok());
  EXPECT_TRUE(fault::Enabled());
  ASSERT_TRUE(injector.Configure("", 0).ok());
  EXPECT_FALSE(fault::Enabled());
}

// ---- Injection semantics --------------------------------------------------

TEST(FaultCheck, DisabledFastPathInjectsNothing) {
  FaultInjector::Global().Reset();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(fault::Check(Site::kCacheWrite, 64).kind, Kind::kNone);
  }
  // The fast path never even touches the injector: no ops observed.
  EXPECT_EQ(fault::GlobalStats().ops_observed, 0u);
}

TEST(FaultCheck, AtIndexFiresExactlyOnce) {
  ScopedFaultInjection scoped("cache_write:eio@2", 0);
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kNone);
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kNone);
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kEio);
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kNone);
  // Other sites are untouched.
  EXPECT_EQ(fault::Check(Site::kSockWrite, 8).kind, Kind::kNone);
  EXPECT_EQ(fault::GlobalStats().eio_injected, 1u);
}

TEST(FaultCheck, FromIndexFiresForeverAfter) {
  ScopedFaultInjection scoped("cache_read:enospc@1+", 0);
  EXPECT_EQ(fault::Check(Site::kCacheRead, 8).kind, Kind::kNone);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fault::Check(Site::kCacheRead, 8).kind, Kind::kEnospc) << i;
  }
}

TEST(FaultCheck, WildcardTracksEachSiteIndependently) {
  // Per-site op counters: @0 means the FIRST op of every site, not just the
  // first op overall.
  ScopedFaultInjection scoped("*:eio@0", 0);
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kEio);
  EXPECT_EQ(fault::Check(Site::kCacheWrite, 8).kind, Kind::kNone);
  EXPECT_EQ(fault::Check(Site::kSockRead, 8).kind, Kind::kEio);
  EXPECT_EQ(fault::Check(Site::kSockRead, 8).kind, Kind::kNone);
}

TEST(FaultCheck, CrashBoundaryThenEverythingFails) {
  ScopedFaultInjection scoped("sock_write:crash#10", 0);
  EXPECT_EQ(fault::Check(Site::kSockWrite, 6).kind, Kind::kNone);
  Injected crash = fault::Check(Site::kSockWrite, 6);
  EXPECT_EQ(crash.kind, Kind::kCrash);
  EXPECT_EQ(crash.short_bytes, 4u);  // bytes 10..12 never make it out
  EXPECT_TRUE(fault::GlobalStats().crashed);
  // The dead process cannot do ANY I/O — not even at unrelated sites.
  EXPECT_EQ(fault::Check(Site::kCacheRead, 1).kind, Kind::kEio);
  EXPECT_EQ(fault::Check(Site::kArtifactRename, 0).kind, Kind::kEio);
}

TEST(FaultCheck, SameSeedReplaysTheExactSchedule) {
  auto run = [](uint64_t seed) {
    ScopedFaultInjection scoped("cache_write:short~0.5", seed);
    std::vector<std::pair<Kind, size_t>> decisions;
    for (int i = 0; i < 64; ++i) {
      Injected injected = fault::Check(Site::kCacheWrite, 1000);
      decisions.emplace_back(injected.kind, injected.short_bytes);
    }
    return decisions;
  };
  auto first = run(42);
  EXPECT_EQ(first, run(42));   // bit-for-bit deterministic replay
  EXPECT_NE(first, run(43));   // and the seed actually matters
}

TEST(FaultCheck, InjectedErrnoMapsKinds) {
  EXPECT_EQ(fault::InjectedErrno(Kind::kEintr), EINTR);
  EXPECT_EQ(fault::InjectedErrno(Kind::kEnospc), ENOSPC);
  EXPECT_EQ(fault::InjectedErrno(Kind::kEio), EIO);
}

// ---- io::File under injection ---------------------------------------------

TEST(IoFile, InjectedEintrIsRetriedTransparently) {
  auto dir = FreshDir("lapis-fault-eintr");
  std::string path = (dir / "f.bin").string();
  {
    ScopedFaultInjection scoped("cache_write:eintr@0;cache_open:eintr@0", 0);
    auto file = io::File::OpenAppend(path, io::Profile::kCacheIo);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    std::vector<uint8_t> data = Payload(0xaa, 64);
    EXPECT_TRUE(file.value().WriteAll(data.data(), data.size()).ok());
  }
  auto read = io::ReadFileBytes(path, io::Profile::kCacheIo);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), Payload(0xaa, 64));
  std::filesystem::remove_all(dir);
}

TEST(IoFile, ShortWriteLeavesOnlyAPrefixAndFails) {
  auto dir = FreshDir("lapis-fault-short");
  std::string path = (dir / "f.bin").string();
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  {
    ScopedFaultInjection scoped("cache_write:short@0", 11);
    auto file = io::File::OpenAppend(path, io::Profile::kCacheIo);
    ASSERT_TRUE(file.ok());
    Status status = file.value().WriteAll(data.data(), data.size());
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("short write"), std::string::npos)
        << status.ToString();
  }
  auto read = io::ReadFileBytes(path, io::Profile::kCacheIo);
  ASSERT_TRUE(read.ok());
  ASSERT_LT(read.value().size(), data.size());  // strictly a prefix
  EXPECT_TRUE(std::equal(read.value().begin(), read.value().end(),
                         data.begin()));
  std::filesystem::remove_all(dir);
}

TEST(IoFile, EnospcSurfacesAsIoError) {
  auto dir = FreshDir("lapis-fault-enospc");
  std::string path = (dir / "f.bin").string();
  ScopedFaultInjection scoped("cache_write:enospc@0", 0);
  auto file = io::File::OpenAppend(path, io::Profile::kCacheIo);
  ASSERT_TRUE(file.ok());
  Status status = file.value().WriteAll("x", 1);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  std::filesystem::remove_all(dir);
}

// ---- Atomic artifact publication ------------------------------------------

std::vector<uint8_t> PatternBytes(size_t n, uint8_t salt) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(i * 7 + salt);
  }
  return out;
}

TEST(AtomicSave, CrashSweepNeverTearsTheDestination) {
  auto dir = FreshDir("lapis-fault-atomic");
  std::string path = (dir / "artifact.bin").string();
  std::vector<uint8_t> old_content = PatternBytes(64, 1);
  ASSERT_TRUE(
      io::AtomicWriteFile(path, old_content.data(), old_content.size()).ok());

  std::vector<uint8_t> new_content = PatternBytes(100, 2);
  for (size_t n = 0; n < new_content.size(); ++n) {
    {
      ScopedFaultInjection scoped(
          "artifact_write:crash#" + std::to_string(n), 0);
      Status status =
          io::AtomicWriteFile(path, new_content.data(), new_content.size());
      EXPECT_FALSE(status.ok()) << "crash at byte " << n;
    }
    // Readers must still see the OLD file, complete — never a torn prefix
    // of the new one. (The crashed process may leave a temp file behind;
    // that is fine, rename never ran.)
    auto read = io::ReadFileBytes(path, io::Profile::kArtifactIo);
    ASSERT_TRUE(read.ok()) << "crash at byte " << n;
    EXPECT_EQ(read.value(), old_content) << "crash at byte " << n;
  }

  // After any number of crashed attempts, a healthy save still lands.
  ASSERT_TRUE(
      io::AtomicWriteFile(path, new_content.data(), new_content.size()).ok());
  auto read = io::ReadFileBytes(path, io::Profile::kArtifactIo);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), new_content);
  std::filesystem::remove_all(dir);
}

TEST(AtomicSave, SyncAndRenameFailuresKeepTheOldFile) {
  auto dir = FreshDir("lapis-fault-atomic2");
  std::string path = (dir / "artifact.bin").string();
  std::vector<uint8_t> old_content = PatternBytes(48, 3);
  ASSERT_TRUE(
      io::AtomicWriteFile(path, old_content.data(), old_content.size()).ok());
  std::vector<uint8_t> new_content = PatternBytes(80, 4);

  for (const char* spec : {"artifact_sync:eio@0", "artifact_rename:eio@0",
                           "artifact_write:enospc@0"}) {
    {
      ScopedFaultInjection scoped(spec, 0);
      EXPECT_FALSE(
          io::AtomicWriteFile(path, new_content.data(), new_content.size())
              .ok())
          << spec;
    }
    auto read = io::ReadFileBytes(path, io::Profile::kArtifactIo);
    ASSERT_TRUE(read.ok()) << spec;
    EXPECT_EQ(read.value(), old_content) << spec;
    // Non-crash failures clean up their temp file: the directory holds
    // exactly the destination.
    size_t files = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(dir)) {
      ++files;
    }
    EXPECT_EQ(files, 1u) << spec;
  }
  std::filesystem::remove_all(dir);
}

// ---- Cache quarantine and crash recovery ----------------------------------

// All keys with content % 16 == 3 land in shard 3 (shard-03.bin), so the
// sweep tests can reason about ONE log file with fixed-size records:
// header 24 + payload 16 + checksum 8 = 48 bytes per record.
constexpr size_t kRecordSize = 48;

CacheKey ShardThreeKey(size_t i) {
  return CacheKey{3 + 16 * i, 0x1000 + i};
}

TEST(CacheFault, OpenFailureDegradesEveryShardToMemoryOnly) {
  auto dir = FreshDir("lapis-fault-openfail");
  ScopedFaultInjection scoped("cache_open:eio@0+", 0);
  auto cache = FootprintCache::Open((dir / "cache").string());
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  auto stats = cache.value()->stats();
  EXPECT_EQ(stats.open_failures, FootprintCache::kShardCount);
  EXPECT_EQ(stats.quarantined_shards, FootprintCache::kShardCount);
  // The cache still WORKS — memory-only, like dir == "".
  cache.value()->Insert(CacheKey{1, 2}, Payload(0x5c));
  auto hit = cache.value()->Lookup(CacheKey{1, 2});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, Payload(0x5c));
  std::filesystem::remove_all(dir);
}

TEST(CacheFault, ShortAppendQuarantinesShardAndNeverServesTornBytes) {
  auto dir = FreshDir("lapis-fault-shortappend");
  std::string cache_dir = (dir / "cache").string();
  CacheKey torn = ShardThreeKey(0);
  CacheKey other{4, 0x2000};  // shard 4: unaffected by the quarantine
  {
    ScopedFaultInjection scoped("cache_write:short@0", 7);
    auto cache = FootprintCache::Open(cache_dir);
    ASSERT_TRUE(cache.ok());
    cache.value()->Insert(torn, Payload(0x11, 64));
    auto stats = cache.value()->stats();
    EXPECT_EQ(stats.quarantined_shards, 1u);
    // The memory copy still serves for the rest of the run.
    ASSERT_NE(cache.value()->Lookup(torn), nullptr);
    // Other shards keep persisting normally.
    cache.value()->Insert(other, Payload(0x22, 64));
  }
  // The failed append was rolled back to the committed boundary, so the
  // reopen sees a CLEAN log: no corrupt tail, the torn key simply absent
  // (recompute), and the healthy shard's record intact.
  auto reopened = FootprintCache::Open(cache_dir);
  ASSERT_TRUE(reopened.ok());
  auto stats = reopened.value()->stats();
  EXPECT_EQ(stats.corrupt_entries_dropped, 0u);
  EXPECT_EQ(stats.quarantined_shards, 0u);
  EXPECT_EQ(reopened.value()->Lookup(torn), nullptr);
  auto hit = reopened.value()->Lookup(other);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, Payload(0x22, 64));
  std::filesystem::remove_all(dir);
}

TEST(CacheFault, FsyncFailureUnderEachRecordPolicyQuarantines) {
  auto dir = FreshDir("lapis-fault-fsync");
  cache::CacheOptions options;
  options.dir = (dir / "cache").string();
  options.fsync = cache::FsyncPolicy::kEachRecord;
  {
    ScopedFaultInjection scoped("cache_sync:eio@0", 0);
    auto cache = FootprintCache::Open(options);
    ASSERT_TRUE(cache.ok());
    cache.value()->Insert(ShardThreeKey(0), Payload(0x33));
    EXPECT_EQ(cache.value()->stats().quarantined_shards, 1u);
  }
  // An un-fsyncable record is not committed: rollback removed it.
  auto reopened = FootprintCache::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->stats().entries_loaded, 0u);
  EXPECT_EQ(reopened.value()->stats().corrupt_entries_dropped, 0u);
  std::filesystem::remove_all(dir);
}

// The tentpole sweep #1: PHYSICALLY truncate a 4-record shard log at every
// byte offset and check the exact recovery oracle at each cut.
TEST(CacheFault, TruncationSweepOverEveryByteOffset) {
  auto dir = FreshDir("lapis-fault-truncsweep");
  std::string source_dir = (dir / "source").string();
  constexpr size_t kRecords = 4;
  {
    auto cache = FootprintCache::Open(source_dir);
    ASSERT_TRUE(cache.ok());
    for (size_t i = 0; i < kRecords; ++i) {
      cache.value()->Insert(ShardThreeKey(i),
                            Payload(static_cast<uint8_t>(i), 16));
    }
  }
  auto log = io::ReadFileBytes(source_dir + "/shard-03.bin",
                               io::Profile::kCacheIo);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log.value().size(), kRecords * kRecordSize);

  for (size_t cut = 0; cut <= log.value().size(); ++cut) {
    std::string sweep_dir = (dir / "sweep").string();
    std::filesystem::remove_all(sweep_dir);
    std::filesystem::create_directories(sweep_dir);
    {
      std::ofstream out(sweep_dir + "/shard-03.bin", std::ios::binary);
      out.write(reinterpret_cast<const char*>(log.value().data()),
                static_cast<std::streamsize>(cut));
    }
    const size_t whole = cut / kRecordSize;
    const bool mid_record = cut % kRecordSize != 0;
    {
      auto cache = FootprintCache::Open(sweep_dir);
      ASSERT_TRUE(cache.ok()) << "cut at " << cut;
      auto stats = cache.value()->stats();
      EXPECT_EQ(stats.entries_loaded, whole) << "cut at " << cut;
      EXPECT_EQ(stats.corrupt_entries_dropped, mid_record ? 1u : 0u)
          << "cut at " << cut;
      EXPECT_EQ(stats.truncated_tails, mid_record ? 1u : 0u)
          << "cut at " << cut;
      EXPECT_EQ(stats.quarantined_shards, 0u) << "cut at " << cut;
      for (size_t i = 0; i < kRecords; ++i) {
        auto hit = cache.value()->Lookup(ShardThreeKey(i));
        if (i < whole) {
          // Survivors are byte-identical — NEVER silently corrupt.
          ASSERT_NE(hit, nullptr) << "cut at " << cut << " record " << i;
          EXPECT_EQ(*hit, Payload(static_cast<uint8_t>(i), 16));
        } else {
          EXPECT_EQ(hit, nullptr) << "cut at " << cut << " record " << i;
        }
      }
      // Recovery truncated the torn tail off the file...
      EXPECT_EQ(std::filesystem::file_size(sweep_dir + "/shard-03.bin"),
                whole * kRecordSize)
          << "cut at " << cut;
      // ...so the log accepts appends again.
      cache.value()->Insert(ShardThreeKey(kRecords), Payload(0x7f, 16));
    }
    auto recovered = FootprintCache::Open(sweep_dir);
    ASSERT_TRUE(recovered.ok()) << "cut at " << cut;
    EXPECT_EQ(recovered.value()->stats().entries_loaded, whole + 1)
        << "cut at " << cut;
    EXPECT_EQ(recovered.value()->stats().corrupt_entries_dropped, 0u)
        << "cut at " << cut;
  }
  std::filesystem::remove_all(dir);
}

// The tentpole sweep #2: INJECT a crash after every cumulative byte count
// of cache-write traffic. The crash also kills the rollback (a dead process
// cannot ftruncate), so the next open must clean the torn tail itself.
TEST(CacheFault, InjectedCrashPointSweep) {
  auto dir = FreshDir("lapis-fault-crashsweep");
  constexpr size_t kRecords = 4;
  constexpr size_t kTotalBytes = kRecords * kRecordSize;

  for (size_t n = 0; n <= kTotalBytes; ++n) {
    std::string cache_dir = (dir / ("crash-" + std::to_string(n))).string();
    {
      ScopedFaultInjection scoped("cache_write:crash#" + std::to_string(n),
                                  0);
      auto cache = FootprintCache::Open(cache_dir);
      ASSERT_TRUE(cache.ok()) << "crash at " << n;
      for (size_t i = 0; i < kRecords; ++i) {
        cache.value()->Insert(ShardThreeKey(i),
                              Payload(static_cast<uint8_t>(i), 16));
      }
      // The crash fired (all inserts flow through cache_write).
      EXPECT_TRUE(fault::GlobalStats().crashed) << "crash at " << n;
    }
    // "Reboot": a fresh open with no faults must recover exactly the
    // records that were fully on disk before the crash boundary.
    auto cache = FootprintCache::Open(cache_dir);
    ASSERT_TRUE(cache.ok()) << "crash at " << n;
    const size_t whole = n / kRecordSize;
    auto stats = cache.value()->stats();
    EXPECT_EQ(stats.entries_loaded, whole) << "crash at " << n;
    EXPECT_EQ(stats.corrupt_entries_dropped,
              n % kRecordSize != 0 ? 1u : 0u)
        << "crash at " << n;
    for (size_t i = 0; i < kRecords; ++i) {
      auto hit = cache.value()->Lookup(ShardThreeKey(i));
      if (i < whole) {
        ASSERT_NE(hit, nullptr) << "crash at " << n << " record " << i;
        EXPECT_EQ(*hit, Payload(static_cast<uint8_t>(i), 16));
      } else {
        EXPECT_EQ(hit, nullptr) << "crash at " << n << " record " << i;
      }
    }
    std::filesystem::remove_all(cache_dir);
  }
  std::filesystem::remove_all(dir);
}

// ---- Study-level chaos: faults cost recomputation, never correctness ------

const corpus::StudyResult& BaselineStudy() {
  static const corpus::StudyResult* study = [] {
    auto result = corpus::RunStudy(corpus::SmallStudyOptions());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return new corpus::StudyResult(result.take());
  }();
  return *study;
}

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

void ExpectExportsEqual(const StudyExports& got, const StudyExports& want,
                        const char* label) {
  EXPECT_EQ(got.importance, want.importance) << label;
  EXPECT_EQ(got.packages, want.packages) << label;
  EXPECT_EQ(got.footprints, want.footprints) << label;
}

TEST(StudyChaos, RandomizedCacheFaultScheduleNeverChangesExports) {
  StudyExports baseline = ExportAll(BaselineStudy());
  auto dir = FreshDir("lapis-fault-study");

  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = (dir / "cache").string();
  {
    // A messy but survivable schedule across every cache site: some shards
    // fail to open, some appends tear, some loads truncate.
    ScopedFaultInjection scoped(
        "cache_open:eio~0.1;cache_write:short~0.03;cache_read:short~0.05",
        20160418);
    auto faulted = corpus::RunStudy(options);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    ExpectExportsEqual(ExportAll(faulted.value()), baseline, "faulted run");
  }
  // Warm rerun on whatever the faulted run left on disk: partially
  // populated, tails possibly torn — still byte-identical results, and the
  // surviving entries actually serve hits.
  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectExportsEqual(ExportAll(warm.value()), baseline, "warm recovery run");
  EXPECT_GT(warm.value().cache_stats.hits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(StudyChaos, MidRunCrashThenWarmRerunIsByteIdentical) {
  StudyExports baseline = ExportAll(BaselineStudy());
  auto dir = FreshDir("lapis-fault-study-crash");

  corpus::StudyOptions options = corpus::SmallStudyOptions();
  options.cache_dir = (dir / "cache").string();
  {
    // Crash mid-way through cache write-back: every later cache op in the
    // "dead" process fails, so most shards quarantine. The run must still
    // complete with correct results (the cache is an accelerator, not a
    // dependency).
    ScopedFaultInjection scoped("cache_write:crash#4096", 1);
    auto crashed = corpus::RunStudy(options);
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    ExpectExportsEqual(ExportAll(crashed.value()), baseline, "crashed run");
    EXPECT_TRUE(fault::GlobalStats().crashed);
  }
  // Reboot: the next run opens the torn store, drops the tail, and still
  // produces byte-identical exports.
  auto warm = corpus::RunStudy(options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ExpectExportsEqual(ExportAll(warm.value()), baseline, "post-crash run");
  std::filesystem::remove_all(dir);
}

// ---- Artifact + serve chaos -----------------------------------------------

TEST(ArtifactChaos, TornArtifactReadFailsCleanlyAndHealthyReadRecovers) {
  auto dir = FreshDir("lapis-fault-artifact");
  std::string path = (dir / "study.bin").string();
  ASSERT_TRUE(corpus::SaveStudy(BaselineStudy(), path).ok());
  {
    // An injected short read is indistinguishable from a torn file: the
    // loader must reject it, not crash or mis-parse.
    ScopedFaultInjection scoped("artifact_read:short@0", 5);
    auto torn = corpus::LoadStudy(path);
    EXPECT_FALSE(torn.ok());
  }
  auto loaded = corpus::LoadStudy(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().dataset->package_count(),
            BaselineStudy().dataset->package_count());

  // The serve reload path reads through the same artifact I/O layer: a torn
  // read fails the reload, is counted, and generation 1 keeps serving.
  serve::GenerationStore store;
  ASSERT_TRUE(store.PublishFromFile(path).ok());
  {
    ScopedFaultInjection scoped("artifact_read:short@0", 5);
    EXPECT_FALSE(store.PublishFromFile(path).ok());
  }
  EXPECT_EQ(store.reload_failures(), 1u);
  EXPECT_EQ(store.latest(), 1u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->number, 1u);
  EXPECT_EQ(store.Current()->snapshot->dataset().package_count(),
            BaselineStudy().dataset->package_count());
  std::filesystem::remove_all(dir);
}

TEST(ArtifactChaos, SnapshotFromFileReportsInjectedErrorsAsIoErrors) {
  auto dir = FreshDir("lapis-fault-snapshot");
  std::string path = (dir / "study.bin").string();
  ASSERT_TRUE(corpus::SaveStudy(BaselineStudy(), path).ok());
  // A failed open or read is an I/O error, never a decode error: the
  // artifact itself is intact.
  for (const char* spec : {"artifact_open:eio@0", "artifact_read:eio@0"}) {
    ScopedFaultInjection scoped(spec, 7);
    auto snapshot = serve::Snapshot::FromFile(path);
    ASSERT_FALSE(snapshot.ok()) << spec;
    EXPECT_EQ(snapshot.status().code(), StatusCode::kIoError)
        << spec << ": " << snapshot.status().ToString();
  }
  EXPECT_EQ(serve::Snapshot::FromFile((dir / "missing.bin").string())
                .status()
                .code(),
            StatusCode::kNotFound);
  std::filesystem::remove_all(dir);
}

TEST(ArtifactChaos, SnapshotFromFileRetriesInterruptedReads) {
  auto dir = FreshDir("lapis-fault-snapshot-eintr");
  std::string path = (dir / "study.bin").string();
  ASSERT_TRUE(corpus::SaveStudy(BaselineStudy(), path).ok());
  auto clean = serve::Snapshot::FromFile(path);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  {
    // The open and about half of the reads are interrupted: the reader
    // retries each one and never surfaces EINTR or a short artifact.
    ScopedFaultInjection scoped("artifact_open:eintr@0;artifact_read:eintr~0.5",
                                11);
    auto interrupted = serve::Snapshot::FromFile(path);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status().ToString();
    EXPECT_EQ(interrupted.value()->content_hash(),
              clean.value()->content_hash());
    EXPECT_GE(fault::GlobalStats().eintr_injected, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServeChaos, SocketEintrStormDoesNotDisturbAnswers) {
  auto snapshot = serve::Snapshot::FromStudy(BaselineStudy(), "fault-study");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  serve::GenerationStore store;
  store.Publish(snapshot.take());

  serve::ServerOptions options;
  options.unix_socket_path = testing::TempDir() + "/lapis_fault_eintr.sock";
  options.workers = 2;
  auto server = serve::Server::Start(options, &store);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const double expected =
      BaselineStudy().dataset->ApiImportance(core::SyscallApi(0));
  {
    ScopedFaultInjection scoped("sock_read:eintr~0.2;sock_write:eintr~0.2",
                                99);
    auto client = serve::QueryClient::ConnectUnix(options.unix_socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    serve::QueryRequest request;
    request.opcode = serve::Opcode::kImportance;
    request.api.kind = core::ApiKind::kSyscall;
    request.api.name = "read";
    for (int i = 0; i < 20; ++i) {
      auto response = client.value().CallOne(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response.value().status, serve::WireStatus::kOk);
      EXPECT_EQ(response.value().importance.importance, expected);
    }
    // The storm actually happened — both directions took injected EINTRs.
    EXPECT_GT(fault::GlobalStats().eintr_injected, 0u);
  }
  server.value()->Stop();
}

}  // namespace
}  // namespace lapis
