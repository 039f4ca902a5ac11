// Persistent, content-addressed cache of per-binary analysis artifacts.
//
// The store maps CacheKey{content hash, config fingerprint} to an opaque
// payload (analysis_codec.h). It is sharded 16 ways: each shard owns a
// mutex, an in-memory index, and one append-only log file, so lookups and
// write-backs from the thread pool's workers contend only when they hash
// to the same shard.
//
// On-disk layout (per shard, `shard-NN.bin`):
//   repeated records of
//     u32 magic 'LPC1' | u64 content | u64 fingerprint |
//     u32 payload_len  | payload bytes | u64 FNV-1a(payload)
// Loading stops at the first malformed record (bad magic, short read, bad
// checksum — e.g. a crash mid-append), counts it in
// stats().corrupt_entries_dropped, and truncates the file back to the last
// valid record so subsequent appends stay readable. A corrupt or truncated
// store therefore degrades to recomputation, never to an error or a wrong
// payload.
//
// Failure model (see DESIGN.md "failure model"):
//   - All shard I/O goes through io::File, so every open/read/write/fsync
//     is a fault-injection point (LAPIS_FAULT_SPEC).
//   - Record-level commit: each shard tracks committed_bytes, the byte
//     offset of its last fully-written record. A failed or partial append
//     first tries to ftruncate back to that boundary; whether or not the
//     repair lands, the shard is quarantined — memory-only for the rest of
//     the run — so a half-record is never followed by more appends. The
//     next Open's tail validation cleans up anything repair couldn't.
//   - A shard whose log cannot be opened or read degrades to memory-only
//     with a counted warning (stats().open_failures / quarantined_shards),
//     never a null-handle crash or a lost run.
//   - Fsync policy: kNever (default) trusts the kernel page cache —
//     crash-consistent thanks to tail validation, but the tail may be lost;
//     kEachRecord fsyncs after every append (LAPIS_CACHE_FSYNC=record).
//
// Eviction: none. Entries are immutable (content-addressed) and a
// methodology or schema change alters the fingerprint, so stale entries are
// simply never hit again; reclaiming space is deleting the directory.
//
// With an empty directory string the cache is memory-only (same semantics,
// process lifetime) — what the warm-run benchmarks use in-process.

#ifndef LAPIS_SRC_CACHE_FOOTPRINT_CACHE_H_
#define LAPIS_SRC_CACHE_FOOTPRINT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cache/content_hash.h"
#include "src/util/io.h"
#include "src/util/status.h"

namespace lapis::cache {

struct CacheKey {
  uint64_t content = 0;      // FNV-1a of the raw input bytes
  uint64_t fingerprint = 0;  // ConfigFingerprint(options, kind, schema)

  bool operator==(const CacheKey& other) const {
    return content == other.content && fingerprint == other.fingerprint;
  }
};

// When to fsync the shard logs.
enum class FsyncPolicy : uint8_t {
  kNever = 0,   // rely on tail validation at next Open (default)
  kEachRecord,  // fsync after every committed record
};

struct CacheOptions {
  std::string dir;  // empty = memory-only
  FsyncPolicy fsync = FsyncPolicy::kNever;
};

// Monotonic counters; Snapshot deltas give per-run windows.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t bytes_read = 0;     // payload bytes served from the cache
  uint64_t bytes_written = 0;  // payload bytes appended (memory or disk)
  uint64_t entries_loaded = 0;            // restored from disk at Open
  uint64_t corrupt_entries_dropped = 0;   // malformed tails at Open
  uint64_t entries = 0;                   // resident entry count
  uint64_t truncated_tails = 0;      // shard logs whose tail was cut at Open
  uint64_t open_failures = 0;        // shard logs that failed to open/read
  uint64_t quarantined_shards = 0;   // shards degraded to memory-only

  CacheStats operator-(const CacheStats& start) const;
  uint64_t Lookups() const { return hits + misses; }
  double HitRate() const {
    return Lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(Lookups());
  }
};

class FootprintCache {
 public:
  // Opens (creating if needed) a persistent store rooted at `dir`, or a
  // memory-only store when `dir` is empty. Unreadable or corrupt shard
  // files degrade that shard to memory-only (counted, warned), never an
  // error; only an uncreatable directory fails. The fsync policy defaults
  // from LAPIS_CACHE_FSYNC ("never" | "record").
  static Result<std::unique_ptr<FootprintCache>> Open(const std::string& dir);
  static Result<std::unique_ptr<FootprintCache>> Open(
      const CacheOptions& options);

  ~FootprintCache();
  FootprintCache(const FootprintCache&) = delete;
  FootprintCache& operator=(const FootprintCache&) = delete;

  // Returns the payload for `key`, or nullptr (counted as hit/miss).
  // The payload is immutable and shared; safe to hold across inserts.
  std::shared_ptr<const std::vector<uint8_t>> Lookup(const CacheKey& key);

  // Stores `payload` under `key` and appends it to the shard log. A key
  // that is already resident is left untouched (first write wins; entries
  // are content-addressed so any racer wrote identical bytes). Append
  // failures quarantine the shard (memory-only) after attempting to roll
  // the log back to its last committed record.
  void Insert(const CacheKey& key, std::span<const uint8_t> payload);

  CacheStats stats() const;
  const std::string& dir() const { return dir_; }
  bool persistent() const { return !dir_.empty(); }

  static constexpr size_t kShardCount = 16;

 private:
  FootprintCache() = default;

  struct KeyHash {
    size_t operator()(const CacheKey& key) const {
      return static_cast<size_t>(HashU64(key.fingerprint, key.content));
    }
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<CacheKey, std::shared_ptr<const std::vector<uint8_t>>,
                       KeyHash>
        entries;
    io::File log;                  // append handle; invalid when memory-only
    uint64_t committed_bytes = 0;  // offset of the last whole record on disk
    bool quarantined = false;      // write-back disabled for this run
  };

  void LoadShard(size_t index, const std::string& path);
  void Quarantine(size_t index, Shard& shard, const std::string& reason);

  std::string dir_;
  FsyncPolicy fsync_ = FsyncPolicy::kNever;
  Shard shards_[kShardCount];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> entries_{0};
  std::atomic<uint64_t> quarantined_shards_{0};
  uint64_t entries_loaded_ = 0;           // written only during Open
  uint64_t corrupt_entries_dropped_ = 0;  // written only during Open
  uint64_t truncated_tails_ = 0;          // written only during Open
  uint64_t open_failures_ = 0;            // written only during Open
};

}  // namespace lapis::cache

#endif  // LAPIS_SRC_CACHE_FOOTPRINT_CACHE_H_
