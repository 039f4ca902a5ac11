// Persistent, content-addressed cache of per-binary analysis artifacts.
//
// The store maps CacheKey{content hash, config fingerprint} to an opaque
// payload (analysis_codec.h). It is sharded 16 ways by content hash, and
// each shard is one append-only log file. The cache is its log: Open
// reads each shard's valid records once and keeps exactly those bytes,
// plus an index from key to its payload's span within them.
//   - A lookup is a view of those bytes. It takes no lock, because the
//     index is fixed once Open returns, and the view stays valid for the
//     cache's lifetime.
//   - Insert appends a record and keeps no copy, so a run's appends serve
//     the next run, never the run that made them. A run appends each key
//     at most once (a per-shard key set under the shard's mutex), and
//     Open keeps a key's last record: a record that a run rejected and
//     recomputed is replaced on the next Open.
//   - A hit is a lookup whose payload the caller used. A caller inserts
//     a key Open loaded only after rejecting its lookup's payload, so each
//     such Insert call moves one lookup from hits to misses.
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
//     repair lands, the shard is quarantined — its write-back is off for
//     the rest of the run — so a half-record is never followed by more
//     appends. The next Open's tail validation cleans up anything repair
//     couldn't.
//   - A shard whose log cannot be opened or read is quarantined with a
//     counted warning (stats().open_failures / quarantined_shards), never
//     a null-handle crash or a lost run; an unreadable log serves no hits.
//   - Fsync policy: kNever (default) trusts the kernel page cache —
//     crash-consistent thanks to tail validation, but the tail may be lost;
//     kEachRecord fsyncs after every append (LAPIS_CACHE_FSYNC=record).
//
// Eviction: none. Entries are content-addressed and a methodology or
// schema change alters the fingerprint, so stale entries are simply never
// hit again; reclaiming space is deleting the directory.

#ifndef LAPIS_SRC_CACHE_FOOTPRINT_CACHE_H_
#define LAPIS_SRC_CACHE_FOOTPRINT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
  std::string dir;  // where the shard logs live; must not be empty
  FsyncPolicy fsync = FsyncPolicy::kNever;
};

// Counters since Open. RunStudy opens a cache per run, so they are the
// run's.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;        // keys handed to the log, each once
  uint64_t bytes_read = 0;     // payload bytes served from the cache
  uint64_t bytes_written = 0;  // payload bytes of committed appends
  uint64_t entries_loaded = 0;            // distinct keys loaded at Open
  uint64_t corrupt_entries_dropped = 0;   // malformed tails at Open
  uint64_t entries = 0;                   // distinct keys loaded or inserted
  uint64_t truncated_tails = 0;      // shard logs whose tail was cut at Open
  uint64_t open_failures = 0;        // shard logs that failed to open/read
  uint64_t quarantined_shards = 0;   // shards whose write-back is off

  uint64_t Lookups() const { return hits + misses; }
  double HitRate() const {
    return Lookups() == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(Lookups());
  }
};

class FootprintCache {
 public:
  // Opens (creating if needed) the store rooted at `dir`. An empty `dir`
  // is INVALID_ARGUMENT and an uncreatable one an I/O error; an
  // unreadable, unwritable or corrupt shard log is not an error, but is
  // counted, warned about and quarantined. The fsync policy defaults from
  // LAPIS_CACHE_FSYNC ("never" | "record").
  static Result<std::unique_ptr<FootprintCache>> Open(const std::string& dir);
  static Result<std::unique_ptr<FootprintCache>> Open(
      const CacheOptions& options);

  ~FootprintCache();
  FootprintCache(const FootprintCache&) = delete;
  FootprintCache& operator=(const FootprintCache&) = delete;

  // The payload Open loaded for `key`, or nullopt (counted as hit/miss).
  // Lock-free; the view stays valid for the cache's lifetime. Inserts of
  // this instance are never returned.
  std::optional<std::span<const uint8_t>> Lookup(const CacheKey& key);

  // Appends `payload` under `key` to the shard log, unless this instance
  // already appended `key` (entries are content-addressed, so any racer
  // wrote identical bytes). Keeps no copy. Look `key` up first: if Open
  // loaded it, this call recounts that lookup as a miss. An append failure
  // quarantines the shard after attempting to roll the log back to its
  // last committed record.
  void Insert(const CacheKey& key, std::span<const uint8_t> payload);

  CacheStats stats() const;

  static constexpr size_t kShardCount = 16;

 private:
  FootprintCache() = default;

  struct KeyHash {
    size_t operator()(const CacheKey& key) const {
      return static_cast<size_t>(HashU64(key.fingerprint, key.content));
    }
  };

  // Where a key's payload sits in its shard's `records`.
  struct Extent {
    size_t offset = 0;
    uint32_t size = 0;
  };

  struct Shard {
    // Fixed once Open returns, and read without the mutex.
    std::vector<uint8_t> records;  // the log's valid records, as Open read
    std::unordered_map<CacheKey, Extent, KeyHash> index;  // last record wins
    // Write-back, under `mutex`.
    std::mutex mutex;
    std::unordered_set<CacheKey, KeyHash> appended;  // keys this run appended
    io::File log;                  // append handle; invalid when quarantined
    uint64_t committed_bytes = 0;  // offset of the last whole record on disk
    bool quarantined = false;      // write-back disabled for this run
  };

  void LoadShard(size_t index, const std::string& path);
  void Quarantine(size_t index, Shard& shard, const std::string& reason);

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
