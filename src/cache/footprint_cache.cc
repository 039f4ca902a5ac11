#include "src/cache/footprint_cache.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "src/util/env.h"

namespace lapis::cache {

namespace {

constexpr uint32_t kRecordMagic = 0x3143504C;  // "LPC1" little-endian

std::string ShardPath(const std::string& dir, size_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%02zu.bin", index);
  return dir + "/" + name;
}

uint64_t ReadLeU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;  // x86-64 / little-endian hosts; matches ByteWriter convention
}

uint32_t ReadLeU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void AppendLeU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendLeU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

constexpr size_t kHeaderSize = 4 + 8 + 8 + 4;  // magic, content, fp, len
constexpr size_t kTrailerSize = 8;             // payload checksum

FsyncPolicy FsyncPolicyFromEnv() {
  std::string policy = EnvStringOr("LAPIS_CACHE_FSYNC", "never");
  if (policy == "record" || policy == "always" || policy == "each") {
    return FsyncPolicy::kEachRecord;
  }
  return FsyncPolicy::kNever;
}

}  // namespace

Result<std::unique_ptr<FootprintCache>> FootprintCache::Open(
    const std::string& dir) {
  CacheOptions options;
  options.dir = dir;
  options.fsync = FsyncPolicyFromEnv();
  return Open(options);
}

Result<std::unique_ptr<FootprintCache>> FootprintCache::Open(
    const CacheOptions& options) {
  if (options.dir.empty()) {
    return InvalidArgumentError("cache dir must not be empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return IoError("cannot create cache dir " + options.dir + ": " +
                   ec.message());
  }
  std::unique_ptr<FootprintCache> cache(new FootprintCache());
  cache->fsync_ = options.fsync;
  for (size_t i = 0; i < kShardCount; ++i) {
    const std::string path = ShardPath(options.dir, i);
    cache->LoadShard(i, path);
    Shard& shard = cache->shards_[i];
    if (shard.quarantined) {
      continue;  // load already gave up on write-back for this shard
    }
    Result<io::File> log = io::File::OpenAppend(path, io::Profile::kCacheIo);
    if (!log.ok()) {
      // Unwritable shard: serve what was loaded, skip write-back for it.
      ++cache->open_failures_;
      cache->Quarantine(i, shard, "cannot open log: " +
                                      log.status().ToString());
      continue;
    }
    shard.log = log.take();
  }
  return cache;
}

void FootprintCache::LoadShard(size_t index, const std::string& path) {
  Shard& shard = shards_[index];
  Result<std::vector<uint8_t>> read =
      io::ReadFileBytes(path, io::Profile::kCacheIo);
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return;  // first run: no log yet
    }
    // Unreadable log: we cannot know what is on disk, so appending to it
    // would risk corrupting a record boundary. Serve nothing from it and
    // quarantine write-back.
    ++open_failures_;
    Quarantine(index, shard, "cannot read log: " + read.status().ToString());
    return;
  }
  const std::vector<uint8_t> data = read.take();

  size_t pos = 0;
  while (data.size() - pos >= kHeaderSize) {
    if (ReadLeU32(&data[pos]) != kRecordMagic) {
      break;
    }
    CacheKey key;
    key.content = ReadLeU64(&data[pos + 4]);
    key.fingerprint = ReadLeU64(&data[pos + 12]);
    const uint32_t len = ReadLeU32(&data[pos + 20]);
    if (data.size() - pos - kHeaderSize < len + kTrailerSize) {
      break;  // truncated mid-record
    }
    const uint8_t* payload = &data[pos + kHeaderSize];
    const uint64_t checksum = ReadLeU64(payload + len);
    if (HashBytes(std::span<const uint8_t>(payload, len)) != checksum) {
      break;
    }
    shard.index.insert_or_assign(key, Extent{pos + kHeaderSize, len});
    pos += kHeaderSize + len + kTrailerSize;
  }
  // Keep the valid records, not the read buffer: its capacity grew in
  // whole zero-filled chunks.
  shard.records.assign(data.begin(), data.begin() + pos);
  shard.committed_bytes = pos;
  entries_loaded_ += shard.index.size();
  entries_.fetch_add(shard.index.size(), std::memory_order_relaxed);
  if (pos != data.size()) {
    ++corrupt_entries_dropped_;
    ++truncated_tails_;
    // Truncate back to the last whole record so future appends land on a
    // readable boundary.
    std::error_code ec;
    std::filesystem::resize_file(path, pos, ec);
    if (ec) {
      Quarantine(index, shard, "cannot truncate corrupt tail: " +
                                   ec.message());
    }
  }
}

void FootprintCache::Quarantine(size_t index, Shard& shard,
                                const std::string& reason) {
  if (shard.quarantined) {
    return;
  }
  shard.quarantined = true;
  shard.log.Close();
  quarantined_shards_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "lapis cache: shard %02zu quarantined, write-back off for "
               "this run (%s)\n",
               index, reason.c_str());
}

FootprintCache::~FootprintCache() = default;

std::optional<std::span<const uint8_t>> FootprintCache::Lookup(
    const CacheKey& key) {
  const Shard& shard = shards_[key.content % kShardCount];
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(it->second.size, std::memory_order_relaxed);
  return std::span<const uint8_t>(shard.records)
      .subspan(it->second.offset, it->second.size);
}

void FootprintCache::Insert(const CacheKey& key,
                            std::span<const uint8_t> payload) {
  const size_t shard_index = static_cast<size_t>(key.content % kShardCount);
  Shard& shard = shards_[shard_index];
  // A loaded key is inserted only if its lookup's payload was rejected.
  const bool loaded = shard.index.contains(key);
  if (loaded) {
    hits_.fetch_sub(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (!shard.appended.insert(key).second) {
    return;  // this run appended it already; identical payload
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (!loaded) {
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
  if (shard.quarantined || !shard.log.valid()) {
    return;
  }
  // One contiguous append per record: header + payload + checksum.
  std::vector<uint8_t> record;
  record.reserve(kHeaderSize + payload.size() + kTrailerSize);
  AppendLeU32(record, kRecordMagic);
  AppendLeU64(record, key.content);
  AppendLeU64(record, key.fingerprint);
  AppendLeU32(record, static_cast<uint32_t>(payload.size()));
  record.insert(record.end(), payload.begin(), payload.end());
  AppendLeU64(record, HashBytes(payload));

  Status status = shard.log.WriteAll(record.data(), record.size());
  if (status.ok() && fsync_ == FsyncPolicy::kEachRecord) {
    status = shard.log.Sync();
  }
  if (status.ok()) {
    // Record-level commit: only now is the append part of the durable log.
    shard.committed_bytes += record.size();
    bytes_written_.fetch_add(payload.size(), std::memory_order_relaxed);
    return;
  }
  // Partial or failed append: roll the log back to the last committed
  // record if we still can (a simulated crash also kills the repair), then
  // quarantine — a half-record must never be followed by more appends.
  Status repair = shard.log.Truncate(shard.committed_bytes);
  std::string reason = "append failed: " + status.ToString();
  if (!repair.ok()) {
    reason += "; rollback failed: " + repair.ToString() +
              " (next open will truncate the tail)";
  }
  Quarantine(shard_index, shard, reason);
}

CacheStats FootprintCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.entries_loaded = entries_loaded_;
  out.corrupt_entries_dropped = corrupt_entries_dropped_;
  out.entries = entries_.load(std::memory_order_relaxed);
  out.truncated_tails = truncated_tails_;
  out.open_failures = open_failures_;
  out.quarantined_shards =
      quarantined_shards_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace lapis::cache
