// Content addressing for the incremental analysis cache.
//
// A cache key has two halves:
//   * content  — FNV-1a 64 over the raw ELF bytes (or, for the popcon
//     survey, over a canonical byte encoding of its inputs). Flipping a
//     single byte of a binary changes this half.
//   * fingerprint — everything that changes what the pipeline would compute
//     from those bytes: the cache schema version, the entry kind, and every
//     AnalyzerOptions methodology switch (use_dataflow is the big one).
//
// Both halves must match for a hit; either a methodology flip or a schema
// bump silently invalidates the whole store without touching it on disk.

#ifndef LAPIS_SRC_CACHE_CONTENT_HASH_H_
#define LAPIS_SRC_CACHE_CONTENT_HASH_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "src/analysis/binary_analyzer.h"

namespace lapis::cache {

// Bump whenever the serialized payload layout or the analysis semantics
// change in a way old entries must not survive.
inline constexpr uint32_t kCacheSchemaVersion = 2;

// What a cached payload holds; part of the fingerprint so the entry
// families never collide even at equal content hashes. Values 2 and 3
// (a library's export reach, an executable's resolution) are retired and
// must never be reused: older caches still hold records under them, which
// a reused value would read as stale entries of the new kind.
enum class EntryKind : uint8_t {
  kAnalysis = 1,  // serialized BinaryAnalysis (per-binary)
  kSurvey = 4,    // serialized PopconSurvey (whole simulated survey)
};

// FNV-1a 64-bit.
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t HashBytes(std::span<const uint8_t> bytes,
                   uint64_t seed = kFnvOffsetBasis);
uint64_t HashString(std::string_view s, uint64_t seed = kFnvOffsetBasis);
uint64_t HashU64(uint64_t value, uint64_t seed);

// Fingerprint of (schema version, entry kind) for payloads that do not
// depend on analyzer methodology (the survey).
uint64_t BaseFingerprint(EntryKind kind,
                         uint32_t schema_version = kCacheSchemaVersion);

// Fingerprint of (schema version, entry kind, analyzer switches).
// `schema_version` is overridable so invalidation-on-bump is testable.
uint64_t ConfigFingerprint(const analysis::AnalyzerOptions& options,
                           EntryKind kind,
                           uint32_t schema_version = kCacheSchemaVersion);

}  // namespace lapis::cache

#endif  // LAPIS_SRC_CACHE_CONTENT_HASH_H_
