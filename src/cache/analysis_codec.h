// Byte codec for the cached per-binary analysis (content_hash.h
// EntryKind::kAnalysis): the function table with local footprints
// (syscalls, ioctl/fcntl/prctl opcodes, pseudo paths, unknown-site
// counters), imported symbols, intra-binary call edges, and
// exports/needed/soname/entry. Restoring one skips ELF parse, linear sweep,
// CFG build, dataflow and IPA entirely. Library reach and cross-library
// resolution are not cached: rebuilding them from the analyses costs less
// than decoding them.
//
// All encodings are little-endian via ByteWriter/ByteReader and carry no
// internal versioning: the cache key's schema fingerprint is the version.
// Decoders are bounds-checked and fail soft (Result), never trusting disk.

#ifndef LAPIS_SRC_CACHE_ANALYSIS_CODEC_H_
#define LAPIS_SRC_CACHE_ANALYSIS_CODEC_H_

#include "src/analysis/binary_analyzer.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace lapis::cache {

class AnalysisCodec {
 public:
  static void Encode(const analysis::BinaryAnalysis& analysis,
                     ByteWriter& writer);
  static Result<analysis::BinaryAnalysis> Decode(ByteReader& reader);
};

}  // namespace lapis::cache

#endif  // LAPIS_SRC_CACHE_ANALYSIS_CODEC_H_
