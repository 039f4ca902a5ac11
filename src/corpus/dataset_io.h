// Study-dataset persistence.
//
// The paper publishes its dataset for further analysis; lapis does the
// equivalent with a compact binary artifact holding the joined study data
// (per-package footprints, survey counts, dependency edges, interner
// tables), so downstream tools (lapis_serve, lapis_plan, lapis_study
// --load) can query metrics without regenerating and re-analyzing the
// corpus. The artifact stores the dataset's own dense layout, so loading
// one is a read and the index build. On a 4-vCPU host, a 1,585-package
// artifact (1.3 MB) decodes in 2.5-2.9 ms (8.7-12 ms as v2), and a
// 30,585-package one (23.3 MB) in 72-93 ms (236-309 ms as v2);
// serve::Snapshot::FromFile, hash and rankings included, takes 8-10 ms and
// 0.18-0.21 s.

#ifndef LAPIS_SRC_CORPUS_DATASET_IO_H_
#define LAPIS_SRC_CORPUS_DATASET_IO_H_

#include <memory>
#include <string>

#include "src/core/api_id.h"
#include "src/core/dataset.h"
#include "src/corpus/study_runner.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace lapis::corpus {

// On-disk study-artifact format version (bump when SerializeStudy's layout
// changes); tools print it so operators can tell stale artifacts apart.
// All integers are little-endian. v3, the only version written:
//
//   u32 magic "LPST", u32 version, u64 installations, u32 package count
//     (byte 16, as in every version)
//   u32 used-API count, then each used API as i64 (kind << 32 | code),
//     strictly ascending: StudyDataset::UsedApis(), so position = dense id
//   u32 footprint-entry total
//   per package: u32-length-prefixed name, u64 install count,
//     u32 dependency count + u32 package ids,
//     u32 footprint size + u32 dense ids, strictly ascending
//   path interner, libc interner: u32 count + length-prefixed strings
//   u8 evidence kinds mask, u32 count + i64 observed ApiIds
//
// History: v1 stored each footprint entry as its 8-byte ApiId; v2 appended
// the evidence section; v3 stores the used-API table once and 4-byte dense
// ids (about half the bytes). v1 and v2 artifacts still load (v1 with no
// evidence), through StudyDataset::SetFootprint + Finalize; v3 loads
// through StudyDataset::FinalizeDense.
inline constexpr uint32_t kStudyArtifactVersion = 3;

struct StudyArtifact {
  std::unique_ptr<core::StudyDataset> dataset;  // finalized
  core::StringInterner path_interner;
  core::StringInterner libc_interner;

  // Dynamic-replay audit evidence (StudyResult::evidence_*). Zero mask =
  // the study ran without --audit (or the artifact predates v2).
  uint8_t evidence_kinds_mask = 0;
  std::set<core::ApiId> evidence_observed;
};

// Serializes the dataset portion of a study (footprints, survey counts,
// dependencies, interners, evidence) into `writer`, as v3.
Status SerializeStudy(const StudyResult& study, ByteWriter& writer);

// Reverse of SerializeStudy; the returned dataset is finalized. An artifact
// the dataset cannot hold is kCorruptData: a count larger than its bytes, an
// unknown API kind, a path or libc id its interners lack, a dependency past
// the package count, an install count above the survey size, and in v3 a
// dense id out of range or out of order, a used-API table out of order or
// naming an API no footprint uses, or footprint sizes that do not sum to
// the entry total.
Result<StudyArtifact> DeserializeStudy(ByteReader& reader);

// File convenience wrappers.
Status SaveStudy(const StudyResult& study, const std::string& path);
Result<StudyArtifact> LoadStudy(const std::string& path);

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_DATASET_IO_H_
