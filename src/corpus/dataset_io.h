// Study-dataset persistence.
//
// The paper publishes its dataset for further analysis; lapis does the
// equivalent with a compact binary artifact holding the joined study data
// (per-package footprints, survey counts, dependency edges, interner
// tables). A saved artifact reloads in milliseconds, so downstream tools
// can query metrics without regenerating and re-analyzing the corpus.

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
// v2 appends the audit-evidence section (kinds mask + observed ApiIds);
// v1 artifacts still load, with empty evidence.
inline constexpr uint32_t kStudyArtifactVersion = 2;

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
// dependencies, interners) into `writer`.
Status SerializeStudy(const StudyResult& study, ByteWriter& writer);

// Reverse of SerializeStudy; the returned dataset is finalized. An artifact
// whose footprints or evidence name an unknown API kind, or a path or libc
// id its interners lack, is kCorruptData.
Result<StudyArtifact> DeserializeStudy(ByteReader& reader);

// File convenience wrappers.
Status SaveStudy(const StudyResult& study, const std::string& path);
Result<StudyArtifact> LoadStudy(const std::string& path);

}  // namespace lapis::corpus

#endif  // LAPIS_SRC_CORPUS_DATASET_IO_H_
