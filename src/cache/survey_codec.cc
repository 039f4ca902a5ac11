#include "src/cache/survey_codec.h"

#include <bit>
#include <cstring>

#include "src/cache/content_hash.h"

namespace lapis::cache {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

void SurveyCodec::Encode(const package::PopconSurvey& survey,
                         ByteWriter& writer) {
  writer.PutU64(survey.total_reporting);
  writer.PutU32(static_cast<uint32_t>(survey.install_counts.size()));
  for (uint64_t count : survey.install_counts) {
    writer.PutU64(count);
  }
  writer.PutU32(static_cast<uint32_t>(survey.samples.size()));
  for (const package::InstallationSet& sample : survey.samples) {
    const std::vector<uint64_t>& words = sample.words();
    writer.PutU32(static_cast<uint32_t>(words.size()));
    for (uint64_t word : words) {
      writer.PutU64(word);
    }
  }
}

Result<package::PopconSurvey> SurveyCodec::Decode(ByteReader& reader,
                                                  size_t package_count) {
  package::PopconSurvey survey;
  LAPIS_ASSIGN_OR_RETURN(survey.total_reporting, reader.ReadU64());
  // Install counts and sample words are u64s; a sample holds at least its
  // word count.
  LAPIS_ASSIGN_OR_RETURN(uint32_t count_size, reader.ReadCount(8));
  if (count_size != package_count) {
    return CorruptDataError("survey counts do not match the package count");
  }
  survey.install_counts.reserve(count_size);
  for (uint32_t i = 0; i < count_size; ++i) {
    LAPIS_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
    if (count > survey.total_reporting) {
      return CorruptDataError("install count exceeds the survey size");
    }
    survey.install_counts.push_back(count);
  }
  LAPIS_ASSIGN_OR_RETURN(uint32_t sample_count, reader.ReadCount(4));
  survey.samples.reserve(sample_count);
  for (uint32_t i = 0; i < sample_count; ++i) {
    LAPIS_ASSIGN_OR_RETURN(uint32_t word_count, reader.ReadCount(8));
    if (word_count != (package_count + 63) / 64) {
      return CorruptDataError("sample size does not match the package count");
    }
    std::vector<uint64_t> words;
    words.reserve(word_count);
    for (uint32_t w = 0; w < word_count; ++w) {
      LAPIS_ASSIGN_OR_RETURN(uint64_t word, reader.ReadU64());
      words.push_back(word);
    }
    survey.samples.push_back(
        package::InstallationSet::FromWords(std::move(words)));
  }
  return survey;
}

uint64_t HashSurveyInputs(const package::Repository& repository,
                          const std::vector<double>& target_marginals,
                          const package::PopconOptions& options) {
  uint64_t h = kFnvOffsetBasis;
  h = HashU64(repository.size(), h);
  for (const package::Package& pkg : repository.packages()) {
    h = HashU64(pkg.name.size(), h);
    h = HashString(pkg.name, h);
    h = HashU64(static_cast<uint64_t>(pkg.kind), h);
    h = HashU64(pkg.script_count, h);
    h = HashU64(pkg.depends.size(), h);
    for (package::PackageId dep : pkg.depends) {
      h = HashU64(dep, h);
    }
    h = HashU64(pkg.interpreter, h);
  }
  h = HashU64(target_marginals.size(), h);
  for (double marginal : target_marginals) {
    h = HashU64(DoubleBits(marginal), h);
  }
  h = HashU64(options.installation_count, h);
  h = HashU64(DoubleBits(options.report_rate), h);
  h = HashU64(options.retain_samples, h);
  h = HashU64(options.seed, h);
  h = HashU64(options.profile_count, h);
  h = HashU64(DoubleBits(options.profile_boost), h);
  return h;
}

}  // namespace lapis::cache
