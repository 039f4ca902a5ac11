// Robustness / property tests: fuzz-style checks that the decoder and ELF
// parser never crash on adversarial input, plus determinism and scale
// sweeps over the corpus generator (parameterized).

#include <gtest/gtest.h>

#include "src/analysis/binary_analyzer.h"
#include "src/corpus/distro_spec.h"
#include "src/corpus/study_runner.h"
#include "src/corpus/syscall_table.h"
#include "src/disasm/decoder.h"
#include "src/elf/elf_builder.h"
#include "src/elf/elf_reader.h"
#include "src/util/bytes.h"
#include "src/util/prng.h"

namespace lapis {
namespace {

// ---------------- Decoder fuzz ----------------

TEST(DecoderRobustness, RandomBytesNeverCrashAndBoundLength) {
  Prng prng(0xfeedface);
  std::vector<uint8_t> buffer(32);
  for (int round = 0; round < 20000; ++round) {
    for (auto& byte : buffer) {
      byte = static_cast<uint8_t>(prng.Next());
    }
    auto decoded = disasm::DecodeOne(buffer, 0x1000);
    if (decoded.ok()) {
      // x86-64 caps instruction length at 15 bytes; our decoder may accept
      // a few redundant prefixes but must stay within the buffer.
      EXPECT_LE(decoded.value().length, buffer.size());
      EXPECT_GT(decoded.value().length, 0);
    }
  }
}

TEST(DecoderRobustness, AllSingleBytesTerminate) {
  for (int byte = 0; byte < 256; ++byte) {
    std::vector<uint8_t> buffer = {static_cast<uint8_t>(byte)};
    auto decoded = disasm::DecodeOne(buffer, 0);
    if (decoded.ok()) {
      EXPECT_EQ(decoded.value().length, 1) << byte;
    }
  }
}

TEST(DecoderRobustness, SweepOfRandomBufferTerminates) {
  Prng prng(42);
  std::vector<uint8_t> buffer(4096);
  for (auto& byte : buffer) {
    byte = static_cast<uint8_t>(prng.Next());
  }
  auto sweep = disasm::LinearSweep(buffer, 0x400000);
  EXPECT_LE(sweep.decoded_bytes, buffer.size());
  // Either it decoded everything or stopped at an undecodable byte.
  if (!sweep.complete) {
    EXPECT_LT(sweep.decoded_bytes, buffer.size());
  }
}

// ---------------- ELF parser fuzz ----------------

std::vector<uint8_t> ValidElf() {
  elf::ElfBuilder builder(elf::BinaryType::kExecutable);
  builder.AddNeeded("libc.so.6");
  builder.AddImport("read");
  elf::FunctionDef fn;
  fn.name = "_start";
  fn.body = {0xb8, 0x00, 0x00, 0x00, 0x00, 0x0f, 0x05, 0xc3};
  uint32_t entry = builder.AddFunction(std::move(fn));
  EXPECT_TRUE(builder.SetEntryFunction(entry).ok());
  return builder.Build().take();
}

TEST(ElfRobustness, SingleByteMutationsNeverCrash) {
  std::vector<uint8_t> base = ValidElf();
  Prng prng(7);
  for (int round = 0; round < 3000; ++round) {
    std::vector<uint8_t> mutated = base;
    size_t offset = prng.NextBelow(mutated.size());
    mutated[offset] ^= static_cast<uint8_t>(1 + prng.NextBelow(255));
    auto parsed = elf::ElfReader::Parse(mutated);  // must not crash
    (void)parsed.ok();
  }
}

TEST(ElfRobustness, TruncationsNeverCrash) {
  std::vector<uint8_t> base = ValidElf();
  for (size_t keep = 0; keep < base.size(); keep += 7) {
    std::vector<uint8_t> truncated(base.begin(),
                                   base.begin() + static_cast<long>(keep));
    auto parsed = elf::ElfReader::Parse(truncated);
    (void)parsed.ok();
  }
}

TEST(ElfRobustness, HeaderFieldFuzzNeverCrashes) {
  std::vector<uint8_t> base = ValidElf();
  Prng prng(99);
  // Aggressively scramble header fields (offsets/counts) only.
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> mutated = base;
    for (int i = 0; i < 4; ++i) {
      size_t offset = 16 + prng.NextBelow(48);  // within ehdr
      mutated[offset] = static_cast<uint8_t>(prng.Next());
    }
    auto parsed = elf::ElfReader::Parse(mutated);
    (void)parsed.ok();
  }
}

uint64_t ReadU64At(const std::vector<uint8_t>& bytes, size_t offset) {
  ByteReader reader(bytes);
  EXPECT_TRUE(reader.Seek(offset).ok());
  return reader.ReadU64().value();
}

void WriteU64At(std::vector<uint8_t>& bytes, size_t offset, uint64_t value) {
  for (size_t i = 0; i < 8; ++i) {
    bytes[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// A section (or segment) whose offset + size wraps past 2^64 must not pass
// as lying inside the file.
TEST(ElfRobustness, WrappedSectionRangeIsCorrupt) {
  const std::vector<uint8_t> base = ValidElf();
  const elf::ElfImage image = elf::ElfReader::Parse(base).take();
  const size_t shoff = ReadU64At(base, 0x28);
  size_t wrapping = 0;
  for (size_t i = 0; i < image.sections().size(); ++i) {
    const elf::Section& section = image.sections()[i];
    if (section.type == elf::kShtNull || section.type == elf::kShtNobits ||
        section.size == 0) {
      continue;
    }
    std::vector<uint8_t> mutated = base;
    WriteU64At(mutated, shoff + i * 64 + 24, ~uint64_t{0} - 7);  // sh_offset
    wrapping += section.size >= 8 ? 1 : 0;
    auto parsed = elf::ElfReader::Parse(mutated);
    ASSERT_FALSE(parsed.ok()) << section.name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptData)
        << section.name;
  }
  EXPECT_GT(wrapping, 3u);

  const size_t phoff = ReadU64At(base, 0x20);
  size_t loads = 0;
  for (size_t i = 0; i < image.segments().size(); ++i) {
    if (!image.segments()[i].IsLoad() || image.segments()[i].filesz < 8) {
      continue;
    }
    ++loads;
    std::vector<uint8_t> mutated = base;
    WriteU64At(mutated, phoff + i * 56 + 8, ~uint64_t{0} - 7);  // p_offset
    auto parsed = elf::ElfReader::Parse(mutated);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().ValidateLayout().code(),
              StatusCode::kCorruptData);
  }
  EXPECT_GT(loads, 0u);
}

// A function symbol whose size wraps its end past 2^64 gets no body: the
// analyzer records it as undecoded instead of sweeping outside the file.
TEST(ElfRobustness, WrappedSymbolSizeGivesNoBody) {
  std::vector<uint8_t> bytes = ValidElf();
  const elf::ElfImage image = elf::ElfReader::Parse(bytes).take();
  const elf::Section* symtab = image.FindSection(".symtab");
  ASSERT_NE(symtab, nullptr);
  size_t start = image.symtab().size();
  for (size_t i = 0; i < image.symtab().size(); ++i) {
    if (image.symtab()[i].name == "_start") {
      start = i;
    }
  }
  ASSERT_LT(start, image.symtab().size());
  WriteU64At(bytes, symtab->offset + start * elf::kSymSize + 16,
             ~uint64_t{0} - 1);  // st_size
  const elf::ElfImage wrapped = elf::ElfReader::Parse(bytes).take();
  const elf::Symbol& sym = wrapped.symtab()[start];
  EXPECT_TRUE(wrapped.DataAtVaddr(sym.value, sym.size).empty());
  auto analysis = analysis::BinaryAnalyzer::Analyze(wrapped);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const analysis::FunctionInfo* fn = analysis.value().FunctionNamed("_start");
  ASSERT_NE(fn, nullptr);
  EXPECT_FALSE(fn->decode_complete);
}

// ---------------- Corpus determinism & scale (parameterized) ----------------

class SpecSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpecSeedSweep, DeterministicAndStructurallySound) {
  corpus::DistroOptions options;
  options.app_package_count = 320;
  options.script_package_count = 30;
  options.data_package_count = 8;
  options.seed = GetParam();
  auto a = corpus::BuildDistroSpec(options);
  auto b = corpus::BuildDistroSpec(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().packages.size(), b.value().packages.size());
  EXPECT_EQ(a.value().syscall_rank_order, b.value().syscall_rank_order);
  for (size_t i = 0; i < a.value().packages.size(); ++i) {
    EXPECT_EQ(a.value().packages[i].name, b.value().packages[i].name);
    EXPECT_EQ(a.value().packages[i].syscall_prefix_rank,
              b.value().packages[i].syscall_prefix_rank);
  }
  // Structural invariants hold for every seed.
  std::set<int> order(a.value().syscall_rank_order.begin(),
                      a.value().syscall_rank_order.end());
  EXPECT_EQ(order.size(), 320u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecSeedSweep,
                         ::testing::Values(1u, 42u, 20160418u, 0xdeadbeefu,
                                           0xffffffffffffffffu));

class StudyScaleSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(StudyScaleSweep, GroundTruthHoldsAtEveryScale) {
  corpus::StudyOptions options;
  options.distro.app_package_count = GetParam();
  options.distro.script_package_count = GetParam() / 10;
  options.distro.data_package_count = GetParam() / 40;
  options.distro.installation_count = 5000;
  auto study = corpus::RunStudy(options);
  ASSERT_TRUE(study.ok()) << study.status().ToString();
  EXPECT_EQ(study.value().ground_truth_mismatches, 0u);
  // The startup set stays universally important at every scale.
  for (int nr : corpus::StartupSyscalls()) {
    EXPECT_GT(study.value().dataset->ApiImportance(
                  core::SyscallApi(static_cast<uint32_t>(nr))),
              0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, StudyScaleSweep,
                         ::testing::Values(320u, 600u, 1000u));

TEST(StudyDeterminism, SameOptionsSameDataset) {
  corpus::StudyOptions options;
  options.distro.app_package_count = 320;
  options.distro.installation_count = 4000;
  auto a = corpus::RunStudy(options);
  auto b = corpus::RunStudy(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().dataset->package_count(),
            b.value().dataset->package_count());
  // Footprints compare by the APIs their dense ids name.
  auto apis = [](const core::StudyDataset& dataset, uint32_t pkg) {
    std::vector<core::ApiId> named;
    for (uint32_t dense : dataset.Footprint(pkg)) {
      named.push_back(dataset.UsedApis()[dense]);
    }
    return named;
  };
  for (uint32_t pkg = 0; pkg < a.value().dataset->package_count(); ++pkg) {
    EXPECT_EQ(apis(*a.value().dataset, pkg), apis(*b.value().dataset, pkg));
    EXPECT_EQ(a.value().survey.install_counts[pkg],
              b.value().survey.install_counts[pkg]);
  }
}

}  // namespace
}  // namespace lapis
