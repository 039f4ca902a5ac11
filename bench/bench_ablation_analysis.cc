// Ablation: the static-analysis design choices the paper's methodology
// relies on (§2.3, §7):
//   1. call-site constant recovery for vectored opcodes (without it, the
//      ioctl/fcntl/prctl sub-tables are invisible);
//   2. hard-coded path extraction (without it, no pseudo-file study);
//   3. entry-point reachability vs whole-binary linear sweep (the latter
//      over-approximates footprints with dead/unreachable code).

#include <iostream>
#include <memory>

#include "src/analysis/binary_analyzer.h"
#include "src/analysis/library_resolver.h"
#include "src/corpus/binary_synth.h"
#include "src/corpus/distro_spec.h"
#include "src/elf/elf_reader.h"
#include "src/util/table_writer.h"

using namespace lapis;
using analysis::BinaryAnalysis;
using analysis::BinaryAnalyzer;
using analysis::LibraryResolver;

namespace {

struct VariantTotals {
  size_t syscalls = 0;
  size_t ioctl_ops = 0;
  size_t pseudo_paths = 0;
  size_t unknown_opcode_sites = 0;
};

}  // namespace

int main() {
  corpus::DistroOptions options;
  options.app_package_count = 600;
  options.script_package_count = 60;
  options.data_package_count = 12;
  auto spec = corpus::BuildDistroSpec(options).take();
  corpus::DistroSynthesizer synthesizer(spec);

  std::printf("Ablation: analyzer configurations over %zu packages\n\n",
              spec.packages.size());

  BinaryAnalyzer::Options full;
  BinaryAnalyzer::Options no_opcodes;
  no_opcodes.resolve_wrapper_opcodes = false;
  BinaryAnalyzer::Options no_paths;
  no_paths.collect_pseudo_paths = false;

  struct Variant {
    const char* name;
    BinaryAnalyzer::Options options;
    bool whole_binary;
  } variants[] = {
      {"full (paper methodology)", full, false},
      {"no opcode recovery", no_opcodes, false},
      {"no pseudo-path extraction", no_paths, false},
      {"whole-binary sweep (no call graph)", full, true},
  };

  TableWriter table({"Configuration", "Syscalls (pkg avg)",
                     "ioctl ops (total)", "Pseudo-paths (total)",
                     "Unknown opcode sites"});
  for (const auto& variant : variants) {
    LibraryResolver resolver;
    auto core_libs = synthesizer.CoreLibraries().take();
    for (const auto& binary : core_libs) {
      auto image = elf::ElfReader::Parse(binary.bytes).take();
      auto analysis = BinaryAnalyzer::Analyze(image, variant.options);
      (void)resolver.AddLibrary(
          std::make_shared<BinaryAnalysis>(analysis.take()));
    }
    VariantTotals totals;
    size_t packages = 0;
    for (size_t pkg = 0; pkg < spec.packages.size(); ++pkg) {
      const auto& plan = spec.packages[pkg];
      if (plan.data_only || !plan.interpreter_package.empty()) {
        continue;
      }
      auto binaries = synthesizer.PackageBinaries(pkg).take();
      analysis::Footprint footprint;
      // Package-private library sonames are globally unique, so they can
      // accumulate in the shared resolver (as the study runner does).
      std::vector<const corpus::SynthesizedBinary*> exes;
      for (const auto& binary : binaries) {
        if (!binary.is_library) {
          continue;
        }
        auto image = elf::ElfReader::Parse(binary.bytes).take();
        auto lib_analysis = BinaryAnalyzer::Analyze(image, variant.options);
        (void)resolver.AddLibrary(
            std::make_shared<BinaryAnalysis>(lib_analysis.take()));
      }
      auto& local = resolver;
      for (const auto& binary : binaries) {
        if (binary.is_library) {
          continue;
        }
        auto image = elf::ElfReader::Parse(binary.bytes).take();
        auto analysis_result =
            BinaryAnalyzer::Analyze(image, variant.options);
        auto shared =
            std::make_shared<BinaryAnalysis>(analysis_result.take());
        std::vector<uint64_t> roots = {shared->entry()};
        if (variant.whole_binary) {
          // Over-approximation: every function is a root, reachable or not.
          roots.clear();
          for (const auto& fn : shared->functions()) {
            roots.push_back(fn.vaddr);
          }
        }
        footprint.MergeFrom(local.ResolveExecutable(*shared, roots).footprint);
      }
      totals.syscalls += footprint.syscalls.size();
      totals.ioctl_ops += footprint.ioctl_ops.size();
      totals.pseudo_paths += footprint.pseudo_paths.size();
      totals.unknown_opcode_sites +=
          static_cast<size_t>(footprint.unknown_opcode_sites);
      ++packages;
    }
    char avg[32];
    std::snprintf(avg, sizeof(avg), "%.1f",
                  static_cast<double>(totals.syscalls) /
                      static_cast<double>(packages));
    table.AddRow({variant.name, avg, std::to_string(totals.ioctl_ops),
                  std::to_string(totals.pseudo_paths),
                  std::to_string(totals.unknown_opcode_sites)});
  }
  table.Print(std::cout);
  std::printf(
      "\nreadings:\n"
      "- without call-site opcode recovery the vectored-API study\n"
      "  (Figs 4-5) loses its data entirely;\n"
      "- without path extraction the pseudo-file study (Fig 6) disappears;\n"
      "- a whole-binary sweep counts dead (statically linked but\n"
      "  unreachable) code, inflating footprints -- the paper's call-graph\n"
      "  reachability avoids this over-approximation.\n");
  return 0;
}
