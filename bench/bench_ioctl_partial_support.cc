// §2 claim: "a system with 'partial support' for ioctl is just as likely to
// support all or none of the Linux applications distributed with Ubuntu."
//
// Sweep: a hypothetical system supports every syscall but only the K most
// important ioctl opcodes. Weighted completeness stays near zero until the
// 52-opcode universal block is complete, then jumps — supporting the
// paper's argument that vectored system calls cannot be half-implemented.

#include <iostream>

#include "bench/study_fixture.h"
#include "src/corpus/api_universe.h"
#include "src/plan/curve.h"

using namespace lapis;

int main() {
  bench::PrintStudyBanner(
      "§2: weighted completeness vs partial ioctl support");
  const auto& dataset = *bench::FullStudy().dataset;

  std::vector<core::ApiId> universe;
  for (const auto& op : corpus::IoctlOps()) {
    universe.push_back(core::IoctlApi(op.code));
  }

  TableWriter table({"ioctl ops supported", "Weighted completeness"});
  for (const plan::CurvePoint& point : plan::PartialSupportCurve(
           dataset, core::ApiKind::kIoctlOp, plan::IoctlCurveCheckpoints(),
           universe)) {
    table.AddRow({std::to_string(point.supported_count),
                  bench::Pct(point.weighted_completeness)});
  }
  table.Print(std::cout);
  std::printf(
      "\nreading: without the TTY/generic-IO block nearly every package\n"
      "breaks (only ioctl-free packages survive at K=0); completeness jumps\n"
      "as the universal block completes at 52 opcodes, and the remaining\n"
      "580+ defined opcodes contribute almost nothing -- supporting the\n"
      "paper's point that 'partial ioctl support' is all-or-nothing for\n"
      "most applications.\n");
  return 0;
}
