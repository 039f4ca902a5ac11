// Table 12: analysis-framework scale. The paper reports 3,105 lines of
// Python + 2,423 of SQL and a 428M-row Postgres database taking ~3 days per
// repository sweep; lapis reports its own end-to-end pipeline scale. The
// paper's recursive SQL is the id-based LibraryResolver fixpoint here, so
// the row count is that of the joined StudyDataset, counted the way their
// tables would hold it: one row per (package, API) footprint entry, one per
// (package, transitive dependency) edge, and one popcon row per package.

#include <chrono>
#include <iostream>

#include "bench/study_fixture.h"
#include "src/corpus/syscall_table.h"
#include "src/util/strings.h"

using namespace lapis;

int main() {
  auto start = std::chrono::steady_clock::now();
  bench::PrintStudyBanner("Table 12: analysis framework implementation");
  const auto& study = bench::FullStudy();
  auto generated = std::chrono::steady_clock::now();

  const auto& dataset = *study.dataset;
  uint64_t dataset_rows = dataset.package_count();
  for (uint32_t pkg = 0; pkg < dataset.package_count(); ++pkg) {
    // The closure includes the package itself, which is not an edge.
    dataset_rows += dataset.Footprint(pkg).size() +
                    dataset.DependencyClosure(pkg).size() - 1;
  }
  auto done = std::chrono::steady_clock::now();

  TableWriter table({"Metric", "Paper", "lapis (measured)"});
  table.AddRow({"Analysis implementation", "3,105 LoC Python + 2,423 SQL",
                "C++20 library (see cloc in README)"});
  table.AddRow({"Packages analyzed", "30,976",
                FormatWithCommas(study.spec.packages.size())});
  table.AddRow({"Binaries disassembled", "66,275",
                FormatWithCommas(study.analyzed_binaries)});
  table.AddRow({"Syscall call sites inspected", "~66k",
                FormatWithCommas(
                    static_cast<uint64_t>(study.total_syscall_sites))});
  table.AddRow({"Undeterminable call sites", "2,454 (4%)",
                FormatWithCommas(
                    static_cast<uint64_t>(study.unknown_syscall_sites))});
  {
    std::vector<std::string> names;
    for (int nr : study.int80_numbers) {
      names.push_back(corpus::I386SyscallName(nr));
    }
    table.AddRow({"Legacy int $0x80 sites", "searched for (§7)",
                  FormatWithCommas(static_cast<uint64_t>(study.int80_sites)) +
                      " (" + Join(names, ", ") + ")"});
  }
  table.AddRow(
      {"Dataset rows", "428,634,030", FormatWithCommas(dataset_rows)});
  if (study.cache_enabled) {
    table.AddRow({"Cache entries / bytes written", "-",
                  FormatWithCommas(study.cache_stats.entries) + " / " +
                      FormatWithCommas(study.cache_stats.bytes_written)});
  }
  table.AddRow({"End-to-end sweep time", "~3 days",
                FormatDouble(std::chrono::duration<double>(done - start)
                                 .count(),
                             1) +
                    "s (generation " +
                    FormatDouble(std::chrono::duration<double>(generated -
                                                               start)
                                     .count(),
                                 1) +
                    "s)"});
  // Parallel-runtime accounting: the paper ran one 3-day sequential sweep;
  // lapis shards the pipeline over a FIFO thread pool and reports the
  // executor's counters plus the per-stage wall/CPU split.
  table.AddRow({"Pipeline worker threads", "1 (sequential sweep)",
                FormatWithCommas(study.jobs_used)});
  table.AddRow({"Executor tasks", "-",
                FormatWithCommas(study.executor_stats.tasks_executed)});
  table.AddRow({"Executor max queue depth", "-",
                FormatWithCommas(study.executor_stats.max_queue_depth)});
  for (const auto& [stage, record] : study.pipeline_stats.stages()) {
    table.AddRow({"Stage: " + stage, "-",
                  FormatDouble(record.wall_seconds, 2) + "s wall / " +
                      FormatDouble(record.cpu_seconds, 2) + "s cpu, " +
                      FormatWithCommas(record.items) + " items"});
  }
  table.Print(std::cout);
  return 0;
}
