// End-to-end tests of the lapis_study CLI driver: spawn the real binary,
// exercise generate/save/load/eval/export, and check outputs. Also checks
// that lapis_study, lapis_serve and lapis_query reject out-of-range integer
// flags before doing any work.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace lapis {
namespace {

// Paths to the tool binaries, injected by CMake.
#ifndef LAPIS_STUDY_BINARY
#define LAPIS_STUDY_BINARY "tools/lapis_study"
#endif
#ifndef LAPIS_SERVE_BINARY
#define LAPIS_SERVE_BINARY "tools/lapis_serve"
#endif
#ifndef LAPIS_QUERY_BINARY
#define LAPIS_QUERY_BINARY "tools/lapis_query"
#endif

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult RunCommand(const std::string& command_line) {
  std::string command = command_line + " 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  CommandResult result;
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buffer;
  size_t n = 0;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

CommandResult RunTool(const std::string& args) {
  return RunCommand(std::string(LAPIS_STUDY_BINARY) + " " + args);
}

// Runs `binary` under timeout(1), so a tool that hangs instead of
// rejecting its flags fails with exit code 124 rather than stalling.
CommandResult RunWithTimeout(const std::string& binary,
                             const std::string& args) {
  return RunCommand("timeout 20 " + binary + " " + args);
}

std::string SmallFlags() {
  return "--apps=320 --installs=3000";
}

TEST(Cli, HelpExitsCleanly) {
  auto result = RunTool("--help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("--apps"), std::string::npos);
  EXPECT_NE(result.output.find("--export-dir"), std::string::npos);
}

TEST(Cli, VersionPrintsSchemaBanner) {
  auto result = RunTool("--version");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("study artifact schema v"), std::string::npos);
  EXPECT_NE(result.output.find("cache schema v"), std::string::npos);
  EXPECT_NE(result.output.find("analysis tier dataflow"), std::string::npos);
}

TEST(Cli, VersionNamesEveryAnalysisTier) {
  for (const char* tier : {"linear", "dataflow", "ipa"}) {
    auto result = RunTool(std::string("--analysis=") + tier + " --version");
    EXPECT_EQ(result.exit_code, 0) << tier;
    EXPECT_NE(result.output.find(std::string("analysis tier ") + tier),
              std::string::npos)
        << result.output;
  }
}

TEST(Cli, BogusAnalysisTierFails) {
  auto result = RunTool("--analysis=psychic --version");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("--analysis"), std::string::npos);
}

TEST(Cli, BannerNamesActiveAnalysisTier) {
  for (const char* tier : {"linear", "dataflow", "ipa"}) {
    auto result = RunTool(SmallFlags() + " --analysis=" + tier);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find(std::string("(analysis tier: ") + tier +
                                 ")"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("ground-truth mismatches: 0"),
              std::string::npos)
        << tier;
  }
}

TEST(Cli, UnknownFlagFails) {
  auto result = RunTool("--bogus=1");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown flag"), std::string::npos);
}

TEST(Cli, GenerateSaveLoadEvalRoundTrip) {
  std::string artifact = testing::TempDir() + "/cli_study.bin";
  auto generate = RunTool(SmallFlags() + " --save=" + artifact);
  ASSERT_EQ(generate.exit_code, 0) << generate.output;
  EXPECT_NE(generate.output.find("ground-truth mismatches: 0"),
            std::string::npos);
  EXPECT_NE(generate.output.find("224 of 320 syscalls"), std::string::npos);

  auto top = RunTool("--load=" + artifact + " --top=5");
  ASSERT_EQ(top.exit_code, 0) << top.output;
  EXPECT_NE(top.output.find("read"), std::string::npos);

  auto eval = RunTool("--load=" + artifact + " --eval=read,write,open,close");
  ASSERT_EQ(eval.exit_code, 0) << eval.output;
  EXPECT_NE(eval.output.find("weighted completeness"), std::string::npos);
  EXPECT_NE(eval.output.find("suggested additions"), std::string::npos);

  auto bad_eval = RunTool("--load=" + artifact + " --eval=read,not_a_syscall");
  EXPECT_EQ(bad_eval.exit_code, 1);

  std::remove(artifact.c_str());
}

TEST(Cli, ExportWritesTsvs) {
  std::string dir = testing::TempDir();
  auto result = RunTool(SmallFlags() + " --export-dir=" + dir);
  ASSERT_EQ(result.exit_code, 0) << result.output;
  std::ifstream importance(dir + "/api_importance.tsv");
  ASSERT_TRUE(importance.good());
  std::string header;
  std::getline(importance, header);
  EXPECT_EQ(header, "kind\tapi\timportance\tunweighted_importance\tdependents");
  std::ifstream packages(dir + "/packages.tsv");
  EXPECT_TRUE(packages.good());
  std::ifstream footprints(dir + "/footprints.tsv");
  EXPECT_TRUE(footprints.good());
  for (const char* file :
       {"/api_importance.tsv", "/packages.tsv", "/footprints.tsv"}) {
    std::remove((dir + file).c_str());
  }
}

TEST(Cli, ExportFailureExitsOneWithTheError) {
  // A directory squatting on one TSV's path makes just that export fail.
  for (const char* blocked : {"packages.tsv", "footprints.tsv"}) {
    std::string dir = testing::TempDir() + "/cli_export_blocked";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/" + blocked);
    auto result = RunTool(SmallFlags() + " --export-dir=" + dir);
    EXPECT_EQ(result.exit_code, 1) << blocked << "\n" << result.output;
    EXPECT_NE(result.output.find("export failed"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("exported TSVs"), std::string::npos)
        << result.output;
    std::filesystem::remove_all(dir);
  }
}

TEST(Cli, NegativeSizeFlagsExitTwoBeforeAnyWork) {
  for (const char* flag : {"apps", "installs", "jobs"}) {
    auto result = RunWithTimeout(LAPIS_STUDY_BINARY,
                                 SmallFlags() + " --" + flag + "=-1");
    EXPECT_EQ(result.exit_code, 2) << flag << "\n" << result.output;
    EXPECT_NE(result.output.find(std::string("--") + flag +
                                 " must be >= 0 (got -1)"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("generating corpus"), std::string::npos)
        << result.output;
  }
}

TEST(Cli, ServeRejectsOutOfRangeIntegerFlags) {
  // Validation comes before the artifact load, so the missing artifact is
  // never reached.
  const std::string base = "--artifact=/nonexistent/study.bin";
  for (const char* flag : {"apps", "installs", "jobs", "workers",
                           "max-connections", "max-inflight", "port"}) {
    auto result = RunWithTimeout(LAPIS_SERVE_BINARY,
                                 base + " --" + flag + "=-1");
    EXPECT_EQ(result.exit_code, 2) << flag << "\n" << result.output;
    EXPECT_NE(result.output.find(std::string("--") + flag + " must be"),
              std::string::npos)
        << result.output;
  }
  auto port = RunWithTimeout(LAPIS_SERVE_BINARY, base + " --port=70000");
  EXPECT_EQ(port.exit_code, 2) << port.output;
  EXPECT_NE(port.output.find("--port must be in [0, 65535] (got 70000)"),
            std::string::npos)
      << port.output;
}

TEST(Cli, QueryRejectsOutOfRangePort) {
  for (const char* port : {"70000", "-1"}) {
    auto result = RunWithTimeout(
        LAPIS_QUERY_BINARY,
        std::string("--timeout-ms=2000 --ping --port=") + port);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_NE(result.output.find(std::string("--port must be in [0, 65535] "
                                             "(got ") +
                                 port + ")"),
              std::string::npos)
        << result.output;
  }
}

TEST(Cli, LoadMissingArtifactFails) {
  auto result = RunTool("--load=/nonexistent/artifact.bin");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("load failed"), std::string::npos);
}

}  // namespace
}  // namespace lapis
