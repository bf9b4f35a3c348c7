// End-to-end checks of the stabl_cli binary (examples/stabl_cli.cpp): the
// mode table's usage check, --jobs never changing a single run's report,
// and flag runs that replay byte for byte from their --dump-scenario.
// Every run is 30 simulated seconds, so the whole file takes a few
// seconds.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Outcome {
  int code = -1;
  std::string out;
};

/// Runs stabl_cli with `args` (shell words) and returns its exit code and
/// stdout; stderr is discarded.
Outcome stabl_cli(const std::string& args) {
  const std::string command =
      std::string("'") + STABL_CLI + "' " + args + " 2>/dev/null </dev/null";
  Outcome run;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0;) {
    run.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// A fresh path under the test temp directory.
fs::path temp_path(const std::string& name) {
  return fs::path(testing::TempDir()) /
         ("stabl_cli_" + std::to_string(getpid()) + "_" + name);
}

std::string quoted(const fs::path& path) { return "'" + path.string() + "'"; }

// Inputs outside the selected mode's row of the mode table.
TEST(Cli, InputsTheSelectedModeDoesNotTakeExit2) {
  const std::vector<std::string> cases = {
      "--chaos 1 --seeds 2",
      "--chaos 1 --format csv",
      "--chaos 1 --fault crash",
      "--chaos 1 --fault-targets 5",
      "--chaos 1 --extra-fault loss",
      "--attribution --dump-scenario",
      "--mitigation-study --dump-scenario",
      "--heartbeat",
  };
  for (const std::string& args : cases) {
    SCOPED_TRACE(args);
    EXPECT_EQ(stabl_cli(args + " --duration 30").code, 2);
  }
}

// The legacy tuning flags are --chain-param shorthands, and a dump passes
// the checks a run does, so an undeclared parameter is refused either way.
TEST(Cli, UndeclaredChainParametersExit2) {
  EXPECT_EQ(stabl_cli("--chain redbelly --no-throttling --duration 30").code,
            2);
  const Outcome dump = stabl_cli(
      "--chain redbelly --chain-param throttling=0 --dump-scenario");
  EXPECT_EQ(dump.code, 2);
  EXPECT_EQ(dump.out, "");
}

// --jobs sets worker threads only: with one seed the run is a single run,
// whose report and --trace do not depend on it.
TEST(Cli, JobsNeverChangesTheSingleRunReport) {
  const std::string cell =
      "--chain redbelly --fault crash --duration 30 --format csv";
  const Outcome one = stabl_cli(cell + " --jobs 1");
  const Outcome two = stabl_cli(cell + " --jobs 2");
  EXPECT_EQ(one.code, 0);
  EXPECT_EQ(two.code, 0);
  EXPECT_EQ(one.out, two.out);
  EXPECT_EQ(std::count(one.out.begin(), one.out.end(), '\n'), 2);

  const fs::path trace = temp_path("jobs.trace.json");
  const Outcome traced = stabl_cli(cell + " --jobs 2 --trace " + quoted(trace));
  EXPECT_EQ(traced.code, 0);
  EXPECT_EQ(traced.out, one.out);
  EXPECT_TRUE(fs::exists(trace));
  fs::remove(trace);
}

// A flag run and the --scenario replay of its own dump print the same
// bytes and exit the same way.
TEST(Cli, DumpedScenariosReplayToTheFlagRunsBytes) {
  const std::vector<std::string> runs = {
      "--chaos 1 --duration 30 --format json",
      "--chain redbelly --max-idle 30 --duration 30 --format json",
      "--chain avalanche --no-throttling --duration 30 --format json",
  };
  for (const std::string& args : runs) {
    SCOPED_TRACE(args);
    const Outcome dump = stabl_cli(args + " --dump-scenario");
    ASSERT_EQ(dump.code, 0);
    const fs::path spec = temp_path("replay.json");
    std::ofstream(spec) << dump.out;
    const Outcome flags = stabl_cli(args);
    const Outcome replay =
        stabl_cli("--scenario " + quoted(spec) + " --format json");
    fs::remove(spec);
    EXPECT_FALSE(flags.out.empty());
    EXPECT_EQ(replay.out, flags.out);
    EXPECT_EQ(replay.code, flags.code);
  }
}

}  // namespace
