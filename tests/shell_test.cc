// Drives the paql_shell example through its stdin statement loop, the same
// path an interactive user takes. Skips when the examples are not built.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace {

/// Runs `command` through the shell; returns its combined output and sets
/// `*status` to the raw wait status.
std::string RunCommand(const std::string& command, int* status) {
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    *status = -1;
    return output;
  }
  char chunk[4096];
  size_t n;
  while ((n = fread(chunk, 1, sizeof(chunk), pipe)) > 0) output.append(chunk, n);
  *status = pclose(pipe);
  return output;
}

TEST(ShellTest, MillionDeepNestingIsAnErrorAndTheShellCarriesOn) {
#ifndef PAQL_SHELL_BIN
  GTEST_SKIP() << "paql_shell is not built (examples off)";
#else
  // A million nested parentheses used to overflow the parser's stack and
  // kill the shell. Now the statement fails with a parse error and the
  // next statement still runs.
  const std::string dir =
      ::testing::TempDir() + "paql_shell_test_" + std::to_string(getpid());
  ASSERT_EQ(system(("mkdir -p '" + dir + "'").c_str()), 0);
  const std::string csv = dir + "/recipes.csv";
  const std::string input = dir + "/statements.paql";
  {
    std::ofstream out(csv);
    out << "name:STRING,kcal:DOUBLE,fat:DOUBLE\n"
           "soup,0.55,1.2\nrice,0.95,2.0\nsalmon,0.80,3.1\n";
  }
  {
    const size_t deep = 1000000;
    std::ofstream out(input);
    out << "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 WHERE "
        << std::string(deep, '(') << "R.kcal > 0" << std::string(deep, ')')
        << " SUCH THAT COUNT(P.*) = 1 MINIMIZE SUM(P.fat);\n"
        << "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 "
           "SUCH THAT COUNT(P.*) = 2 MINIMIZE SUM(P.fat);\n";
  }
  int status = 0;
  std::string output = RunCommand(
      std::string(PAQL_SHELL_BIN) + " '" + csv + "' < '" + input + "' 2>&1",
      &status);
  ASSERT_TRUE(WIFEXITED(status)) << "the shell died: " << output;
  EXPECT_EQ(WEXITSTATUS(status), 1) << output;  // one statement failed
  EXPECT_NE(output.find("deeper than 256"), std::string::npos) << output;
  EXPECT_NE(output.find("-- package (2 tuples"), std::string::npos) << output;
  std::remove(csv.c_str());
  std::remove(input.c_str());
  rmdir(dir.c_str());
#endif
}

}  // namespace
