// Tests for the .pir program loader (privanalyzer/loader.h) and an
// end-to-end check of the shipped example files.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "privanalyzer/loader.h"
#include "privanalyzer/pipeline.h"
#include "rosa/text.h"
#include "support/diagnostics.h"
#include "support/error.h"

namespace pa::privanalyzer {
namespace {

const char* kMinimal = R"(
; !name: demo
; !permitted: CapSetuid
; !uid: 1000
; !gid: 1000
; !args: 7, 8
func @main(2) {
entry:
  %2 = add %0, %1
  ret %2
}
)";

TEST(LoaderTest, ParsesDirectivesAndModule) {
  programs::ProgramSpec spec = load_program(kMinimal);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.launch_permitted, caps::CapSet{caps::Capability::Setuid});
  EXPECT_EQ(spec.launch_creds.uid.real, 1000);
  ASSERT_EQ(spec.args.size(), 2u);
  EXPECT_EQ(std::get<std::int64_t>(spec.args[0]), 7);
  EXPECT_FALSE(spec.refactored_world);
}

TEST(LoaderTest, LoadedProgramRunsThroughPipeline) {
  programs::ProgramSpec spec = load_program(kMinimal);
  PipelineOptions opts;
  opts.run_rosa = false;
  ProgramAnalysis a = analyze_program(spec, opts);
  EXPECT_EQ(a.exit_code, 15);  // 7 + 8
  EXPECT_FALSE(a.chrono.rows.empty());
}

TEST(LoaderTest, DefaultsApply) {
  programs::ProgramSpec spec = load_program(
      "func @main(0) {\nentry:\n  ret 0\n}\n", "fallback");
  EXPECT_EQ(spec.name, "fallback");
  EXPECT_TRUE(spec.launch_permitted.empty());
  EXPECT_EQ(spec.launch_creds.uid.effective, 1000);
}

TEST(LoaderTest, RefactoredWorldDirective) {
  programs::ProgramSpec spec = load_program(
      "; !world: refactored\nfunc @main(0) {\nentry:\n  ret 0\n}\n");
  EXPECT_TRUE(spec.refactored_world);
}

TEST(LoaderTest, Errors) {
  EXPECT_THROW(load_program("; !bogus: 1\nfunc @main(0) {\nentry:\n ret 0\n}\n"),
               Error);
  EXPECT_THROW(load_program("; !uid: banana\nfunc @main(0) {\nentry:\n ret 0\n}\n"),
               Error);
  EXPECT_THROW(load_program("; !permitted: CapBogus\nfunc @main(0) {\nentry:\n ret 0\n}\n"),
               Error);
  EXPECT_THROW(load_program("func @notmain(0) {\nentry:\n  ret 0\n}\n"), Error);
  EXPECT_THROW(load_program("; !name x\nfunc @main(0) {\nentry:\n ret 0\n}\n"),
               Error);
  EXPECT_THROW(
      load_program("; !name: a\n; !name: b\nfunc @main(0) {\nentry:\n ret 0\n}\n"),
      Error);
  // Bad integer literals are positioned parse failures in both formats.
  try {
    load_program(
        "func @main(0) {\nentry:\n  %0 = mov -9223372036854775809\n"
        "  ret 0\n}\n",
        "big");
    ADD_FAILURE() << "out-of-range literal loaded";
  } catch (const support::StageError& e) {
    EXPECT_EQ(e.diagnostic().code, support::DiagCode::ParseFailed);
    EXPECT_EQ(e.diagnostic().line, 3);
    EXPECT_NE(e.diagnostic().message.find("integer literal out of range"),
              std::string::npos);
  }
  try {
    load_privc_program("fn main() {\n  var mode = 0778;\n  return 0;\n}\n",
                       "octal");
    ADD_FAILURE() << "non-octal digit loaded";
  } catch (const support::StageError& e) {
    EXPECT_EQ(e.diagnostic().code, support::DiagCode::ParseFailed);
    EXPECT_NE(e.diagnostic().message.find(
                  "line 2: invalid digit '8' in octal literal"),
              std::string::npos);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ExampleFilesTest, TinydLoadsAndAnalyzes) {
  programs::ProgramSpec spec =
      load_program_file(std::string(PA_SOURCE_DIR) +
                        "/examples/programs/tinyd.pir");
  EXPECT_EQ(spec.name, "tinyd");
  ProgramAnalysis a = analyze_program(spec);
  EXPECT_EQ(a.exit_code, 0);
  ASSERT_GE(a.chrono.rows.size(), 3u);
  // The serve loop dominates with an empty permitted set.
  EXPECT_TRUE(a.chrono.rows.back().key.permitted.empty());
  EXPECT_GT(a.chrono.rows.back().fraction, 0.5);
}

TEST(ExampleFilesTest, PrivcExamplesLoadAndAnalyze) {
  programs::ProgramSpec filesrv = load_program_file(
      std::string(PA_SOURCE_DIR) + "/examples/programs/filesrv.pc");
  EXPECT_EQ(filesrv.name, "filesrv");
  ProgramAnalysis fa = analyze_program(filesrv);
  EXPECT_EQ(fa.exit_code, 0);
  EXPECT_TRUE(fa.chrono.rows.back().key.permitted.empty());
  EXPECT_GT(fa.chrono.rows.back().fraction, 0.8);

  programs::ProgramSpec su = load_program_file(
      std::string(PA_SOURCE_DIR) + "/examples/programs/su.pc");
  PipelineOptions opts;
  opts.run_rosa = false;
  ProgramAnalysis sa = analyze_program(su, opts);
  EXPECT_EQ(sa.exit_code, 0);
  // Same epoch structure as the C++ su model: 6 rows, bulk in priv1,
  // target-user uids at the end.
  ASSERT_EQ(sa.chrono.rows.size(), 6u) << sa.chrono.to_string();
  EXPECT_EQ(sa.chrono.rows[0].key.permitted.size(), 3);
  EXPECT_GT(sa.chrono.rows[0].fraction, 0.5);
  EXPECT_EQ(sa.chrono.rows[5].key.creds.uid,
            (caps::IdTriple{1001, 1001, 1001}));
  EXPECT_TRUE(sa.chrono.rows[5].key.permitted.empty());
}

TEST(ExampleFilesTest, QueriesParseAndDecide) {
  rosa::Query q1 = rosa::parse_query(read_file(
      std::string(PA_SOURCE_DIR) + "/examples/queries/etc_passwd.rq"));
  EXPECT_EQ(rosa::search(q1).verdict, rosa::Verdict::Reachable);

  rosa::Query q2 = rosa::parse_query(read_file(
      std::string(PA_SOURCE_DIR) + "/examples/queries/devmem_setgid.rq"));
  EXPECT_EQ(rosa::search(q2).verdict, rosa::Verdict::Reachable);
}

}  // namespace
}  // namespace pa::privanalyzer
