// The robustness layer: structured diagnostics on the loader/verifier paths,
// per-program isolation in batch runs, the pipeline-wide deadline, and the
// ProgramAnalysis::vulnerable_fraction timeout-exclusion accounting.
#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.h"
#include "privanalyzer/loader.h"
#include "privanalyzer/pipeline.h"
#include "privanalyzer/render.h"
#include "support/diagnostics.h"

namespace pa::privanalyzer {
namespace {

using attacks::CellVerdict;
using support::DiagCode;
using support::Stage;
using support::StageError;

// --- Structured loader/verifier diagnostics --------------------------------

TEST(DiagnosticsTest, LoaderCarriesFieldNameAndOffendingText) {
  try {
    load_program("; !uid: banana\nfunc @main(0) {\nentry:\n ret 0\n}\n",
                 "demo");
    FAIL() << "bad uid loaded";
  } catch (const StageError& e) {
    EXPECT_EQ(e.diagnostic().stage, Stage::Loader);
    EXPECT_EQ(e.diagnostic().code, DiagCode::BadFieldValue);
    EXPECT_NE(e.diagnostic().message.find("'uid'"), std::string::npos);
    EXPECT_NE(e.diagnostic().message.find("banana"), std::string::npos);
  }
}

TEST(DiagnosticsTest, LoaderArgsDirectiveCarriesContextToo) {
  try {
    load_program(
        "; !args: 1, oops\nfunc @main(2) {\nentry:\n ret %0\n}\n", "demo");
    FAIL() << "bad args loaded";
  } catch (const StageError& e) {
    EXPECT_EQ(e.diagnostic().code, DiagCode::BadFieldValue);
    EXPECT_NE(e.diagnostic().message.find("'args'"), std::string::npos);
    EXPECT_NE(e.diagnostic().message.find("oops"), std::string::npos);
  }
}

TEST(DiagnosticsTest, VerifierFailureIsStructuredAndAttributed) {
  // Parses fine but fails structural verification (call to a function the
  // module does not define).
  try {
    load_program(
        "; !name: badcall\nfunc @main(0) {\nentry:\n  %0 = call @ghost()\n"
        "  ret %0\n}\n");
    FAIL() << "unverifiable module loaded";
  } catch (const StageError& e) {
    EXPECT_EQ(e.diagnostic().stage, Stage::Verifier);
    EXPECT_EQ(e.diagnostic().code, DiagCode::VerifyFailed);
    EXPECT_EQ(e.diagnostic().program, "badcall");
    EXPECT_NE(e.diagnostic().message.find("ghost"), std::string::npos);
  }
}

TEST(DiagnosticsTest, RenderingIsStable) {
  support::Diagnostic d{Stage::Loader, support::Severity::Error,
                        DiagCode::BadFieldValue, "demo",
                        "directive 'uid': not an integer: 'x'"};
  EXPECT_EQ(d.to_string(),
            "error [loader/bad-field-value] demo: directive 'uid': not an "
            "integer: 'x'");
}

// --- Per-program isolation / batch semantics -------------------------------

programs::ProgramSpec corrupted_spec() {
  // Parses as a spec but fails structural verification in the AutoPriv
  // stage: @main calls a function the module does not define.
  programs::ProgramSpec spec;
  spec.name = "corrupted";
  spec.module = ir::Module("corrupted");
  ir::IRBuilder b(spec.module);
  b.begin_function("main", 0);
  b.call("ghost");
  b.ret(ir::IRBuilder::i(0));
  b.end_function();
  return spec;
}

TEST(BatchIsolationTest, OneBadSpecDoesNotAbortTheBatch) {
  std::vector<programs::ProgramSpec> specs;
  specs.push_back(programs::make_ping());
  specs.push_back(corrupted_spec());
  specs.push_back(programs::make_thttpd());

  PipelineOptions opts;
  opts.rosa_limits.max_states = 200'000;
  std::vector<ProgramAnalysis> analyses = analyze_programs(specs, opts);
  ASSERT_EQ(analyses.size(), 3u);

  EXPECT_EQ(analyses[0].status, AnalysisStatus::Ok);
  EXPECT_FALSE(analyses[0].verdicts.empty());

  EXPECT_EQ(analyses[1].status, AnalysisStatus::Failed);
  ASSERT_FALSE(analyses[1].diagnostics.empty());
  EXPECT_EQ(analyses[1].program, "corrupted");

  // The program after the corrupted one still analyzed fully.
  EXPECT_EQ(analyses[2].status, AnalysisStatus::Ok);
  EXPECT_FALSE(analyses[2].verdicts.empty());

  EXPECT_EQ(batch_exit_code(analyses), kExitPartialFailure);
}

TEST(BatchIsolationTest, ExitCodesDistinguishPartialFromTotalFailure) {
  ProgramAnalysis ok;
  ProgramAnalysis failed;
  failed.status = AnalysisStatus::Failed;
  EXPECT_EQ(batch_exit_code({}), kExitOk);
  EXPECT_EQ(batch_exit_code({}, /*empty_is_failure=*/true), kExitAllFailed);
  EXPECT_EQ(batch_exit_code({ok, ok}), kExitOk);
  EXPECT_EQ(batch_exit_code({ok, failed}), kExitPartialFailure);
  EXPECT_EQ(batch_exit_code({failed, failed}), kExitAllFailed);
}

TEST(BatchIsolationTest, TryAnalyzeFileSurvivesMissingFile) {
  ProgramAnalysis a = try_analyze_file("/nonexistent/nope.pir");
  EXPECT_EQ(a.status, AnalysisStatus::Failed);
  ASSERT_FALSE(a.diagnostics.empty());
  EXPECT_EQ(a.diagnostics[0].stage, Stage::Loader);
  EXPECT_EQ(a.diagnostics[0].code, DiagCode::FileNotFound);
}

TEST(BatchIsolationTest, DiagnosticsRender) {
  ProgramAnalysis a = try_analyze_file("/nonexistent/nope.pir");
  std::string rendered = render_analysis_diagnostics(a);
  EXPECT_NE(rendered.find("failed"), std::string::npos);
  EXPECT_NE(rendered.find("file-not-found"), std::string::npos);
  ProgramAnalysis clean;
  EXPECT_EQ(render_analysis_diagnostics(clean), "");
}

// --- Pipeline-wide deadline -------------------------------------------------

TEST(DeadlineTest, ExpiredDeadlineDegradesToTimeoutCellsNotAHang) {
  PipelineOptions opts;
  opts.max_total_seconds = 1e-9;  // expires before the first frontier pop
  ProgramAnalysis a = analyze_program(programs::make_ping(), opts);

  // The analysis completes (status Ok: degraded, not failed), every epoch
  // still has a verdict row, and the degradation is diagnosed.
  EXPECT_EQ(a.status, AnalysisStatus::Ok);
  ASSERT_EQ(a.verdicts.size(), a.chrono.rows.size());
  ASSERT_FALSE(a.diagnostics.empty());
  EXPECT_EQ(a.diagnostics[0].code, DiagCode::DeadlineExceeded);
  EXPECT_EQ(a.diagnostics[0].severity, support::Severity::Warning);
  for (const attacks::EpochVerdicts& ev : a.verdicts)
    for (CellVerdict v : ev.verdicts) EXPECT_EQ(v, CellVerdict::Timeout);
  // Timeout cells are excluded from the vulnerable fraction (presumed
  // invulnerable, as the paper treats hourglasses).
  for (std::size_t atk = 0; atk < 4; ++atk)
    EXPECT_DOUBLE_EQ(a.vulnerable_fraction(atk), 0.0);
}

TEST(DeadlineTest, GenerousDeadlineChangesNothing) {
  PipelineOptions plain;
  plain.rosa_limits.max_states = 200'000;
  ProgramAnalysis a = analyze_program(programs::make_ping(), plain);
  // Budgets too large for steady_clock to represent mean no deadline, not
  // an already expired one.
  for (double secs :
       {3600.0, 1e300, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(secs);
    PipelineOptions with_deadline = plain;
    with_deadline.max_total_seconds = secs;
    ProgramAnalysis b = analyze_program(programs::make_ping(), with_deadline);
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t i = 0; i < a.verdicts.size(); ++i)
      EXPECT_EQ(a.verdicts[i].verdicts, b.verdicts[i].verdicts);
    EXPECT_TRUE(b.diagnostics.empty());
  }
}

// --- vulnerable_fraction timeout accounting (previously untested) ----------

ProgramAnalysis synthetic_analysis() {
  ProgramAnalysis a;
  a.program = "synthetic";
  chronopriv::EpochRow r0;
  r0.name = "e0";
  r0.fraction = 0.6;
  chronopriv::EpochRow r1;
  r1.name = "e1";
  r1.fraction = 0.3;
  chronopriv::EpochRow r2;
  r2.name = "e2";
  r2.fraction = 0.1;
  a.chrono.rows = {r0, r1, r2};

  attacks::EpochVerdicts v0;
  v0.epoch_name = "e0";
  v0.verdicts = {CellVerdict::Vulnerable, CellVerdict::Safe,
                 CellVerdict::Timeout, CellVerdict::Vulnerable};
  attacks::EpochVerdicts v1;
  v1.epoch_name = "e1";
  v1.verdicts = {CellVerdict::Timeout, CellVerdict::Vulnerable,
                 CellVerdict::Timeout, CellVerdict::Safe};
  attacks::EpochVerdicts v2;
  v2.epoch_name = "e2";
  v2.verdicts = {CellVerdict::Vulnerable, CellVerdict::Timeout,
                 CellVerdict::Timeout, CellVerdict::Safe};
  a.verdicts = {v0, v1, v2};
  return a;
}

TEST(VulnerableFractionTest, TimeoutEpochsAreExcluded) {
  ProgramAnalysis a = synthetic_analysis();
  // Attack 0: vulnerable in e0 (0.6) and e2 (0.1); e1 timed out and counts
  // as presumed-invulnerable, NOT as vulnerable.
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(0), 0.7);
  // Attack 1: only e1 vulnerable.
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(1), 0.3);
  // Attack 2: timeouts everywhere -> 0, same as all-safe.
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(2), 0.0);
  // Attack 3: only e0.
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(3), 0.6);
}

TEST(VulnerableFractionTest, MismatchedRowAndVerdictLengthsAreSafe) {
  ProgramAnalysis a = synthetic_analysis();
  a.verdicts.pop_back();  // fewer verdict rows than chrono rows
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(0), 0.6);
  a.chrono.rows.clear();  // no rows at all
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(0), 0.0);
}

}  // namespace
}  // namespace pa::privanalyzer
