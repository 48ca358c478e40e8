// The robustness layer: structured diagnostics on the loader/verifier paths,
// per-program isolation in batch runs, adaptive ROSA budget escalation (a
// batch escalates each query exactly as it would alone), the pipeline-wide
// deadline, and the ProgramAnalysis::vulnerable_fraction timeout-exclusion
// accounting.
#include <gtest/gtest.h>

#include <limits>

#include "ir/builder.h"
#include "privanalyzer/loader.h"
#include "privanalyzer/pipeline.h"
#include "privanalyzer/render.h"
#include "rosa/query.h"
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

// --- Adaptive budget escalation --------------------------------------------

/// The Fig. 2 worked example: 4 messages, a few hundred reachable states —
/// big enough to starve under a tiny budget, small enough to resolve fast.
rosa::Query tuned_query(bool reachable_goal) {
  rosa::Query q;
  rosa::ProcObj p;
  p.id = 1;
  p.uid = {11, 10, 12};
  p.gid = {11, 10, 12};
  q.initial.procs.push_back(p);
  q.initial.dirs.push_back(rosa::DirObj{2, {40, 41, os::Mode(0777)}, 3});
  q.initial.files.push_back(rosa::FileObj{3, {40, 41, os::Mode(0000)}});
  q.initial.set_name(2, "/etc");
  q.initial.set_name(3, "/etc/passwd");
  q.initial.set_users({10});
  q.initial.set_groups({41});
  q.messages = {
      rosa::msg_open(1, 3, rosa::kAccRead, {}),
      rosa::msg_setuid(1, rosa::kWild, {caps::Capability::Setuid}),
      rosa::msg_chown(1, rosa::kWild, rosa::kWild, 41,
                      {caps::Capability::Chown}),
      rosa::msg_chmod(1, rosa::kWild, 0777, {}),
  };
  if (reachable_goal) {
    q.goal = rosa::goal_file_in_rdfset(1, 3);
  } else {
    q.goal = [](const rosa::State&) { return false; };
  }
  q.initial.normalize();
  return q;
}

TEST(EscalationTest, ResolvesResourceLimitToDefiniteVerdict) {
  rosa::SearchLimits tiny;
  tiny.max_states = 3;

  // Base budget starves.
  rosa::SearchResult base = rosa::search(tuned_query(true), tiny);
  ASSERT_EQ(base.verdict, rosa::Verdict::ResourceLimit);

  // Escalation (3 * 2^10 = 3072 states) resolves it, and reports how many
  // doubling rounds it took.
  rosa::SearchResult esc = rosa::search_escalating(
      tuned_query(true), tiny, rosa::EscalationPolicy{10, 2.0});
  EXPECT_EQ(esc.verdict, rosa::Verdict::Reachable);
  EXPECT_GE(esc.stats.escalations, 1u);
  EXPECT_FALSE(esc.witness.empty());

  // The escalated witness is the one an unconstrained search finds.
  rosa::SearchResult full = rosa::search(tuned_query(true));
  ASSERT_EQ(full.witness.size(), esc.witness.size());
  for (std::size_t i = 0; i < full.witness.size(); ++i)
    EXPECT_EQ(full.witness[i].to_string(), esc.witness[i].to_string());
}

TEST(EscalationTest, ResolvesImpossibleQueriesToUnreachable) {
  rosa::SearchLimits tiny;
  tiny.max_states = 3;
  rosa::SearchResult esc = rosa::search_escalating(
      tuned_query(false), tiny, rosa::EscalationPolicy{12, 2.0});
  // The whole space fits in 3 * 2^12 states: the hourglass cell becomes a
  // definite (not presumed) invulnerable.
  EXPECT_EQ(esc.verdict, rosa::Verdict::Unreachable);
  EXPECT_GE(esc.stats.escalations, 1u);
}

TEST(EscalationTest, CapRespectedWhenBudgetStaysTooSmall) {
  rosa::SearchLimits tiny;
  tiny.max_states = 2;
  // Widen the wildcard pools so the space is far larger than the final
  // 2 * 2^2 = 8 state cap and the ladder provably runs out of rounds.
  rosa::Query q = tuned_query(false);
  for (int u = 100; u < 130; ++u) q.initial.add_user(u);
  q.initial.normalize();
  rosa::SearchResult esc =
      rosa::search_escalating(q, tiny, rosa::EscalationPolicy{2, 2.0});
  // 2 -> 4 -> 8 states: still starved; verdict stays ResourceLimit with
  // exactly the configured number of retries.
  EXPECT_EQ(esc.verdict, rosa::Verdict::ResourceLimit);
  EXPECT_EQ(esc.stats.escalations, 2u);
}

TEST(EscalationTest, DisabledPolicyChangesNothing) {
  rosa::SearchLimits tiny;
  tiny.max_states = 3;
  rosa::SearchResult a = rosa::search(tuned_query(true), tiny);
  rosa::SearchResult b =
      rosa::search_escalating(tuned_query(true), tiny, {});
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.states_explored(), b.states_explored());
  EXPECT_EQ(b.stats.escalations, 0u);
}

// Each escalated result of a batch equals search_escalating of its query
// alone: fusing the batch changes nothing about the ladder.
TEST(EscalationTest, BatchResultsMatchSearchEscalating) {
  std::vector<rosa::Query> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(tuned_query(i % 2 == 0));

  rosa::SearchLimits tiny;
  tiny.max_states = 3;
  const rosa::EscalationPolicy policy{10, 2.0};
  std::vector<rosa::SearchResult> batch =
      rosa::run_queries(queries, tiny, policy);

  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const rosa::SearchResult alone =
        rosa::search_escalating(queries[i], tiny, policy);
    EXPECT_EQ(batch[i].verdict, alone.verdict) << i;
    EXPECT_EQ(batch[i].states_explored(), alone.states_explored()) << i;
    EXPECT_EQ(batch[i].stats.escalations, alone.stats.escalations) << i;
    ASSERT_EQ(batch[i].witness.size(), alone.witness.size()) << i;
    for (std::size_t w = 0; w < batch[i].witness.size(); ++w)
      EXPECT_EQ(batch[i].witness[w].to_string(),
                alone.witness[w].to_string());
  }
  // At least one query escalated, or the tuning above regressed.
  EXPECT_GE(batch[0].stats.escalations, 1u);
}

TEST(EscalationTest, StatsSurfaceInRenderAndMerge) {
  rosa::SearchStats a;
  a.escalations = 2;
  rosa::SearchStats b;
  b.escalations = 3;
  a.merge(b);
  EXPECT_EQ(a.escalations, 5u);
  EXPECT_NE(a.to_string().find("escalations=5"), std::string::npos);
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
