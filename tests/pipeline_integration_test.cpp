// End-to-end integration tests: the full AutoPriv -> ChronoPriv -> ROSA
// pipeline must reproduce the qualitative structure of the paper's
// Table III (baseline programs) and Table V (refactored programs).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ir/printer.h"
#include "privanalyzer/loader.h"
#include "privanalyzer/render.h"

namespace pa::privanalyzer {
namespace {

using attacks::CellVerdict;
using caps::Capability;

const PipelineOptions& fast_options() {
  static PipelineOptions opts = [] {
    PipelineOptions o;
    o.rosa_limits.max_states = 500'000;
    return o;
  }();
  return opts;
}

/// Shared analyses (each program runs once per test binary).
const ProgramAnalysis& passwd_analysis() {
  static ProgramAnalysis a =
      analyze_program(programs::make_passwd(), fast_options());
  return a;
}
const ProgramAnalysis& su_analysis() {
  static ProgramAnalysis a =
      analyze_program(programs::make_su(), fast_options());
  return a;
}
const ProgramAnalysis& ping_analysis() {
  static ProgramAnalysis a =
      analyze_program(programs::make_ping(), fast_options());
  return a;
}
const ProgramAnalysis& passwd_ref_analysis() {
  static ProgramAnalysis a =
      analyze_program(programs::make_passwd_refactored(), fast_options());
  return a;
}
const ProgramAnalysis& su_ref_analysis() {
  static ProgramAnalysis a =
      analyze_program(programs::make_su_refactored(), fast_options());
  return a;
}

TEST(TableIII, PingInvulnerableEverywhere) {
  const ProgramAnalysis& a = ping_analysis();
  ASSERT_EQ(a.verdicts.size(), a.chrono.rows.size());
  for (const attacks::EpochVerdicts& v : a.verdicts)
    for (CellVerdict cv : v.verdicts)
      EXPECT_EQ(cv, CellVerdict::Safe) << v.epoch_name;
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(a.vulnerable_fraction(i), 0.0);
}

TEST(TableIII, PasswdVulnerableForMostOfExecution) {
  const ProgramAnalysis& a = passwd_analysis();
  // Attacks 1, 2, 4 feasible during the big Setuid epoch (paper: >= 63%).
  EXPECT_GT(a.vulnerable_fraction(0), 0.6);
  EXPECT_GT(a.vulnerable_fraction(1), 0.6);
  EXPECT_GT(a.vulnerable_fraction(3), 0.6);
  // Attack 3 (bind privileged port) never: passwd has no socket syscalls.
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(2), 0.0);
}

TEST(TableIII, PasswdPerEpochVerdicts) {
  const ProgramAnalysis& a = passwd_analysis();
  ASSERT_EQ(a.verdicts.size(), 5u);
  // Epoch 1 (all caps, user creds): attacks 1, 2, 4 feasible; 3 never.
  EXPECT_EQ(a.verdicts[0].verdicts[0], CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[0].verdicts[1], CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[0].verdicts[2], CellVerdict::Safe);
  EXPECT_EQ(a.verdicts[0].verdicts[3], CellVerdict::Vulnerable);
  // Epoch 4 (Chown,Fowner,DacOverride @ root): 1, 2 yes, 4 no (no Setuid,
  // no Kill — the victim daemon has a different uid).
  EXPECT_EQ(a.verdicts[3].verdicts[0], CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[3].verdicts[1], CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[3].verdicts[3], CellVerdict::Safe);
}

TEST(TableIII, SuVulnerableUntilPrivilegesDropped) {
  const ProgramAnalysis& a = su_analysis();
  // Paper: vulnerable to 1, 2, 4 for ~88% of execution.
  EXPECT_GT(a.vulnerable_fraction(0), 0.8);
  EXPECT_GT(a.vulnerable_fraction(1), 0.8);
  EXPECT_GT(a.vulnerable_fraction(3), 0.8);
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(2), 0.0);
  // Final epoch (empty set, target user): safe everywhere.
  const attacks::EpochVerdicts& last = a.verdicts.back();
  for (CellVerdict cv : last.verdicts) EXPECT_EQ(cv, CellVerdict::Safe);
}

TEST(TableV, RefactoredPasswdMostlySafe) {
  const ProgramAnalysis& a = passwd_ref_analysis();
  // Paper: invulnerable to all modeled attacks for ~96% of execution.
  ExposureSummary s = exposure_of(a);
  EXPECT_LT(s.any_attack, 0.05);
  // The final (dominant) epoch is fully safe.
  const attacks::EpochVerdicts& last = a.verdicts.back();
  for (CellVerdict cv : last.verdicts) EXPECT_EQ(cv, CellVerdict::Safe);
  // Attack 3 never feasible.
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(2), 0.0);
}

TEST(TableV, RefactoredSuMostlySafe) {
  const ProgramAnalysis& a = su_ref_analysis();
  ExposureSummary s = exposure_of(a);
  // Paper: vulnerable windows total ~1% (the brief planting windows).
  EXPECT_LT(s.any_attack, 0.05);
  EXPECT_DOUBLE_EQ(a.vulnerable_fraction(2), 0.0);
}

TEST(TableV, RefactoringShrinksExposureDramatically) {
  // The paper's headline: 97%/88% -> 4%/1%.
  ExposureSummary before_p = exposure_of(passwd_analysis());
  ExposureSummary after_p = exposure_of(passwd_ref_analysis());
  EXPECT_GT(before_p.any_attack, 0.6);
  EXPECT_LT(after_p.any_attack, 0.1);

  ExposureSummary before_s = exposure_of(su_analysis());
  ExposureSummary after_s = exposure_of(su_ref_analysis());
  EXPECT_GT(before_s.any_attack, 0.8);
  EXPECT_LT(after_s.any_attack, 0.1);
}

TEST(Pipeline, AutoPrivReportsRemovals) {
  const ProgramAnalysis& a = passwd_analysis();
  EXPECT_TRUE(a.autopriv_report.stats.prctl_inserted);
  EXPECT_GT(a.autopriv_report.stats.removes_inserted, 2);
  EXPECT_FALSE(
      a.autopriv_report.stats.removed_at_entry.contains(Capability::Setuid));
  EXPECT_TRUE(
      a.autopriv_report.stats.removed_at_entry.contains(Capability::SysAdmin));
}

TEST(Pipeline, RendersTables) {
  std::string t1 = render_attack_table();
  EXPECT_NE(t1.find("/dev/mem"), std::string::npos);

  std::vector<ProgramAnalysis> analyses = {passwd_analysis()};
  std::string t3 = render_efficacy_table(analyses, "Table III (excerpt)");
  EXPECT_NE(t3.find("passwd_priv1"), std::string::npos);
  EXPECT_NE(t3.find("CapSetuid"), std::string::npos);

  std::string t4 = render_refactor_diff_table();
  EXPECT_NE(t4.find("passwd"), std::string::npos);

  std::string t2 = render_program_table({programs::make_ping()});
  EXPECT_NE(t2.find("ping"), std::string::npos);
}

// PipelineOptions::attacker reaches both matrices: the baseline is what
// per-epoch analyze_epoch calls on FixedArgs inputs give, and the filtered
// matrix, whose attacker is the same one with fewer syscalls, never scores
// an attack above the baseline.
TEST(Pipeline, AttackerOptionReachesBothMatrices) {
  PipelineOptions opts = fast_options();
  opts.attacker = rosa::AttackerModel::FixedArgs;
  opts.filters = FilterMode::Report;
  const programs::ProgramSpec spec = programs::make_su();
  const ProgramAnalysis a = analyze_program(spec, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.verdicts.size(), a.chrono.rows.size());
  ASSERT_EQ(a.filtered_verdicts.size(), a.chrono.rows.size());
  const std::vector<std::string> syscalls = spec.syscalls_used();
  for (std::size_t e = 0; e < a.chrono.rows.size(); ++e) {
    SCOPED_TRACE(a.chrono.rows[e].name);
    attacks::ScenarioInput in = attacks::scenario_from_epoch(
        a.chrono.rows[e], syscalls, spec.scenario_extra_users,
        spec.scenario_extra_groups);
    in.attacker = rosa::AttackerModel::FixedArgs;
    const attacks::EpochVerdicts ref =
        attacks::analyze_epoch(a.chrono.rows[e], in, opts.rosa_limits);
    EXPECT_EQ(a.verdicts[e].verdicts, ref.verdicts);
  }
  for (std::size_t atk = 0; atk < attacks::modeled_attacks().size(); ++atk)
    EXPECT_LE(a.filtered_vulnerable_fraction(atk), a.vulnerable_fraction(atk))
        << attacks::modeled_attacks()[atk].name;
  // su's first attack needs a wildcard setuid target, which FixedArgs
  // forbids: the Full-attacker baseline is strictly worse.
  EXPECT_LT(a.vulnerable_fraction(0), su_analysis().vulnerable_fraction(0));
}

// --stats covers every query the analysis ran: with filters on, the
// aggregate sums the filtered matrix too, and the Queries column counts
// both matrices (su: 6 epochs × 4 attacks × 2).
TEST(Pipeline, SearchStatsCoverBothMatrices) {
  PipelineOptions opts = fast_options();
  opts.filters = FilterMode::Report;
  const ProgramAnalysis a = analyze_program(programs::make_su(), opts);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a.filtered_verdicts.size(), a.verdicts.size());
  std::size_t states = 0;
  for (const auto* matrix : {&a.verdicts, &a.filtered_verdicts})
    for (const attacks::EpochVerdicts& ev : *matrix)
      for (const rosa::SearchResult& r : ev.results) states += r.stats.states;
  EXPECT_EQ(a.search_stats().states, states);

  const std::string table = render_search_stats({a});
  const std::size_t row = table.find("\n  su ");
  ASSERT_NE(row, std::string::npos) << table;
  std::istringstream fields(table.substr(row));
  std::string program, queries;
  fields >> program >> queries;
  EXPECT_EQ(queries, "48") << table;
}

// Both matrices share one exploration: a filtered query is its baseline
// query with a narrower message mask, decided in the baseline's fused
// group, so with filters on the union states the batch's explorations
// materialize, summed over both matrices, equal the filters-off count.
// The may-reach prover leaves some epochs one unproved cell without
// filters and two with them, so each exploration is counted the same way
// whatever its group size: a group of two or more charges its node count
// to its first member's fused_world_states; a lone search charges nothing
// there, and its own `states` also count the goal child its probe decided
// it on without committing it (a non-empty witness). A searched cell is
// one that missed the cache, so each analysis gets a fresh instance.
// Pinned counts, not a speed claim.
TEST(Pipeline, FilteredMatrixAddsNoUnionStatesOnRefactoredPrograms) {
  auto union_states = [](const ProgramAnalysis& a) {
    std::size_t total = 0;
    for (const auto* matrix : {&a.verdicts, &a.filtered_verdicts})
      for (const attacks::EpochVerdicts& ev : *matrix)
        for (const rosa::SearchResult& r : ev.results) {
          if (r.stats.fused_group_size > 0)
            total += r.stats.fused_world_states;
          else if (r.stats.cache_misses > 0)
            total += r.stats.states - (r.witness.empty() ? 0 : 1);
        }
    return total;
  };
  struct Case {
    programs::ProgramSpec spec;
    std::size_t filters_off_union_states;
  };
  const Case cases[] = {{programs::make_passwd_refactored(), 161},
                        {programs::make_su_refactored(), 895},
                        {programs::make_sshd_refactored(), 641}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec.name);
    PipelineOptions opts = fast_options();
    opts.rosa_cache_instance = std::make_shared<rosa::QueryCache>();
    EXPECT_EQ(union_states(analyze_program(c.spec, opts)),
              c.filters_off_union_states);
    opts.filters = FilterMode::Report;
    opts.rosa_cache_instance = std::make_shared<rosa::QueryCache>();
    const ProgramAnalysis filtered = analyze_program(c.spec, opts);
    ASSERT_EQ(filtered.filtered_verdicts.size(), filtered.chrono.rows.size());
    EXPECT_EQ(union_states(filtered), c.filters_off_union_states);
  }
}

// `privanalyzer --print-ir` prints transformed_module, analyze_program's
// stage 1, so under --simplify it shows the folded module ChronoPriv runs.
TEST(Pipeline, TransformedModuleIsTheOneTheAnalysisRuns) {
  const programs::ProgramSpec spec = load_program(
      "; !name: fold\nfunc @main(0) {\nentry:\n  %0 = add 1, 2\n"
      "  ret %0\n}\n",
      "fold");
  PipelineOptions opts;
  opts.run_rosa = false;
  EXPECT_NE(ir::print(transformed_module(spec, opts)).find("add 1, 2"),
            std::string::npos);
  opts.simplify_after_autopriv = true;
  autopriv::StaticReport report;
  const std::string simplified =
      ir::print(transformed_module(spec, opts, &report));
  EXPECT_NE(simplified.find("mov 3"), std::string::npos) << simplified;
  EXPECT_EQ(simplified.find("add"), std::string::npos) << simplified;
  const ProgramAnalysis a = analyze_program(spec, opts);
  EXPECT_EQ(report.to_string(), a.autopriv_report.to_string());
  EXPECT_EQ(a.exit_code, 3);
}

TEST(Pipeline, ChronoOnlySkipsRosa) {
  PipelineOptions opts;
  opts.run_rosa = false;
  ProgramAnalysis a = analyze_program(programs::make_ping(), opts);
  EXPECT_TRUE(a.verdicts.empty());
  EXPECT_FALSE(a.chrono.rows.empty());
}

}  // namespace
}  // namespace pa::privanalyzer
