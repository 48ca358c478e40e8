// Tests for the CSV / Markdown exporters plus full-pipeline integration for
// the two Table III programs not already covered end-to-end (thttpd, sshd).
#include <gtest/gtest.h>

#include <algorithm>

#include "privanalyzer/export.h"
#include "privanalyzer/render.h"
#include "support/str.h"

namespace pa::privanalyzer {
namespace {

using attacks::CellVerdict;
using caps::Capability;

ProgramAnalysis tiny_analysis() {
  ProgramAnalysis a;
  a.program = "demo";
  a.chrono.program = "demo";
  a.chrono.total_instructions = 100;
  chronopriv::EpochRow r1;
  r1.name = "demo_priv1";
  r1.key.permitted = {Capability::Setuid, Capability::Chown};
  r1.key.creds = caps::Credentials::of_user(1000, 1000);
  r1.instructions = 60;
  r1.fraction = 0.6;
  chronopriv::EpochRow r2;
  r2.name = "demo_priv2";
  r2.key.creds = caps::Credentials::of_user(0, 1000);
  r2.instructions = 40;
  r2.fraction = 0.4;
  a.chrono.rows = {r1, r2};
  attacks::EpochVerdicts v1;
  v1.epoch_name = r1.name;
  v1.verdicts = {CellVerdict::Vulnerable, CellVerdict::Safe,
                 CellVerdict::Safe, CellVerdict::Timeout};
  attacks::EpochVerdicts v2;
  v2.epoch_name = r2.name;
  v2.verdicts = {CellVerdict::Safe, CellVerdict::Safe, CellVerdict::Safe,
                 CellVerdict::Safe};
  a.verdicts = {v1, v2};
  return a;
}

TEST(ExportTest, EpochCsvShape) {
  ProgramAnalysis a = tiny_analysis();
  std::string csv = epochs_to_csv(a.chrono);
  auto lines = str::split(csv, '\n');
  ASSERT_EQ(lines.size(), 3u);  // header + 2 rows
  EXPECT_TRUE(str::starts_with(lines[0], "program,epoch,permitted"));
  // Capability lists are quoted (they contain commas).
  EXPECT_NE(lines[1].find("\"CapChown,CapSetuid\""), std::string::npos);
  EXPECT_NE(lines[1].find(",60,"), std::string::npos);
  EXPECT_NE(lines[2].find(",0,"), std::string::npos);  // euid 0
}

TEST(ExportTest, EfficacyCsvCells) {
  std::string csv = efficacy_to_csv({tiny_analysis()});
  auto lines = str::split(csv, '\n');
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(lines[1].ends_with("V,x,x,T"));
  EXPECT_TRUE(lines[2].ends_with("x,x,x,x"));
}

TEST(ExportTest, MarkdownTable) {
  std::string md = efficacy_to_markdown({tiny_analysis()});
  EXPECT_NE(md.find("| demo_priv1 |"), std::string::npos);
  EXPECT_NE(md.find("✓"), std::string::npos);
  EXPECT_NE(md.find("✗"), std::string::npos);
  EXPECT_NE(md.find("⏳"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(md.find("|---|"), std::string::npos);
}

TEST(ExportTest, FiltersCsvAndJsonShape) {
  ProgramAnalysis a = tiny_analysis();
  // No filter report -> both exports degrade to empty containers.
  EXPECT_EQ(str::split(filters_to_csv({a}), '\n').size(), 1u);  // header only
  EXPECT_EQ(filters_to_json({a}), "[\n]\n");

  a.filter_report.program = "demo";
  a.filter_report.program_syscalls = {"open", "kill", "close"};
  filters::EpochFilter e1;
  e1.epoch = "demo_priv1";
  e1.conservative = {"open", "kill", "close"};
  e1.refined = {"open", "kill", "close"};
  filters::EpochFilter e2;
  e2.epoch = "demo_priv2";
  e2.conservative = {"close"};
  e2.refined = {"close"};
  a.filter_report.epochs = {e1, e2};
  a.filtered_verdicts = a.verdicts;
  a.filtered_verdicts[0].verdicts[0] = CellVerdict::Safe;

  std::string csv = filters_to_csv({a});
  auto lines = str::split(csv, '\n');
  ASSERT_EQ(lines.size(), 3u);  // header + one row per epoch
  EXPECT_TRUE(str::starts_with(lines[0], "program,epoch,conservative_size"));
  // priv1: full surface (3 of 3, not reduced), baseline VxxT filtered xxxT.
  EXPECT_NE(lines[1].find("\"demo_priv1\",3,3,3,0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"VxxT\",\"xxxT\""), std::string::npos);
  // priv2: reduced to 1 of 3.
  EXPECT_NE(lines[2].find("\"demo_priv2\",1,1,3,1"), std::string::npos);

  std::string json = filters_to_json({a});
  EXPECT_NE(json.find("\"program\":\"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"conservative\":[\"close\"]"), std::string::npos);
}

TEST(ExportTest, CsvQuotesEmbeddedQuotes) {
  ProgramAnalysis a = tiny_analysis();
  a.chrono.rows[0].name = "odd\"name";
  std::string csv = epochs_to_csv(a.chrono);
  EXPECT_NE(csv.find("\"odd\"\"name\""), std::string::npos);
}

TEST(ExportTest, SearchStatsCsvAndTableShape) {
  PipelineOptions opts;
  opts.rosa_limits.max_states = 500'000;
  ProgramAnalysis a = analyze_program(programs::make_ping(), opts);
  ASSERT_FALSE(a.verdicts.empty());
  ASSERT_EQ(a.verdicts[0].results.size(), attacks::modeled_attacks().size());

  std::string csv = search_stats_to_csv({a});
  auto lines = str::split(csv, '\n');
  // header + one row per (epoch, attack) cell.
  ASSERT_EQ(lines.size(),
            1 + a.verdicts.size() * attacks::modeled_attacks().size());
  EXPECT_TRUE(str::starts_with(lines[0], "program,epoch,attack,verdict"));
  // The prover, verdict-cache and fused-search counters ride along in the
  // export.
  EXPECT_NE(lines[0].find("proved,cache_hits,cache_misses,seconds"),
            std::string::npos);
  EXPECT_NE(lines[0].find("fused_group_size,fused_searches_saved,"
                          "fused_world_states"),
            std::string::npos);
  EXPECT_TRUE(str::starts_with(lines[1], "\"ping\",\"ping_priv1\","));
  // Each row carries the full column count (header commas == row commas).
  EXPECT_EQ(std::count(lines[1].begin(), lines[1].end(), ','),
            std::count(lines[0].begin(), lines[0].end(), ','));

  // Every one of ping's 12 cells is proved: nothing is searched, looked up
  // or stored.
  const rosa::SearchStats proved = a.search_stats();
  EXPECT_EQ(proved.proved, 12u);
  EXPECT_EQ(proved.states, 0u);
  EXPECT_EQ(proved.cache_hits + proved.cache_misses, 0u);

  // passwd still searches. The aggregate must mirror the per-cell legacy
  // counters. Default options give the matrix no cache to look anything up
  // in; with a shared instance it records at least one miss.
  ProgramAnalysis searched = analyze_program(programs::make_passwd(), opts);
  rosa::SearchStats agg = searched.search_stats();
  std::size_t states = 0;
  for (const auto& ev : searched.verdicts)
    for (const auto& r : ev.results) states += r.states_explored();
  EXPECT_EQ(agg.states, states);
  EXPECT_GT(agg.states, 0u);
  EXPECT_EQ(agg.cache_hits + agg.cache_misses, 0u);
  PipelineOptions shared = opts;
  shared.rosa_cache_instance = std::make_shared<rosa::QueryCache>();
  EXPECT_GT(analyze_program(programs::make_passwd(), shared)
                .search_stats()
                .cache_misses,
            0u);

  std::string table = render_search_stats({a});
  EXPECT_NE(table.find("ping"), std::string::npos);
  EXPECT_NE(table.find("Dedup"), std::string::npos);
  EXPECT_NE(table.find("PeakFront"), std::string::npos);
  EXPECT_NE(table.find("Proved"), std::string::npos);
  EXPECT_NE(table.find("Hits"), std::string::npos);
  EXPECT_NE(table.find("Miss"), std::string::npos);
}

// --- Full-pipeline integration for the remaining Table III programs -------

TEST(TableIIIRemaining, ThttpdVerdictsMatchPaper) {
  PipelineOptions opts;
  opts.rosa_limits.max_states = 500'000;
  ProgramAnalysis a = analyze_program(programs::make_thttpd(), opts);
  ASSERT_EQ(a.chrono.rows.size(), 5u);
  ASSERT_EQ(a.verdicts.size(), 5u);
  // priv1 (all 5 caps): everything feasible.
  for (CellVerdict v : a.verdicts[0].verdicts)
    EXPECT_EQ(v, CellVerdict::Vulnerable);
  // priv2 (Setgid,NetBind,SysChroot): V x V x — the kmem-group read plus
  // the privileged bind, nothing else.
  EXPECT_EQ(a.verdicts[1].verdicts[0], CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[1].verdicts[1], CellVerdict::Safe);
  EXPECT_EQ(a.verdicts[1].verdicts[2], CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[1].verdicts[3], CellVerdict::Safe);
  // priv5 (empty): all safe, >85% of execution.
  for (CellVerdict v : a.verdicts[4].verdicts)
    EXPECT_EQ(v, CellVerdict::Safe);
  EXPECT_GT(a.chrono.rows[4].fraction, 0.85);
  // Aggregate: safe for ~90% (paper: 90.16%).
  ExposureSummary s = exposure_of(a);
  EXPECT_NEAR(s.any_attack, 0.10, 0.03);
}

TEST(TableIIIRemaining, SshdRemainsVulnerableThroughout) {
  PipelineOptions opts;
  opts.rosa_limits.max_states = 500'000;
  ProgramAnalysis a = analyze_program(programs::make_sshd(), opts);
  ExposureSummary s = exposure_of(a);
  EXPECT_GT(s.devmem_read, 0.99);
  EXPECT_GT(s.devmem_write, 0.99);
  // Attack 3 (bind) only while CAP_NET_BIND_SERVICE is still permitted.
  double bind_fraction = a.vulnerable_fraction(2);
  EXPECT_GT(bind_fraction, 0.0);
  EXPECT_LT(bind_fraction, 0.01);
  // The big epoch (7 caps) is vulnerable to 1, 2, 4 but not 3.
  const auto& big = a.verdicts[1];
  EXPECT_EQ(big.verdicts[0], CellVerdict::Vulnerable);
  EXPECT_EQ(big.verdicts[1], CellVerdict::Vulnerable);
  EXPECT_EQ(big.verdicts[2], CellVerdict::Safe);
  EXPECT_EQ(big.verdicts[3], CellVerdict::Vulnerable);
}

TEST(TableIIIRemaining, RefactoredSshdExtensionIsClean) {
  PipelineOptions opts;
  opts.rosa_limits.max_states = 500'000;
  ProgramAnalysis a = analyze_program(programs::make_sshd_refactored(), opts);
  ExposureSummary s = exposure_of(a);
  EXPECT_LT(s.any_attack, 0.001);
}

}  // namespace
}  // namespace pa::privanalyzer
