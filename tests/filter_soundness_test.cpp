// Soundness gate for EpochFilter enforcement (src/filters + os::Kernel
// filter stack): under conservative per-epoch syscall allowlists, every
// legitimate execution must complete bit-identically to a filters-off run —
// same epoch table, same exit code, same baseline verdict matrix, same
// witnesses, same vulnerable fractions — at --rosa-threads 1 and 4, over
// all Table-II programs, the shipped examples, the lint fixtures, and a
// small randomized corpus. Also pins the structural filter invariants:
// refined ⊆ conservative per epoch, allowlists ⊆ the program's syscall
// surface, at least one strictly reduced epoch on Table II, and the
// satellite regression that a syscall reachable ONLY through a registered
// signal handler stays in every epoch's filter (literal and
// register-passed handler operands).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ir/builder.h"
#include "privanalyzer/loader.h"
#include "privanalyzer/pipeline.h"
#include "programs/world.h"

namespace pa::privanalyzer {
namespace {

using attacks::EpochVerdicts;

PipelineOptions make_options(FilterMode mode, unsigned rosa_threads,
                             bool run_rosa) {
  PipelineOptions opts;
  opts.rosa_limits.max_states = 150'000;
  opts.rosa_threads = rosa_threads;
  opts.run_rosa = run_rosa;
  opts.filters = mode;
  return opts;
}

/// The soundness contract: everything the filters-off run produced must be
/// reproduced exactly by the filters-on run, and enforcement must never
/// have fired.
void expect_baseline_identical(const ProgramAnalysis& off,
                               const ProgramAnalysis& on) {
  EXPECT_EQ(off.program, on.program);
  EXPECT_EQ(off.status, on.status);
  EXPECT_EQ(off.exit_code, on.exit_code);
  EXPECT_EQ(off.chrono.to_string(), on.chrono.to_string());
  EXPECT_EQ(on.filter_violations, 0);
  ASSERT_EQ(off.verdicts.size(), on.verdicts.size());
  for (std::size_t e = 0; e < off.verdicts.size(); ++e) {
    const EpochVerdicts& a = off.verdicts[e];
    const EpochVerdicts& b = on.verdicts[e];
    EXPECT_EQ(a.epoch_name, b.epoch_name);
    for (std::size_t k = 0; k < a.verdicts.size(); ++k) {
      SCOPED_TRACE(off.program + "/" + a.epoch_name + "/attack" +
                   std::to_string(k + 1));
      EXPECT_EQ(a.verdicts[k], b.verdicts[k]);
      ASSERT_EQ(a.results[k].witness.size(), b.results[k].witness.size());
      for (std::size_t w = 0; w < a.results[k].witness.size(); ++w)
        EXPECT_EQ(a.results[k].witness[w].to_string(),
                  b.results[k].witness[w].to_string());
    }
  }
  for (std::size_t k = 0; k < attacks::modeled_attacks().size(); ++k)
    EXPECT_EQ(off.vulnerable_fraction(k), on.vulnerable_fraction(k))
        << off.program << " attack " << k + 1;
}

/// Structural invariants of a synthesized report: one filter per epoch,
/// refined ⊆ conservative, and both within the program's syscall surface.
void expect_filter_invariants(const ProgramAnalysis& a) {
  ASSERT_FALSE(a.filter_report.empty()) << a.program;
  ASSERT_EQ(a.filter_report.epochs.size(), a.chrono.rows.size());
  const std::set<std::string>& surface = a.filter_report.program_syscalls;
  for (const filters::EpochFilter& e : a.filter_report.epochs) {
    SCOPED_TRACE(a.program + "/" + e.epoch);
    EXPECT_TRUE(std::includes(e.conservative.begin(), e.conservative.end(),
                              e.refined.begin(), e.refined.end()))
        << "refined set is not a subset of the conservative set";
    EXPECT_TRUE(std::includes(surface.begin(), surface.end(),
                              e.conservative.begin(), e.conservative.end()))
        << "conservative set escapes the program's syscall surface";
  }
}

// ---------------------------------------------------------------------------
// Table II: the full differential at both ROSA worker counts (4 runs the
// fused groups and the verdict cache across pool workers), report
// and enforce, plus the acceptance bar that filtering strictly reduces at
// least one epoch's surface somewhere in the batch.

class TableTwoSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(TableTwoSoundness, EnforcedFiltersAreANoOpForLegitimateRuns) {
  const unsigned rosa_threads = GetParam();
  bool any_reduced = false;
  for (const programs::ProgramSpec& spec : programs::all_baseline_programs()) {
    SCOPED_TRACE(spec.name);
    ProgramAnalysis off = analyze_program(
        spec, make_options(FilterMode::Off, rosa_threads, true));
    ProgramAnalysis enforced = analyze_program(
        spec, make_options(FilterMode::Enforce, rosa_threads, true));
    expect_baseline_identical(off, enforced);
    expect_filter_invariants(enforced);
    if (enforced.filter_report.reduced_epochs() > 0) any_reduced = true;

    // The filtered matrix only ever shrinks reachability: an attacker with
    // a subset of the syscalls cannot reach a goal the full attacker
    // provably could not (Timeout cells are incomparable and skipped).
    ASSERT_EQ(enforced.filtered_verdicts.size(), enforced.verdicts.size());
    for (std::size_t e = 0; e < enforced.verdicts.size(); ++e)
      for (std::size_t k = 0; k < enforced.verdicts[e].verdicts.size(); ++k) {
        const attacks::CellVerdict base = enforced.verdicts[e].verdicts[k];
        const attacks::CellVerdict filt =
            enforced.filtered_verdicts[e].verdicts[k];
        if (base == attacks::CellVerdict::Timeout ||
            filt == attacks::CellVerdict::Timeout)
          continue;
        EXPECT_FALSE(base == attacks::CellVerdict::Safe &&
                     filt == attacks::CellVerdict::Vulnerable)
            << spec.name << "/" << enforced.verdicts[e].epoch_name
            << "/attack" << k + 1;
      }
  }
  EXPECT_TRUE(any_reduced)
      << "no Table-II epoch had a strictly reduced syscall surface";
}

INSTANTIATE_TEST_SUITE_P(SearchThreads, TableTwoSoundness,
                         ::testing::Values(1u, 4u));

TEST(FilterModeTest, ReportAndEnforceAgreeOnTheReport) {
  // Report mode must synthesize exactly the sets Enforce installs — the
  // enforced run is deterministic-identical to the measurement run.
  programs::ProgramSpec spec = programs::make_passwd();
  ProgramAnalysis report =
      analyze_program(spec, make_options(FilterMode::Report, 1, true));
  ProgramAnalysis enforce =
      analyze_program(spec, make_options(FilterMode::Enforce, 1, true));
  ASSERT_EQ(report.filter_report.epochs.size(),
            enforce.filter_report.epochs.size());
  for (std::size_t e = 0; e < report.filter_report.epochs.size(); ++e) {
    EXPECT_EQ(report.filter_report.epochs[e].conservative,
              enforce.filter_report.epochs[e].conservative);
    EXPECT_EQ(report.filter_report.epochs[e].refined,
              enforce.filter_report.epochs[e].refined);
  }
  EXPECT_EQ(filters::filters_to_json(report.filter_report),
            filters::filters_to_json(enforce.filter_report));
}

TEST(FilterModeTest, KillActionIsAlsoANoOpForLegitimateRuns) {
  // Kill semantics only differ when a filter actually denies a syscall;
  // sound conservative filters never do, so the run is still identical.
  programs::ProgramSpec spec = programs::make_sshd();
  PipelineOptions kill_opts = make_options(FilterMode::Enforce, 1, false);
  kill_opts.filter_action = os::FilterAction::Kill;
  ProgramAnalysis off =
      analyze_program(spec, make_options(FilterMode::Off, 1, false));
  ProgramAnalysis killed = analyze_program(spec, kill_opts);
  EXPECT_EQ(off.chrono.to_string(), killed.chrono.to_string());
  EXPECT_EQ(off.exit_code, killed.exit_code);
  EXPECT_EQ(killed.filter_violations, 0);
}

// ---------------------------------------------------------------------------
// Shipped examples + lint fixtures: ChronoPriv-only differential (the lint
// fixtures include programs that fail at runtime — both modes must fail
// identically).

TEST(ExampleSoundnessTest, ExamplesAndFixturesRunIdenticallyUnderFilters) {
  for (const char* rel :
       {"/examples/programs/tinyd.pir", "/examples/programs/filesrv.pc",
        "/examples/programs/su.pc", "/examples/lint/redundant_remove.pir",
        "/examples/lint/never_raised.pir", "/examples/lint/raise_no_lower.pir",
        "/examples/lint/unreachable.pir", "/examples/lint/empty_targets.pir",
        "/examples/lint/unused_epoch.pir",
        "/examples/lint/overbroad_syscalls.pir"}) {
    SCOPED_TRACE(rel);
    const std::string path = std::string(PA_SOURCE_DIR) + rel;
    ProgramAnalysis off =
        try_analyze_file(path, make_options(FilterMode::Off, 1, false));
    ProgramAnalysis enforced =
        try_analyze_file(path, make_options(FilterMode::Enforce, 1, false));
    EXPECT_EQ(off.status, enforced.status);
    EXPECT_EQ(off.exit_code, enforced.exit_code);
    EXPECT_EQ(off.chrono.to_string(), enforced.chrono.to_string());
    EXPECT_EQ(enforced.filter_violations, 0);
    if (enforced.ok()) expect_filter_invariants(enforced);
  }
}

// ---------------------------------------------------------------------------
// Randomized corpus: small straight-line-ish modules over known syscalls;
// the differential must hold for shapes nobody hand-picked.

programs::ProgramSpec random_spec(unsigned seed) {
  std::mt19937 rng(seed);
  auto coin = [&] { return rng() % 2 == 0; };
  ir::Module m("fuzz" + std::to_string(seed));
  ir::IRBuilder b(m);
  using B = ir::IRBuilder;

  b.begin_function("helper", 0);
  if (coin()) b.syscall("getuid", {});
  if (coin()) {
    b.priv_raise({caps::Capability::DacReadSearch});
    b.syscall("open", {B::s("/etc/shadow"), B::i(1)});
    b.priv_lower({caps::Capability::DacReadSearch});
  }
  b.ret(B::i(0));
  b.end_function();

  b.begin_function("main", 0);
  int blocks = 1 + static_cast<int>(rng() % 3);
  for (int bi = 0; bi < blocks; ++bi) {
    if (coin()) b.syscall("open", {B::s("/f" + std::to_string(rng() % 3)),
                                   B::i(1)});
    if (coin()) b.call("helper", {});
    if (coin()) {
      b.priv_raise({caps::Capability::Setuid});
      if (coin()) b.syscall("geteuid", {});
      b.priv_lower({caps::Capability::Setuid});
    }
    std::string next = "blk" + std::to_string(bi);
    b.br(next);
    b.at(next);
  }
  b.exit(B::i(static_cast<int>(rng() % 3)));
  b.end_function();
  m.recompute_address_taken();

  programs::ProgramSpec spec;
  spec.name = m.name();
  spec.module = std::move(m);
  spec.launch_permitted = {caps::Capability::Setuid,
                           caps::Capability::DacReadSearch};
  spec.launch_creds = caps::Credentials::of_user(1000, 1000);
  return spec;
}

class FuzzSoundness : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzSoundness, RandomProgramsRunIdenticallyUnderEnforcedFilters) {
  programs::ProgramSpec spec = random_spec(GetParam());
  ProgramAnalysis off =
      try_analyze_program(spec, make_options(FilterMode::Off, 1, false));
  ProgramAnalysis enforced =
      try_analyze_program(spec, make_options(FilterMode::Enforce, 1, false));
  EXPECT_EQ(off.status, enforced.status);
  EXPECT_EQ(off.exit_code, enforced.exit_code);
  EXPECT_EQ(off.chrono.to_string(), enforced.chrono.to_string());
  EXPECT_EQ(enforced.filter_violations, 0);
  if (enforced.ok()) expect_filter_invariants(enforced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSoundness, ::testing::Range(0u, 12u));

// ---------------------------------------------------------------------------
// Satellite regression: a syscall reachable ONLY through a registered
// signal handler must stay in every epoch's filter — for a handler passed
// as a literal @func operand and for one passed through a register.

void expect_handler_syscall_in_every_epoch(const std::string& text) {
  programs::ProgramSpec spec = load_program(text);
  ProgramAnalysis a =
      analyze_program(spec, make_options(FilterMode::Report, 1, false));
  ASSERT_FALSE(a.filter_report.empty());
  for (const filters::EpochFilter& e : a.filter_report.epochs) {
    SCOPED_TRACE(e.epoch);
    EXPECT_TRUE(e.conservative.count("kill"))
        << "handler-only syscall dropped from the conservative filter";
    EXPECT_TRUE(e.refined.count("kill"))
        << "handler-only syscall dropped from the refined filter";
  }
}

TEST(HandlerRootTest, LiteralHandlerOperandKeepsItsSyscallsInTheFilter) {
  expect_handler_syscall_in_every_epoch(
      "; !name: handler_literal\n"
      "; !permitted: CapKill\n"
      "; !uid: 1000\n"
      "; !gid: 1000\n"
      "func @on_term(1) {\n"
      "entry:\n"
      "  %1 = syscall kill(7, 15)\n"
      "  ret 0\n"
      "}\n"
      "func @main(0) {\n"
      "entry:\n"
      "  %0 = syscall signal(5, @on_term)\n"
      "  %1 = syscall getuid()\n"
      "  exit 0\n"
      "}\n");
}

TEST(HandlerRootTest, RegisterPassedHandlerKeepsItsSyscallsInTheFilter) {
  expect_handler_syscall_in_every_epoch(
      "; !name: handler_reg\n"
      "; !permitted: CapKill\n"
      "; !uid: 1000\n"
      "; !gid: 1000\n"
      "func @on_term(1) {\n"
      "entry:\n"
      "  %1 = syscall kill(7, 15)\n"
      "  ret 0\n"
      "}\n"
      "func @main(0) {\n"
      "entry:\n"
      "  %0 = funcaddr @on_term\n"
      "  %1 = syscall signal(5, %0)\n"
      "  %2 = syscall getuid()\n"
      "  exit 0\n"
      "}\n");
}

}  // namespace
}  // namespace pa::privanalyzer
