// Shared fixtures for the ROSA differential test suites: the Table-III golden
// matrix (query construction, limits, rendered line format, golden loader),
// the paper programs' epoch inputs, the small handmade open-file queries
// with deterministic budgets, the seeded random state generator, and the
// goal-probe contract between the search loop and the probe-free
// reference. The repr-diff, cache, parallel-diff, and fused-diff suites
// all compare engines against the same seed capture, so the fixture lives
// once here — a drift between two copies of build_matrix() would silently
// weaken the differential guarantee.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/scenario.h"
#include "privanalyzer/efficacy.h"
#include "rosa/fingerprint.h"
#include "rosa/query.h"
#include "rosa/search.h"
#include "support/str.h"

namespace pa::rosa_test {

// --- Table-III golden matrix (seed capture in tests/golden/) ----------------

struct Golden {
  std::vector<std::string> qlines;     // normalized "q fp verdict ..." lines
  std::vector<std::string> fractions;  // normalized "f program v v v v" lines
};

// Collapse runs of spaces and drop the trailing "# label" comment so lines
// compare on content only.
inline std::string normalize(const std::string& line) {
  std::istringstream in(line);
  std::string tok, out;
  while (in >> tok) {
    if (tok == "#") break;
    if (!out.empty()) out += ' ';
    out += tok;
  }
  return out;
}

inline Golden load_golden() {
  const std::string path =
      std::string(PA_SOURCE_DIR) + "/tests/golden/rosa_table3_seed.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  Golden g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("q ", 0) == 0) g.qlines.push_back(normalize(line));
    if (line.rfind("f ", 0) == 0) g.fractions.push_back(normalize(line));
  }
  return g;
}

struct Matrix {
  std::vector<rosa::Query> queries;
  std::vector<std::string> labels;
};

// The exact construction the seed capture used: every (program, epoch,
// attack) cell of Table III.
inline Matrix build_matrix() {
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(chrono_only);
  std::vector<programs::ProgramSpec> specs =
      programs::all_baseline_programs();

  Matrix m;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const auto syscalls = specs[p].syscalls_used();
    for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
      attacks::ScenarioInput in = attacks::scenario_from_epoch(
          row, syscalls, specs[p].scenario_extra_users,
          specs[p].scenario_extra_groups);
      for (const attacks::AttackInfo& a : attacks::modeled_attacks()) {
        m.queries.push_back(attacks::build_attack_query(a.id, in));
        m.labels.push_back(
            str::cat(specs[p].name, "/", row.name, "/", a.name));
      }
    }
  }
  return m;
}

inline rosa::SearchLimits table3_limits() {
  rosa::SearchLimits limits;
  limits.max_states = 1'000'000;
  limits.check_hashes = true;  // pin incremental digests to full_hash()
  return limits;
}

/// The 8 paper programs: Table II and the three refactorings.
inline std::vector<programs::ProgramSpec> paper_programs() {
  std::vector<programs::ProgramSpec> specs = programs::all_baseline_programs();
  specs.push_back(programs::make_passwd_refactored());
  specs.push_back(programs::make_su_refactored());
  specs.push_back(programs::make_sshd_refactored());
  return specs;
}

/// One epoch of a paper program as attacks::analyze_epochs poses it: its
/// scenario input under one attacker model, and its conservative allowlist.
struct EpochInput {
  std::string label;  // program/epoch/attacker
  attacks::ScenarioInput input;
  std::set<std::string> allowlist;
};

/// Every epoch of the eight paper programs under each attacker model (Full,
/// CfiOrdered, FixedArgs), with the allowlists filters = report
/// synthesizes. ROSA does not run.
inline std::vector<EpochInput> paper_epoch_inputs() {
  std::vector<EpochInput> out;
  for (const programs::ProgramSpec& spec : paper_programs()) {
    privanalyzer::PipelineOptions opts;
    opts.run_rosa = false;
    opts.filters = privanalyzer::FilterMode::Report;
    const privanalyzer::ProgramAnalysis a =
        privanalyzer::analyze_program(spec, opts);
    EXPECT_TRUE(a.ok()) << spec.name;
    EXPECT_EQ(a.filter_report.epochs.size(), a.chrono.rows.size())
        << spec.name;
    for (rosa::AttackerModel model :
         {rosa::AttackerModel::Full, rosa::AttackerModel::CfiOrdered,
          rosa::AttackerModel::FixedArgs})
      for (std::size_t e = 0; e < a.chrono.rows.size() &&
                              e < a.filter_report.epochs.size();
           ++e) {
        const chronopriv::EpochRow& row = a.chrono.rows[e];
        EpochInput in;
        in.label = str::cat(spec.name, "/", row.name, "/",
                            rosa::attacker_model_name(model));
        in.input = attacks::scenario_from_epoch(
            row, spec.syscalls_used(), spec.scenario_extra_users,
            spec.scenario_extra_groups);
        in.input.attacker = model;
        in.allowlist = a.filter_report.epochs[e].conservative;
        out.push_back(std::move(in));
      }
  }
  return out;
}

// The golden line format. hash_collisions and byte counters are deliberately
// excluded: which distinct states share a 64-bit key is a property of the
// hash function, and byte accounting is a property of the node layout — the
// golden pins the model, not the implementation.
inline std::string render_line(const rosa::Query& q,
                               const rosa::SearchResult& r,
                               const rosa::SearchLimits& limits) {
  const auto fp = rosa::fingerprint_query(q, limits);
  std::string line = str::cat(
      "q ", fp ? fp->to_hex() : std::string("uncacheable"), " ",
      rosa::verdict_name(r.verdict), " ", r.stats.states, " ",
      r.stats.transitions, " ", r.stats.dedup_hits, " ",
      r.stats.peak_frontier, " ", r.witness.size());
  for (const rosa::Action& a : r.witness)
    line += str::cat(" ", a.to_string());
  return line;
}

// --- Small handmade search problems ----------------------------------------

// A tiny but non-trivial search problem: proc 1 (uid 1000) may open each of
// `n_files` files it owns, so the reachable space is the 2^n_files subsets
// of open files — big enough to exercise budgets deterministically.
inline rosa::Query open_query(int n_files, int mode_bits, rosa::Goal goal) {
  rosa::Query q;
  rosa::ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  for (int f = 0; f < n_files; ++f) {
    q.initial.files.push_back(
        rosa::FileObj{2 + f, {1000, 1000, os::Mode(mode_bits)}});
    q.initial.set_name(2 + f, "f");
  }
  q.initial.set_users({1000});
  q.initial.set_groups({1000});
  q.initial.normalize();
  for (int f = 0; f < n_files; ++f)
    q.messages.push_back(rosa::msg_open(1, 2 + f, rosa::kAccRead, {}));
  q.goal = std::move(goal);
  return q;
}

inline rosa::Query reachable_query() {
  return open_query(2, 0600, rosa::goal_file_in_rdfset(1, 3));
}
inline rosa::Query unreachable_query(int n_files = 2) {
  return open_query(n_files, 0600, rosa::goal_proc_terminated(1));
}

inline rosa::SearchLimits states_budget(std::size_t n) {
  rosa::SearchLimits lim;
  lim.max_states = n;
  return lim;
}

inline void expect_same_witness(const rosa::SearchResult& a,
                                const rosa::SearchResult& b) {
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (std::size_t i = 0; i < a.witness.size(); ++i)
    EXPECT_EQ(a.witness[i].to_string(), b.witness[i].to_string());
}

/// Everything except wall time and the cache counters must agree.
inline void expect_same_work(const rosa::SearchResult& a,
                             const rosa::SearchResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.states_explored(), b.states_explored());
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_EQ(a.stats.states, b.stats.states);
  EXPECT_EQ(a.stats.transitions, b.stats.transitions);
  EXPECT_EQ(a.stats.dedup_hits, b.stats.dedup_hits);
  EXPECT_EQ(a.stats.hash_collisions, b.stats.hash_collisions);
  EXPECT_EQ(a.stats.peak_frontier, b.stats.peak_frontier);
  expect_same_witness(a, b);
}

/// The goal-probe contract between the search loop, which probes each BFS
/// layer for goal children (rosa::detail::search_fused), and the probe-free
/// reference loop (tests/reference_search.h): `got` and `ref` are their
/// results for `q` under `limits`. An Unreachable or ResourceLimit
/// reference is matched by `exact` (every counter). A Reachable reference
/// must come back Reachable with the identical witness and no more states
/// or transitions. A ResourceLimit reference may come back Reachable, since
/// the probe decides at the layer boundary before the budget trips, and
/// then only with the witness `reference` (the probe-free search function)
/// finds without budgets, and again with no more work.
template <typename Exact, typename Reference>
void expect_probe_contract(const rosa::SearchResult& ref,
                           const rosa::SearchResult& got, const rosa::Query& q,
                           const rosa::SearchLimits& limits, Exact&& exact,
                           Reference&& reference) {
  const bool limit_to_reachable =
      ref.verdict == rosa::Verdict::ResourceLimit &&
      got.verdict == rosa::Verdict::Reachable;
  if (ref.verdict != rosa::Verdict::Reachable && !limit_to_reachable) {
    exact(ref, got);
    return;
  }
  ASSERT_EQ(got.verdict, rosa::Verdict::Reachable);
  EXPECT_LE(got.stats.states, ref.stats.states);
  EXPECT_LE(got.stats.transitions, ref.stats.transitions);
  if (!limit_to_reachable) {
    expect_same_witness(ref, got);
    return;
  }
  rosa::SearchLimits unlimited = limits;
  unlimited.max_states = 0;
  unlimited.max_bytes = 0;
  const rosa::SearchResult full = reference(q, unlimited);
  ASSERT_EQ(full.verdict, rosa::Verdict::Reachable);
  expect_same_witness(full, got);
}

/// A probed goal is decided at the boundary of the layer its witness's last
/// step leaves from: its states, transitions, dedup hits and peak frontier
/// are those of `reference` (a probe-free search function) searching `q`
/// under `limits` for any state one step deeper than that layer, which
/// stops at the first such state it commits. Goals the probe cannot decide
/// (undeclared, or decided at the root) are not checked.
template <typename Reference>
void expect_decided_at_layer_boundary(const rosa::Query& q,
                                      const rosa::SearchLimits& limits,
                                      const rosa::SearchResult& got,
                                      Reference&& reference) {
  if (got.verdict != rosa::Verdict::Reachable || got.witness.empty() ||
      !q.goal.enabling())
    return;
  const std::size_t depth = got.witness.size();
  const std::uint64_t all =
      q.messages.size() == 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << q.messages.size()) - 1;
  rosa::Query deeper = q;
  deeper.goal = [depth, all](const rosa::State& st) {
    return static_cast<std::size_t>(
               std::popcount(all & ~st.msgs_remaining())) >= depth;
  };
  const rosa::SearchResult boundary = reference(deeper, limits);
  ASSERT_EQ(boundary.verdict, rosa::Verdict::Reachable);
  EXPECT_EQ(got.stats.states, boundary.stats.states);
  EXPECT_EQ(got.stats.transitions, boundary.stats.transitions);
  EXPECT_EQ(got.stats.dedup_hits, boundary.stats.dedup_hits);
  EXPECT_EQ(got.stats.peak_frontier, boundary.stats.peak_frontier);
}

// --- Random states (seeded, deterministic) ----------------------------------

inline rosa::State random_state(std::mt19937& rng) {
  using namespace rosa;
  State st;
  const int ids[] = {0, 10, 998, 1000, 1001};
  auto id = [&] { return ids[rng() % 5]; };

  int nprocs = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < nprocs; ++i) {
    ProcObj p;
    p.id = 1 + i;
    p.uid = {id(), id(), id()};
    p.gid = {id(), id(), id()};
    p.running = rng() % 4 != 0;
    if (rng() % 2) p.supplementary.push_back(id());
    if (rng() % 2) p.rdfset.insert(10 + static_cast<int>(rng() % 3));
    if (rng() % 2) p.wrfset.insert(10 + static_cast<int>(rng() % 3));
    st.procs.push_back(p);
  }
  const std::uint16_t modes[] = {0600, 0640, 0644, 0666, 0000, 0444, 0755};
  int nfiles = static_cast<int>(rng() % 4);
  for (int i = 0; i < nfiles; ++i) {
    st.files.push_back(
        FileObj{10 + i, {id(), id(), os::Mode(modes[rng() % 7])}});
    st.set_name(10 + i, "f" + std::to_string(i));
  }
  int ndirs = static_cast<int>(rng() % 3);
  for (int i = 0; i < ndirs; ++i) {
    st.dirs.push_back(DirObj{20 + i,
                             {id(), id(), os::Mode(modes[rng() % 7])},
                             rng() % 2 ? 10 + i : -1});
    st.set_name(20 + i, "d" + std::to_string(i));
  }
  if (rng() % 2)
    st.socks.push_back(SockObj{30, 1, rng() % 2 ? 80 : -1});
  st.set_users({0, 1000});
  st.set_groups({0, 1000});
  st.set_msgs_remaining(rng() % 256);
  st.normalize();
  return st;
}

}  // namespace pa::rosa_test
