// Shared fixtures for the ROSA differential test suites: the Table-III golden
// matrix (query construction, limits, rendered line format, golden loader)
// and the small handmade open-file queries with deterministic budgets. The
// repr-diff, cache, parallel-diff, and fused-diff suites all compare
// engines against the same seed capture, so the fixture lives once
// here — a drift between two copies of build_matrix() would silently weaken
// the differential guarantee.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
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
  EXPECT_EQ(a.stats.escalations, b.stats.escalations);
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (std::size_t i = 0; i < a.witness.size(); ++i)
    EXPECT_EQ(a.witness[i].to_string(), b.witness[i].to_string());
}

}  // namespace pa::rosa_test
