// Differential tests for the search reduction (SearchLimits::reduction):
// symmetry canonicalization (rosa/canon.h) may only shrink the explored
// space — never change a verdict, a vulnerable fraction, or the validity of
// a witness.
//
//  * The full Table-III matrix runs reduced vs. the unreduced reference
//    engine through run_queries at 1 and 4 workers, cached and uncached:
//    identical verdicts everywhere, every Reachable witness replays on the
//    SimOS kernel, and the reduced engine never explores more states.
//  * The pipeline's headline vulnerable_fractions with reduction on must
//    match the seed goldens (which were captured unreduced).
//  * A permutation fuzz proves canonicalize() is a true orbit
//    representative: every consistent renaming of the free wildcard
//    identities lands on the same canonical state and digest.
//  * A pool-heavy workload (the BENCH_rosa reference config) pins the
//    headline win: >= 5x fewer states with bit-identical verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "rosa/cache.h"
#include "rosa/canon.h"
#include "rosa/replay.h"
#include "rosa_test_util.h"

namespace pa {
namespace {

using caps::Capability;
using rosa_test::Golden;
using rosa_test::Matrix;

rosa::SearchLimits reduced_limits() {
  rosa::SearchLimits limits = rosa_test::table3_limits();
  limits.reduction = true;
  return limits;
}

// n_threads = 4 runs the reduced fused groups and (cached) the cache's
// one lock across pool workers; the tsan CI leg runs this suite.
void expect_reduced_matches(unsigned n_threads, bool cached) {
  const Matrix m = rosa_test::build_matrix();
  const rosa::SearchLimits unreduced = rosa_test::table3_limits();
  const rosa::SearchLimits reduced = reduced_limits();

  std::vector<rosa::SearchResult> ref =
      rosa::run_queries(m.queries, unreduced, /*n_threads=*/1);
  rosa::QueryCache cache;
  std::vector<rosa::SearchResult> red = rosa::run_queries(
      m.queries, reduced, n_threads, {}, cached ? &cache : nullptr);

  ASSERT_EQ(ref.size(), red.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE(m.labels[i] + " threads=" + std::to_string(n_threads) +
                 " cached=" + std::to_string(cached));
    EXPECT_EQ(ref[i].verdict, red[i].verdict);
    EXPECT_LE(red[i].stats.states, ref[i].stats.states);
    if (red[i].verdict == rosa::Verdict::Reachable) {
      // The particular witness may differ under reduction; what must hold
      // is that it executes successfully on the simulated kernel.
      rosa::Materialized world(m.queries[i].initial);
      std::string diag;
      EXPECT_TRUE(world.replay(red[i].witness, &diag)) << diag;
    }
  }
  if (cached) {
    // Second cached pass: hits must return the reduced engine's results.
    std::vector<rosa::SearchResult> hit =
        rosa::run_queries(m.queries, reduced, /*n_threads=*/1, {}, &cache);
    for (std::size_t i = 0; i < red.size(); ++i) {
      SCOPED_TRACE(m.labels[i] + " cached-hit");
      rosa_test::expect_same_work(red[i], hit[i]);
    }
  }
}

TEST(ReductionDiffTest, SerialUncachedMatrixAgreesWithUnreduced) {
  expect_reduced_matches(1, false);
}

TEST(ReductionDiffTest, SerialCachedMatrixAgreesWithUnreduced) {
  expect_reduced_matches(1, true);
}

TEST(ReductionDiffTest, FourWorkerUncachedMatrixAgreesWithUnreduced) {
  expect_reduced_matches(4, false);
}

TEST(ReductionDiffTest, FourWorkerCachedMatrixAgreesWithUnreduced) {
  expect_reduced_matches(4, true);
}

TEST(ReductionDiffTest, VulnerableFractionsMatchSeedGoldensWithReductionOn) {
  const Golden golden = rosa_test::load_golden();
  ASSERT_EQ(golden.fractions.size(), 5u) << "golden file out of shape";

  privanalyzer::PipelineOptions full;
  full.rosa_limits = reduced_limits();
  full.rosa_threads = 1;
  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(full);
  ASSERT_EQ(analyses.size(), golden.fractions.size());
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const privanalyzer::ProgramAnalysis& a = analyses[i];
    std::string line = str::cat("f ", a.program);
    for (std::size_t atk = 0; atk < 4; ++atk)
      line += str::cat(" ", str::fixed(a.vulnerable_fraction(atk), 6));
    EXPECT_EQ(line, golden.fractions[i]);
  }
}

// --- Canonicalization orbit fuzz -------------------------------------------

/// Query with free identities on both pools: proc 1 (uid/gid 1000) may
/// set*id through wildcards and chown a file, so search states can carry
/// any of the free ids in credential and ownership fields.
rosa::Query free_id_query() {
  rosa::Query q;
  rosa::ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  q.initial.files.push_back(rosa::FileObj{2, {1000, 1000, os::Mode(0600)}});
  q.initial.set_name(2, "f");
  q.initial.set_users({1000, 2000, 2001, 2002, 2003});
  q.initial.set_groups({1000, 3000, 3001, 3002, 3003});
  q.initial.normalize();
  q.messages.push_back(
      rosa::msg_setresuid(1, rosa::kWild, rosa::kWild, rosa::kWild,
                          {Capability::Setuid}));
  q.messages.push_back(
      rosa::msg_setresgid(1, rosa::kWild, rosa::kWild, rosa::kWild,
                          {Capability::Setgid}));
  q.messages.push_back(rosa::msg_chown(1, 2, rosa::kWild, rosa::kWild,
                                       {Capability::Chown}));
  q.goal = rosa::goal_file_in_rdfset(1, 2);
  return q;
}

int permuted(const std::vector<int>& pool, const std::vector<int>& image,
             int id) {
  for (std::size_t i = 0; i < pool.size(); ++i)
    if (pool[i] == id) return image[i];
  return id;
}

TEST(ReductionDiffTest, CanonicalizeCollapsesEveryFreeIdPermutation) {
  const rosa::Query q = free_id_query();
  const rosa::SymmetryInfo sym = rosa::compute_symmetry(q);
  ASSERT_TRUE(sym.enabled());
  EXPECT_EQ(sym.free_users, (std::vector<int>{2000, 2001, 2002, 2003}));
  EXPECT_EQ(sym.free_groups, (std::vector<int>{3000, 3001, 3002, 3003}));

  // A state a wildcard-happy path could reach: free ids scattered over the
  // credential triples and the file's ownership.
  rosa::State base = q.initial;
  base.mutate_proc(1, [](rosa::ProcObj& p) {
    p.uid = {2001, 2003, 2000};
    p.gid = {3002, 1000, 3001};
  });
  base.mutate_file(2, [](rosa::FileObj& f) {
    f.meta.owner = 2002;
    f.meta.group = 3003;
  });
  base.set_msgs_remaining(0);

  rosa::State canon_base = base;
  rosa::canonicalize(canon_base, sym);

  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> uimg = sym.free_users;
    std::vector<int> gimg = sym.free_groups;
    std::shuffle(uimg.begin(), uimg.end(), rng);
    std::shuffle(gimg.begin(), gimg.end(), rng);

    rosa::State st = base;
    st.mutate_proc(1, [&](rosa::ProcObj& p) {
      p.uid = {permuted(sym.free_users, uimg, p.uid.real),
               permuted(sym.free_users, uimg, p.uid.effective),
               permuted(sym.free_users, uimg, p.uid.saved)};
      p.gid = {permuted(sym.free_groups, gimg, p.gid.real),
               permuted(sym.free_groups, gimg, p.gid.effective),
               permuted(sym.free_groups, gimg, p.gid.saved)};
    });
    st.mutate_file(2, [&](rosa::FileObj& f) {
      f.meta.owner = permuted(sym.free_users, uimg, f.meta.owner);
      f.meta.group = permuted(sym.free_groups, gimg, f.meta.group);
    });
    rosa::canonicalize(st, sym);
    EXPECT_TRUE(rosa::canonical_equal(st, canon_base))
        << "trial " << trial << ": orbit member missed the representative";
    EXPECT_EQ(st.hash(), canon_base.hash()) << "trial " << trial;
  }
}

TEST(ReductionDiffTest, WitnessRenamedBackToOriginalFrameReplays) {
  // Reaching the goal REQUIRES detouring through a free uid: the file's
  // owner bits deny its owner (euid 1000) while the "other" bits admit
  // everyone else, so the witness must contain a renamed set*id step whose
  // argument the reconstruction maps back through the inverse renaming.
  rosa::Query q;
  rosa::ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  // Group 4000 keeps the process out of the file's group class, so a
  // non-owner euid is classified "other" (bits 0004 = readable) while the
  // owner (euid 1000) is denied by the 0-valued owner bits.
  q.initial.files.push_back(rosa::FileObj{2, {1000, 4000, os::Mode(0004)}});
  q.initial.set_name(2, "f");
  q.initial.set_users({1000, 2000, 2001, 2002});
  q.initial.set_groups({1000});
  q.initial.normalize();
  q.messages.push_back(
      rosa::msg_seteuid(1, rosa::kWild, {Capability::Setuid}));
  q.messages.push_back(rosa::msg_open(1, 2, rosa::kAccRead, {}));
  q.goal = rosa::goal_file_in_rdfset(1, 2);

  const rosa::SearchResult r = rosa::search(q);
  ASSERT_EQ(r.verdict, rosa::Verdict::Reachable);
  ASSERT_EQ(r.witness.size(), 2u);
  EXPECT_GT(r.stats.symmetry_pruned, 0u);
  EXPECT_EQ(r.witness[0].sys, rosa::Sys::Seteuid);
  rosa::Materialized world(q.initial);
  std::string diag;
  EXPECT_TRUE(world.replay(r.witness, &diag)) << diag;
  EXPECT_TRUE(world.holds_open(1, 2, /*for_write=*/false));
}

// --- Headline pruning ratio (the BENCH_rosa reference workload) ------------

TEST(ReductionDiffTest, PoolWorkloadShrinksAtLeastFiveFold) {
  attacks::ScenarioInput in;
  in.permitted = {Capability::Setgid};
  in.creds = caps::Credentials::of_user(1000, 1000);
  in.syscalls = {"setresgid", "open",   "chmod", "chown",
                 "setgid",    "setuid", "unlink"};
  for (int i = 0; i < 6; ++i) {
    in.extra_users.push_back(2000 + i);
    in.extra_groups.push_back(3000 + i);
  }
  const rosa::Query q =
      attacks::build_attack_query(attacks::AttackId::WriteDevMem, in);

  rosa::SearchLimits off;
  off.reduction = false;
  const rosa::SearchResult unreduced = rosa::search(q, off);
  const rosa::SearchResult reduced = rosa::search(q);

  EXPECT_EQ(unreduced.verdict, rosa::Verdict::Unreachable);
  EXPECT_EQ(reduced.verdict, rosa::Verdict::Unreachable);
  EXPECT_GT(reduced.stats.symmetry_pruned, 0u);
  EXPECT_GE(unreduced.stats.states, 5 * reduced.stats.states)
      << "reduction ratio regressed below 5x: " << unreduced.stats.states
      << " unreduced vs " << reduced.stats.states << " reduced";
}

}  // namespace
}  // namespace pa
