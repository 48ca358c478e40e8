// Property tests for the hashed state dedup behind rosa::search:
//  * State::hash() is a pure function of exactly the canonical() projection:
//    canonical-equal states hash equal, and canonical_equal() agrees with
//    canonical() string equality on arbitrary pairs (the collision-fallback
//    comparator is exact);
//  * a degenerate hash override that forces EVERY insert through the
//    collision-fallback path never changes a verdict, witness, or state
//    count — collisions cost time, never correctness.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rosa/query.h"
#include "rosa/search.h"
#include "rosa_test_util.h"

namespace pa::rosa {
namespace {

using caps::Capability;
using caps::CapSet;

using rosa_test::random_state;

class HashProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(HashProperty, CanonicalEqualityImpliesHashEquality) {
  std::mt19937 rng(GetParam());
  State a = random_state(rng);

  // A structurally identical state rebuilt in shuffled insertion order must
  // normalize back to the same canonical form, hash, and comparator result.
  State b = a;
  std::shuffle(b.procs.begin(), b.procs.end(), rng);
  std::shuffle(b.files.begin(), b.files.end(), rng);
  std::shuffle(b.dirs.begin(), b.dirs.end(), rng);
  b.normalize();

  ASSERT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_TRUE(canonical_equal(a, b));
}

TEST_P(HashProperty, CanonicalEqualAgreesWithCanonicalStrings) {
  std::mt19937 rng(GetParam() + 500);
  State a = random_state(rng);
  State b = random_state(rng);
  // The comparator and the reference serialization must agree on arbitrary
  // pairs — equal or not.
  EXPECT_EQ(canonical_equal(a, b), a.canonical() == b.canonical());
  EXPECT_EQ(canonical_equal(b, a), canonical_equal(a, b));
  EXPECT_TRUE(canonical_equal(a, a));
  // And hash is consistent with the reference on the equal side.
  if (a.canonical() == b.canonical()) {
    EXPECT_EQ(a.hash(), b.hash());
  }
}

TEST_P(HashProperty, SingleFieldPerturbationChangesCanonicalAndComparator) {
  std::mt19937 rng(GetParam() + 9000);
  State a = random_state(rng);
  State b = a;
  switch (rng() % 4) {
    case 0: b.set_msgs_remaining(b.msgs_remaining() ^ 1); break;
    case 1: b.procs.front().uid.effective += 1; break;
    case 2: b.procs.front().running = !b.procs.front().running; break;
    default: b.procs.front().rdfset.insert(99); break;
  }
  b.invalidate_hash();  // direct field writes bypass the mutate_* helpers
  EXPECT_NE(a.canonical(), b.canonical());
  EXPECT_FALSE(canonical_equal(a, b));
  // Not guaranteed in theory, but with FNV-1a over <100 bytes a collision
  // here would indicate a hash that ignores the field — worth failing on.
  EXPECT_NE(a.hash(), b.hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashProperty, ::testing::Range(0u, 60u));

TEST(HashTest, NameFieldsAreExcludedLikeCanonical) {
  // canonical() deliberately ignores display names; hash() and
  // canonical_equal() must ignore them too or dedup would split states the
  // reference key merges.
  std::mt19937 rng(7);
  State a = random_state(rng);
  if (a.files.empty()) {
    a.files.push_back(FileObj{10, {0, 0, os::Mode(0644)}});
    a.set_name(10, "f");
    a.normalize();
  }
  State b = a;
  b.set_name(b.files.front().id, "renamed");
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_TRUE(canonical_equal(a, b));
}

// ---------------------------------------------------------------------------
// Forced hash collisions never change search behavior
// ---------------------------------------------------------------------------

/// The Fig. 2 worked example (same construction as rosa_search_test.cpp).
Query paper_example() {
  Query q;
  ProcObj p;
  p.id = 1;
  p.uid = {11, 10, 12};
  p.gid = {11, 10, 12};
  q.initial.procs.push_back(p);
  q.initial.dirs.push_back(DirObj{2, {40, 41, os::Mode(0777)}, 3});
  q.initial.files.push_back(FileObj{3, {40, 41, os::Mode(0000)}});
  q.initial.set_name(2, "/etc");
  q.initial.set_name(3, "/etc/passwd");
  q.initial.set_users({10});
  q.initial.set_groups({41});
  q.messages = {
      msg_open(1, 3, kAccRead, {}),
      msg_setuid(1, kWild, {Capability::Setuid}),
      msg_chown(1, kWild, kWild, 41, {Capability::Chown}),
      msg_chmod(1, kWild, 0777, {}),
  };
  q.goal = goal_file_in_rdfset(1, 3);
  q.initial.normalize();
  return q;
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.states_explored(), b.states_explored());
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_EQ(a.stats.dedup_hits, b.stats.dedup_hits);
  EXPECT_EQ(a.stats.peak_frontier, b.stats.peak_frontier);
  ASSERT_EQ(a.witness.size(), b.witness.size());
  for (std::size_t i = 0; i < a.witness.size(); ++i)
    EXPECT_EQ(a.witness[i].to_string(), b.witness[i].to_string());
}

TEST(DegenerateHashTest, ConstantHashPreservesReachableVerdict) {
  Query q = paper_example();
  SearchResult normal = search(q);
  ASSERT_EQ(normal.verdict, Verdict::Reachable);
  EXPECT_EQ(normal.stats.hash_collisions, 0u);  // FNV should not collide here

  SearchLimits degenerate;
  degenerate.hash_override = [](const State&) { return std::uint64_t{42}; };
  SearchResult collided = search(q, degenerate);
  expect_identical(normal, collided);
  // Every distinct state beyond the first chained behind the single key.
  EXPECT_EQ(collided.stats.hash_collisions, collided.states_explored() - 1);
}

TEST(DegenerateHashTest, ConstantHashPreservesExhaustiveSearch) {
  Query q = paper_example();
  // Process 2 is absent and never created: force full exploration.
  q.goal = goal_proc_terminated(2);
  SearchResult normal = search(q);
  ASSERT_EQ(normal.verdict, Verdict::Unreachable);
  EXPECT_GT(normal.stats.dedup_hits, 0u);  // commuting messages close diamonds

  SearchLimits degenerate;
  degenerate.hash_override = [](const State&) { return std::uint64_t{0}; };
  SearchResult collided = search(q, degenerate);
  expect_identical(normal, collided);
}

TEST(DegenerateHashTest, TwoBucketHashPreservesSearchOnRandomQueries) {
  // A 2-valued hash exercises mixed chains (some dedup hits resolve at the
  // head, some deep in the chain) across many random worlds.
  for (unsigned seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(seed);
    Query q;
    q.initial = random_state(rng);
    if (!q.initial.find_proc(1)) continue;
    CapSet privs;
    if (rng() % 2) privs = privs.with(Capability::DacOverride);
    if (rng() % 2) privs = privs.with(Capability::Chown);
    if (rng() % 2) privs = privs.with(Capability::Setuid);
    for (int f = 10; f < 13; ++f) {
      if (!q.initial.find_file(f)) continue;
      q.messages.push_back(msg_open(1, f, kAccRead, privs));
      q.messages.push_back(msg_chmod(1, f, 0666, privs));
      q.messages.push_back(msg_chown(1, f, kWild, kWild, privs));
    }
    q.messages.push_back(msg_setuid(1, kWild, privs));
    q.goal = goal_file_in_rdfset(1, 10);

    SearchResult normal = search(q);
    SearchLimits degenerate;
    degenerate.hash_override = [](const State& st) {
      return std::uint64_t{st.msgs_remaining() % 2};
    };
    SearchResult collided = search(q, degenerate);
    expect_identical(normal, collided);
  }
}

}  // namespace
}  // namespace pa::rosa
