// Singleton differential for the one ROSA search loop. rosa::search is a
// one-member call of rosa::detail::search_fused; here it is held to the
// goal-probe contract against the probe-free standalone loop it replaced
// (tests/reference_search.h, rosa_test::expect_probe_contract): where the
// reference ends Unreachable or ResourceLimit, the same verdict and the
// same value in every SearchStats field except wall time; where it ends
// Reachable, the same witness found with no more states or transitions.
// The one exception is a reference ResourceLimit that the probe decides
// Reachable before the budget trips, with the unlimited reference's
// witness. A plain search's Reachable result must also be decided at its
// layer boundary, with the counters the reference reports when it searches
// for any state one step deeper
// (rosa_test::expect_decided_at_layer_boundary).
//
// Every Table-III query runs under default limits, a states budget that
// ends in ResourceLimit, a byte budget that trips, a constant hash override
// (every insert collides), and the CfiOrdered and FixedArgs attackers. Small
// handmade queries cover no_dedup, and a pool-heavy query covers large
// wildcard id pools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "reference_search.h"
#include "rosa_test_util.h"

namespace pa {
namespace {

using caps::Capability;
using rosa_test::Matrix;

// A new SearchStats field must be compared below; this fails to compile
// until expect_identical is taught about it.
static_assert(sizeof(rosa::SearchStats) ==
                  13 * sizeof(std::size_t) + sizeof(double),
              "compare the new SearchStats field in expect_identical");

/// Verdict, witness, and every SearchStats field except seconds.
void expect_identical(const rosa::SearchResult& ref,
                      const rosa::SearchResult& got) {
  EXPECT_EQ(ref.verdict, got.verdict);
  const rosa::SearchStats& a = ref.stats;
  const rosa::SearchStats& b = got.stats;
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.hash_collisions, b.hash_collisions);
  EXPECT_EQ(a.peak_frontier, b.peak_frontier);
  EXPECT_EQ(a.peak_bytes, b.peak_bytes);
  EXPECT_EQ(a.state_bytes, b.state_bytes);
  EXPECT_EQ(a.fused_group_size, b.fused_group_size);
  EXPECT_EQ(a.fused_searches_saved, b.fused_searches_saved);
  EXPECT_EQ(a.fused_world_states, b.fused_world_states);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.proved, b.proved);
  ASSERT_EQ(ref.witness.size(), got.witness.size());
  for (std::size_t i = 0; i < ref.witness.size(); ++i)
    EXPECT_EQ(ref.witness[i].to_string(), got.witness[i].to_string());
}

/// What the matrix runs produced, so each case can show its limit bit.
struct Tally {
  std::size_t resource_limit = 0;
  std::size_t decided = 0;
  std::size_t collisions = 0;
  // Reference ResourceLimit cells the probe decided Reachable.
  std::size_t limit_to_reachable = 0;
};

/// The probe contract, with expect_identical as its exact half.
void expect_contract(const rosa::SearchResult& ref,
                     const rosa::SearchResult& got, const rosa::Query& q,
                     const rosa::SearchLimits& limits) {
  rosa_test::expect_probe_contract(ref, got, q, limits, expect_identical,
                                   rosa::reference::search);
}

/// The contract for a plain search, plus where a probed goal decides.
void expect_search_contract(const rosa::SearchResult& ref,
                            const rosa::SearchResult& got,
                            const rosa::Query& q,
                            const rosa::SearchLimits& limits) {
  expect_contract(ref, got, q, limits);
  rosa_test::expect_decided_at_layer_boundary(q, limits, got,
                                              rosa::reference::search);
}

/// Every Table-III query through rosa::search and the reference under the
/// limits `tweak` shapes (after any attacker change `edit` makes to the
/// query).
Tally expect_matrix_matches(
    const std::function<void(rosa::SearchLimits&)>& tweak,
    const std::function<void(rosa::Query&)>& edit = {}) {
  const Matrix m = rosa_test::build_matrix();
  Tally tally;
  rosa::SearchLimits limits;
  tweak(limits);
  for (std::size_t i = 0; i < m.queries.size(); ++i) {
    SCOPED_TRACE(m.labels[i]);
    rosa::Query q = m.queries[i];
    if (edit) edit(q);
    const rosa::SearchResult ref = rosa::reference::search(q, limits);
    const rosa::SearchResult got = rosa::search(q, limits);
    expect_search_contract(ref, got, q, limits);
    if (ref.verdict == rosa::Verdict::ResourceLimit &&
        got.verdict == rosa::Verdict::Reachable)
      ++tally.limit_to_reachable;
    if (got.verdict == rosa::Verdict::ResourceLimit)
      ++tally.resource_limit;
    else
      ++tally.decided;
    tally.collisions += got.stats.hash_collisions;
  }
  return tally;
}

TEST(SearchDiffTest, TableThreeDefaultLimits) {
  const Tally t = expect_matrix_matches([](rosa::SearchLimits&) {});
  EXPECT_EQ(t.resource_limit, 0u);
}

TEST(SearchDiffTest, TableThreeStatesBudgetEndsInResourceLimit) {
  const Tally t = expect_matrix_matches(
      [](rosa::SearchLimits& l) { l.max_states = 2; });
  EXPECT_GT(t.resource_limit, 0u);
  EXPECT_GT(t.decided, 0u);
  // The root's probe finds one-step witnesses the two-state budget stops
  // the reference short of.
  EXPECT_GT(t.limit_to_reachable, 0u);
}

TEST(SearchDiffTest, TableThreeByteBudgetTrips) {
  // The median arena footprint of the unlimited runs: the larger half of
  // the matrix trips the budget, the smaller half fits.
  const Matrix m = rosa_test::build_matrix();
  std::vector<std::size_t> peaks;
  for (const rosa::Query& q : m.queries)
    peaks.push_back(rosa::reference::search(q).stats.peak_bytes);
  std::nth_element(peaks.begin(), peaks.begin() + peaks.size() / 2,
                   peaks.end());
  const std::size_t budget = peaks[peaks.size() / 2];

  const Tally t = expect_matrix_matches(
      [budget](rosa::SearchLimits& l) { l.max_bytes = budget; });
  EXPECT_GT(t.resource_limit, 0u);
  EXPECT_GT(t.decided, 0u);
}

TEST(SearchDiffTest, TableThreeConstantHashCollidesOnEveryInsert) {
  const Tally t = expect_matrix_matches([](rosa::SearchLimits& l) {
    l.hash_override = [](const rosa::State&) { return std::uint64_t{7}; };
  });
  EXPECT_GT(t.collisions, 0u);
}

TEST(SearchDiffTest, TableThreeCfiOrderedAttacker) {
  expect_matrix_matches(
      [](rosa::SearchLimits&) {},
      [](rosa::Query& q) { q.attacker = rosa::AttackerModel::CfiOrdered; });
}

TEST(SearchDiffTest, TableThreeFixedArgsAttacker) {
  expect_matrix_matches(
      [](rosa::SearchLimits&) {},
      [](rosa::Query& q) { q.attacker = rosa::AttackerModel::FixedArgs; });
}

TEST(SearchDiffTest, NoDedupSmallQuery) {
  rosa::SearchLimits limits;
  limits.no_dedup = true;
  for (const rosa::Query& q :
       {rosa_test::reachable_query(), rosa_test::unreachable_query(3)}) {
    const rosa::SearchResult got = rosa::search(q, limits);
    expect_search_contract(rosa::reference::search(q, limits), got, q,
                           limits);
    // Without dedup the 2^3 subsets are reached along every order.
    if (got.verdict == rosa::Verdict::Unreachable) {
      EXPECT_GT(got.stats.states, 8u);
    }
  }
}

/// A pool-heavy attack world: three extra uids and gids for the wildcard
/// set*id and chown arguments to range over.
rosa::Query pool_query(rosa::AttackerModel attacker) {
  attacks::ScenarioInput in;
  in.permitted = {Capability::Setgid, Capability::Setuid};
  in.creds = caps::Credentials::of_user(1000, 1000);
  in.syscalls = {"setresgid", "open", "chmod", "chown", "setgid", "setuid"};
  for (int i = 0; i < 3; ++i) {
    in.extra_users.push_back(2000 + i);
    in.extra_groups.push_back(3000 + i);
  }
  in.attacker = attacker;
  return attacks::build_attack_query(attacks::AttackId::ReadDevMem, in);
}

// The test keeps the name it had while ROSA had symmetry reduction, which
// only ever fired on pool-heavy worlds like this one.
TEST(SearchDiffTest, SymmetryReducedSearchesMatchReference) {
  for (rosa::AttackerModel attacker :
       {rosa::AttackerModel::Full, rosa::AttackerModel::CfiOrdered}) {
    SCOPED_TRACE(std::string(rosa::attacker_model_name(attacker)));
    const rosa::Query q = pool_query(attacker);
    expect_search_contract(rosa::reference::search(q), rosa::search(q), q,
                           {});
  }
}

}  // namespace
}  // namespace pa
