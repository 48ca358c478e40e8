// Tests for the content-addressed ROSA verdict cache (rosa/fingerprint.h +
// rosa/cache.h): fingerprint stability/sensitivity, the three reuse rules
// (exact signature, definite-verdict transfer, ResourceLimit monotonicity),
// persistent-file robustness (corrupt/stale/truncated files degrade to a
// cold cache, never wrong answers), and differential cached-vs-uncached
// equivalence through the full pipeline — the property that makes it safe
// to leave the cache on by default.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "privanalyzer/pipeline.h"
#include "privmodels/solaris.h"
#include "rosa/cache.h"
#include "rosa/fingerprint.h"
#include "rosa/query.h"
#include "rosa_test_util.h"
#include "support/faultpoint.h"

namespace pa::rosa {
namespace {

// The handmade query set and the work-equality predicate are shared with the
// other differential suites (see rosa_test_util.h).
using rosa_test::expect_same_work;
using rosa_test::open_query;
using rosa_test::reachable_query;
using rosa_test::states_budget;
using rosa_test::unreachable_query;

/// The cache's one client path for one query: a one-query run_queries
/// batch, which looks the query up, searches on a miss, and stores.
SearchResult run_cached(QueryCache& cache, const Query& q,
                        const SearchLimits& lim,
                        const EscalationPolicy& esc = {}) {
  return run_queries({&q, 1}, lim, /*n_threads=*/1, esc, &cache)[0];
}

std::string hex_of(const Query& q, const SearchLimits& lim = {}) {
  std::optional<Fingerprint> fp = fingerprint_query(q, lim);
  return fp ? fp->to_hex() : std::string("<uncacheable>");
}

// --- Fingerprints ----------------------------------------------------------

TEST(FingerprintTest, HexRoundTrip) {
  Fingerprint fp{0x0123456789abcdefull, 0xfedcba9876543210ull};
  std::string hex = fp.to_hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex, "0123456789abcdeffedcba9876543210");
  std::optional<Fingerprint> back = Fingerprint::from_hex(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, fp);
  EXPECT_FALSE(Fingerprint::from_hex("").has_value());
  EXPECT_FALSE(Fingerprint::from_hex("0123").has_value());
  EXPECT_FALSE(Fingerprint::from_hex(hex + "0").has_value());
  std::string bad = hex;
  bad[7] = 'g';
  EXPECT_FALSE(Fingerprint::from_hex(bad).has_value());
}

TEST(FingerprintTest, DeterministicAcrossRebuilds) {
  // Rebuilding the same query from scratch must fingerprint identically —
  // this is what makes persistent caches useful across runs.
  EXPECT_EQ(hex_of(reachable_query()), hex_of(reachable_query()));
  EXPECT_EQ(hex_of(unreachable_query()), hex_of(unreachable_query()));
}

TEST(FingerprintTest, SensitiveToEverySemanticInput) {
  const std::string base = hex_of(reachable_query());

  // File permissions (part of the canonical state).
  EXPECT_NE(base, hex_of(open_query(2, 0400, goal_file_in_rdfset(1, 3))));

  // Message order (CfiOrdered semantics depend on it).
  Query swapped = reachable_query();
  std::swap(swapped.messages[0], swapped.messages[1]);
  EXPECT_NE(base, hex_of(swapped));

  // Attacker model.
  Query cfi = reachable_query();
  cfi.attacker = AttackerModel::CfiOrdered;
  EXPECT_NE(base, hex_of(cfi));

  // Goal identity.
  EXPECT_NE(base, hex_of(open_query(2, 0600, goal_file_in_rdfset(1, 2))));

  // Access-control model.
  Query solaris = reachable_query();
  solaris.checker = &privmodels::solaris_checker();
  EXPECT_NE(base, hex_of(solaris));

  // Dedup ablation changes the counters a search reports.
  SearchLimits nodedup;
  nodedup.no_dedup = true;
  EXPECT_NE(base, hex_of(reachable_query(), nodedup));

  // The user/group pools are omitted from State::canonical() but drive
  // wildcard instantiation, so the fingerprint must cover them explicitly.
  Query more_users = reachable_query();
  more_users.initial.add_user(2000);
  more_users.initial.normalize();
  EXPECT_NE(base, hex_of(more_users));
}

TEST(FingerprintTest, BudgetsDoNotAffectTheFingerprint) {
  SearchLimits small = states_budget(10);
  SearchLimits big = states_budget(1'000'000);
  big.max_seconds = 3.5;
  big.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_EQ(hex_of(reachable_query(), small), hex_of(reachable_query(), big));
}

TEST(FingerprintTest, UncacheableQueries) {
  // Ad-hoc lambda goals carry no cache key.
  Query adhoc = reachable_query();
  adhoc.goal = [](const State&) { return false; };
  EXPECT_FALSE(fingerprint_query(adhoc, {}).has_value());

  // A hash override may perturb exploration order and counters.
  SearchLimits lim;
  lim.hash_override = [](const State&) { return std::uint64_t{0}; };
  EXPECT_FALSE(fingerprint_query(reachable_query(), lim).has_value());
}

// --- In-memory reuse rules -------------------------------------------------

TEST(QueryCacheTest, ExactRepeatIsABitIdenticalHit) {
  QueryCache cache;
  const SearchLimits lim = states_budget(10'000);
  SearchResult miss = run_cached(cache, reachable_query(), lim);
  EXPECT_EQ(miss.verdict, Verdict::Reachable);
  EXPECT_EQ(miss.stats.cache_misses, 1u);
  EXPECT_EQ(miss.stats.cache_hits, 0u);
  ASSERT_FALSE(miss.witness.empty());

  SearchResult hit = run_cached(cache, reachable_query(), lim);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  EXPECT_EQ(hit.stats.cache_misses, 0u);
  expect_same_work(miss, hit);
  // Rule-1 reuse is verbatim, down to the stored wall time.
  EXPECT_EQ(hit.seconds(), miss.seconds());
  EXPECT_EQ(hit.stats.seconds, miss.stats.seconds);

  QueryCache::Totals t = cache.totals();
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.entries, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCacheTest, RunQueriesSearchesEachFingerprintOnce) {
  QueryCache cache;
  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(reachable_query());
  const SearchLimits lim = states_budget(10'000);
  std::vector<SearchResult> results = run_queries(queries, lim, 4, {}, &cache);
  ASSERT_EQ(results.size(), queries.size());

  std::size_t misses = 0, hits = 0;
  for (const SearchResult& r : results) {
    EXPECT_EQ(r.verdict, Verdict::Reachable);
    expect_same_work(results[0], r);
    misses += r.stats.cache_misses;
    hits += r.stats.cache_hits;
  }
  // Exactly one worker searched; every duplicate adopted its result.
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, queries.size() - 1);
  QueryCache::Totals t = cache.totals();
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.hits, queries.size() - 1);
  EXPECT_EQ(t.entries, 1u);
}

TEST(QueryCacheTest, ReachableVerdictTransfersToCompatibleBudgets) {
  QueryCache cache;
  SearchResult proved = run_cached(cache, reachable_query(), states_budget(10'000));
  ASSERT_EQ(proved.verdict, Verdict::Reachable);
  const std::size_t g = proved.states_explored();
  ASSERT_GT(g, 1u);

  // Reusable at exactly G explored states and at an unlimited budget.
  SearchResult at_g = run_cached(cache, reachable_query(), states_budget(g));
  EXPECT_EQ(at_g.stats.cache_hits, 1u);
  expect_same_work(proved, at_g);
  SearchResult unlimited = run_cached(cache, reachable_query(), states_budget(0));
  EXPECT_EQ(unlimited.stats.cache_hits, 1u);

  // Below G the cache must re-search — and agree bit-for-bit with the
  // uncached engine at that budget, whatever it decides.
  SearchResult below = run_cached(cache, reachable_query(), states_budget(g - 1));
  EXPECT_EQ(below.stats.cache_misses, 1u);
  expect_same_work(search_escalating(reachable_query(), states_budget(g - 1), {}),
                   below);
}

TEST(QueryCacheTest, UnreachableBoundaryIsStrict) {
  QueryCache cache;
  SearchResult proved =
      run_cached(cache, unreachable_query(), states_budget(10'000));
  ASSERT_EQ(proved.verdict, Verdict::Unreachable);
  const std::size_t u = proved.states_explored();  // full space size
  ASSERT_GT(u, 1u);

  // Budget U+1 would have exhausted the space: hit.
  SearchResult above = run_cached(cache, unreachable_query(), states_budget(u + 1));
  EXPECT_EQ(above.stats.cache_hits, 1u);
  EXPECT_EQ(above.verdict, Verdict::Unreachable);

  // Budget exactly U hits the in-search budget check while inserting the
  // U-th state, so the honest answer is ResourceLimit, not Unreachable —
  // the cache must not paper over the boundary.
  SearchResult at_u = run_cached(cache, unreachable_query(), states_budget(u));
  EXPECT_EQ(at_u.stats.cache_misses, 1u);
  EXPECT_EQ(at_u.verdict, Verdict::ResourceLimit);
  expect_same_work(search_escalating(unreachable_query(), states_budget(u), {}),
                   at_u);

  // The fresh ResourceLimit must not displace the definite verdict.
  SearchResult still =
      run_cached(cache, unreachable_query(), states_budget(u + 1));
  EXPECT_EQ(still.stats.cache_hits, 1u);
  EXPECT_EQ(still.verdict, Verdict::Unreachable);
}

TEST(QueryCacheTest, ResourceLimitReusableOnlyAtSmallerBudgets) {
  QueryCache cache;
  const Query q = unreachable_query(3);  // 8-state space
  SearchResult rl = run_cached(cache, q, states_budget(3));
  ASSERT_EQ(rl.verdict, Verdict::ResourceLimit);
  ASSERT_EQ(rl.states_explored(), 3u);

  // Equal and smaller budgets: exploring 3 states without a decision
  // implies the same at budget <= 3.
  EXPECT_EQ(run_cached(cache, q, states_budget(3)).stats.cache_hits, 1u);
  EXPECT_EQ(run_cached(cache, q, states_budget(2)).stats.cache_hits, 1u);
  EXPECT_EQ(run_cached(cache, q, states_budget(2)).verdict,
            Verdict::ResourceLimit);

  // A larger budget must search afresh; the deeper ResourceLimit replaces
  // the shallower entry, then serves budgets up to its decisive budget.
  SearchResult deeper = run_cached(cache, q, states_budget(5));
  EXPECT_EQ(deeper.stats.cache_misses, 1u);
  ASSERT_EQ(deeper.verdict, Verdict::ResourceLimit);
  EXPECT_EQ(run_cached(cache, q, states_budget(4)).stats.cache_hits, 1u);

  // An unlimited request exhausts the space: the definite verdict replaces
  // the ResourceLimit entry for good.
  SearchResult definite = run_cached(cache, q, states_budget(0));
  EXPECT_EQ(definite.stats.cache_misses, 1u);
  ASSERT_EQ(definite.verdict, Verdict::Unreachable);
  SearchResult served =
      run_cached(cache, q, states_budget(definite.states_explored() + 1));
  EXPECT_EQ(served.stats.cache_hits, 1u);
  EXPECT_EQ(served.verdict, Verdict::Unreachable);
}

TEST(QueryCacheTest, EscalatedDecisiveResultIsCached) {
  QueryCache cache;
  const Query q = unreachable_query(3);  // 8-state space
  const EscalationPolicy esc{3, 2.0};    // budgets 2, 4, 8, 16
  SearchResult miss = run_cached(cache, q, states_budget(2), esc);
  ASSERT_EQ(miss.verdict, Verdict::Unreachable);
  EXPECT_EQ(miss.stats.escalations, 3u);

  // Rule 1: the same (limits, escalation) signature replays verbatim,
  // escalation counters included.
  SearchResult hit = run_cached(cache, q, states_budget(2), esc);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(miss, hit);

  // Rule 2: the definite verdict also serves a plain request whose budget
  // clears the 8 explored states.
  SearchResult plain = run_cached(cache, q, states_budget(9));
  EXPECT_EQ(plain.stats.cache_hits, 1u);
  EXPECT_EQ(plain.verdict, Verdict::Unreachable);
}

TEST(QueryCacheTest, ByteBudgetIsPartOfTheExactSignature) {
  QueryCache cache;
  SearchLimits bounded = states_budget(10'000);
  bounded.max_bytes = 1u << 30;  // generous: never actually fires
  SearchResult miss = run_cached(cache, reachable_query(), bounded);
  ASSERT_EQ(miss.verdict, Verdict::Reachable);
  EXPECT_EQ(miss.stats.cache_misses, 1u);

  // Rule 1: identical byte budget replays verbatim.
  SearchResult hit = run_cached(cache, reachable_query(), bounded);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(miss, hit);

  // A different byte budget is a different signature, and a byte-budgeted
  // request must not borrow a definite verdict via rule 2 either (the
  // stored entry proves nothing about where a byte cap would have fired).
  SearchLimits other = bounded;
  other.max_bytes = 1u << 29;
  SearchResult re = run_cached(cache, reachable_query(), other);
  EXPECT_EQ(re.stats.cache_misses, 1u);
  expect_same_work(miss, re);  // same work either way — the cap never fires
}

TEST(QueryCacheTest, ByteLimitedResourceLimitIsNotStored) {
  QueryCache cache;
  SearchLimits starved = states_budget(10'000);
  starved.max_bytes = 1;  // root node alone exceeds this
  SearchResult rl = run_cached(cache, unreachable_query(), starved);
  ASSERT_EQ(rl.verdict, Verdict::ResourceLimit);
  // A byte-induced ResourceLimit says nothing about states-bounded budgets,
  // so it must not enter the cache (like deadline-induced ones).
  EXPECT_EQ(cache.totals().entries, 0u);

  // And a pure states-bounded request afterwards searches fresh.
  SearchResult fresh =
      run_cached(cache, unreachable_query(), states_budget(10'000));
  EXPECT_EQ(fresh.stats.cache_misses, 1u);
  EXPECT_EQ(fresh.verdict, Verdict::Unreachable);
}

TEST(QueryCacheTest, CancelledSearchesAreNeverStored) {
  QueryCache cache;
  // The cancel flag rises while the search runs (a batch never starts a
  // query whose flag is already up): evaluating the goal on the root sets
  // it, so the search stops at its first frontier pop. Same predicate, same
  // key — the query keeps reachable_query()'s fingerprint.
  std::atomic<bool> stop{false};
  Query q = reachable_query();
  q.goal = Goal(
      [&stop, goal = q.goal](const State& st) {
        stop = true;
        return goal(st);
      },
      q.goal.cache_key());
  SearchLimits lim = states_budget(10'000);
  lim.cancel = &stop;
  SearchResult cancelled = run_cached(cache, q, lim);
  EXPECT_EQ(cancelled.verdict, Verdict::ResourceLimit);
  EXPECT_EQ(cancelled.stats.cache_misses, 1u);
  // A cancellation artifact proves nothing about any budget.
  EXPECT_EQ(cache.totals().entries, 0u);

  SearchResult fresh = run_cached(cache, reachable_query(), states_budget(10'000));
  EXPECT_EQ(fresh.stats.cache_misses, 1u);
  EXPECT_EQ(fresh.verdict, Verdict::Reachable);
}

// --- Persistence -----------------------------------------------------------

class PersistentCacheTest : public ::testing::Test {
 protected:
  // ctest runs every case as its own process, concurrently, so each case
  // gets its own file: named after the running test and the pid.
  std::string path_ = [] {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/rosa_cache_test." +
           test->test_suite_name() + "." + test->name() + "." +
           std::to_string(::getpid()) + ".cache";
  }();

  void TearDown() override { std::remove(path_.c_str()); }

  std::string read_file() {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  void write_file(const std::string& text) {
    std::ofstream out(path_, std::ios::trunc);
    out << text;
  }
  /// Replace the first occurrence of `from` in the saved file with `to`.
  void tamper(const std::string& from, const std::string& to) {
    std::string text = read_file();
    std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    text.replace(pos, from.size(), to);
    write_file(text);
  }
};

TEST_F(PersistentCacheTest, SaveLoadRoundTripServesVerbatimHits) {
  QueryCache writer;
  const SearchLimits lim = states_budget(10'000);
  SearchResult reach = run_cached(writer, reachable_query(), lim);
  SearchResult unreach = run_cached(writer, unreachable_query(), lim);
  ASSERT_EQ(reach.verdict, Verdict::Reachable);
  ASSERT_FALSE(reach.witness.empty());
  std::string warn;
  ASSERT_TRUE(writer.save_file(path_, &warn)) << warn;

  QueryCache reader;
  ASSERT_TRUE(reader.load_file(path_, &warn)) << warn;
  EXPECT_EQ(reader.totals().loaded, 2u);
  EXPECT_EQ(reader.size(), 2u);

  SearchResult hit = run_cached(reader, reachable_query(), lim);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(reach, hit);  // witness survives the round trip
  SearchResult hit2 = run_cached(reader, unreachable_query(), lim);
  EXPECT_EQ(hit2.stats.cache_hits, 1u);
  expect_same_work(unreach, hit2);
  EXPECT_EQ(reader.totals().misses, 0u);
}

TEST_F(PersistentCacheTest, MissingFileIsACleanColdStart) {
  QueryCache cache;
  std::string warn;
  EXPECT_TRUE(cache.load_file(path_ + ".does-not-exist", &warn));
  EXPECT_TRUE(warn.empty());
  EXPECT_EQ(cache.totals().loaded, 0u);
}

TEST_F(PersistentCacheTest, EmptyCacheRoundTrips) {
  QueryCache writer;
  ASSERT_TRUE(writer.save_file(path_));
  QueryCache reader;
  std::string warn;
  EXPECT_TRUE(reader.load_file(path_, &warn)) << warn;
  EXPECT_EQ(reader.size(), 0u);
}

TEST_F(PersistentCacheTest, GarbageFileIsIgnoredWithWarning) {
  write_file("hello world\nthis is not a cache\n");
  QueryCache cache;
  std::string warn;
  EXPECT_FALSE(cache.load_file(path_, &warn));
  EXPECT_NE(warn.find("not a rosa cache"), std::string::npos) << warn;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PersistentCacheTest, StaleModelVersionIsIgnoredWholesale) {
  QueryCache writer;
  run_cached(writer, reachable_query(), states_budget(10'000));
  ASSERT_TRUE(writer.save_file(path_));
  tamper("model=", "model=stale-");
  QueryCache cache;
  std::string warn;
  EXPECT_FALSE(cache.load_file(path_, &warn));
  EXPECT_NE(warn.find("stale"), std::string::npos) << warn;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PersistentCacheTest, V4FileIsAStaleHeaderColdStart) {
  // A file from before v5 dropped the spill and partial-order-reduction
  // fields: a v4 header over a 25-field entry line.
  write_file(str::cat("privanalyzer-rosa-cache v4 model=", kRosaModelVersion,
                      "\ne ", std::string(32, 'a'),
                      " UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 4 10000 0 0 0"
                      " 2 0 0 0 0 0 0 0\nend\n"));
  QueryCache cache;
  std::string warn;
  EXPECT_FALSE(cache.load_file(path_, &warn));
  EXPECT_NE(warn.find("stale version/model header"), std::string::npos)
      << warn;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.totals().loaded, 0u);
  // Cold start: the first query searches afresh.
  const SearchResult r =
      run_cached(cache, unreachable_query(), states_budget(10'000));
  EXPECT_EQ(r.stats.cache_misses, 1u);
  EXPECT_EQ(r.verdict, Verdict::Unreachable);
}

TEST_F(PersistentCacheTest, V5FileIsAStaleHeaderColdStart) {
  // A file from before v6 dropped the symmetry-pruned counter: a v5 header
  // over a 21-field entry line.
  write_file(str::cat("privanalyzer-rosa-cache v5 model=", kRosaModelVersion,
                      "\ne ", std::string(32, 'a'),
                      " UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 4 10000 0 0 0"
                      " 2 0 0 0\nend\n"));
  QueryCache cache;
  std::string warn;
  EXPECT_FALSE(cache.load_file(path_, &warn));
  EXPECT_NE(warn.find("stale version/model header"), std::string::npos)
      << warn;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.totals().loaded, 0u);
  // Cold start: the first query searches afresh.
  const SearchResult r =
      run_cached(cache, unreachable_query(), states_budget(10'000));
  EXPECT_EQ(r.stats.cache_misses, 1u);
  EXPECT_EQ(r.verdict, Verdict::Unreachable);

  // The rewrite is a v6 file with 20-field entry lines, and it loads warm.
  ASSERT_TRUE(cache.save_file(path_));
  const std::string text = read_file();
  EXPECT_TRUE(text.starts_with("privanalyzer-rosa-cache v6 model=")) << text;
  const std::size_t line = text.find("\ne ") + 1;
  EXPECT_EQ(str::split(text.substr(line, text.find('\n', line) - line), ' ')
                .size(),
            20u);
  QueryCache reader;
  ASSERT_TRUE(reader.load_file(path_, &warn)) << warn;
  EXPECT_EQ(reader.totals().loaded, 1u);
  const SearchResult hit =
      run_cached(reader, unreachable_query(), states_budget(10'000));
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(r, hit);
}

TEST_F(PersistentCacheTest, TruncatedFileIsIgnored) {
  QueryCache writer;
  run_cached(writer, reachable_query(), states_budget(10'000));
  ASSERT_TRUE(writer.save_file(path_));
  std::string text = read_file();
  ASSERT_TRUE(text.ends_with("end\n"));
  write_file(text.substr(0, text.size() - 4));
  QueryCache cache;
  std::string warn;
  EXPECT_FALSE(cache.load_file(path_, &warn));
  EXPECT_NE(warn.find("truncated"), std::string::npos) << warn;
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PersistentCacheTest, TamperedEntryRejectsTheWholeFile) {
  QueryCache writer;
  run_cached(writer, reachable_query(), states_budget(10'000));
  run_cached(writer, unreachable_query(), states_budget(10'000));
  ASSERT_TRUE(writer.save_file(path_));
  tamper("\ne ", "\nq ");  // corrupt one entry line's tag
  QueryCache cache;
  std::string warn;
  EXPECT_FALSE(cache.load_file(path_, &warn));
  EXPECT_FALSE(warn.empty());
  // All-or-nothing: the intact entry is NOT salvaged.
  EXPECT_EQ(cache.size(), 0u);
}

// --- Differential equivalence through the full pipeline --------------------

privanalyzer::PipelineOptions pipeline_options(bool cached, unsigned threads,
                                               std::size_t max_states,
                                               unsigned escalate = 0) {
  privanalyzer::PipelineOptions opts;
  opts.rosa_limits.max_states = max_states;
  opts.rosa_threads = threads;
  opts.rosa_cache = cached;
  opts.rosa_escalation_rounds = escalate;
  return opts;
}

/// Verdicts, fractions, witnesses, and work counters must be bit-identical;
/// only wall time and the cache counters themselves may differ.
void expect_equivalent_analyses(const privanalyzer::ProgramAnalysis& a,
                                const privanalyzer::ProgramAnalysis& b) {
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t e = 0; e < a.verdicts.size(); ++e) {
    for (std::size_t atk = 0; atk < a.verdicts[e].verdicts.size(); ++atk) {
      SCOPED_TRACE(a.program + "/" + a.verdicts[e].epoch_name + "/attack" +
                   std::to_string(atk + 1));
      EXPECT_EQ(a.verdicts[e].verdicts[atk], b.verdicts[e].verdicts[atk]);
      expect_same_work(a.verdicts[e].results[atk], b.verdicts[e].results[atk]);
    }
  }
  for (std::size_t atk = 0; atk < attacks::modeled_attacks().size(); ++atk)
    EXPECT_EQ(a.vulnerable_fraction(atk), b.vulnerable_fraction(atk));
}

TEST(CachePipelineTest, CachedRunBitIdenticalToUncached) {
  for (const auto& spec :
       {programs::make_passwd(), programs::make_thttpd()}) {
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(spec.name + " threads=" + std::to_string(threads));
      privanalyzer::ProgramAnalysis uncached = privanalyzer::analyze_program(
          spec, pipeline_options(false, threads, 150'000));
      privanalyzer::ProgramAnalysis cached = privanalyzer::analyze_program(
          spec, pipeline_options(true, threads, 150'000));
      expect_equivalent_analyses(uncached, cached);
      // The uncached run never consults a cache; the cached run memoizes
      // every (keyed) cell.
      rosa::SearchStats us = uncached.search_stats();
      EXPECT_EQ(us.cache_hits + us.cache_misses, 0u);
      rosa::SearchStats cs = cached.search_stats();
      EXPECT_GT(cs.cache_misses, 0u);
    }
  }
}

TEST(CachePipelineTest, EscalatedRunsStayBitIdentical) {
  programs::ProgramSpec spec = programs::make_passwd();
  privanalyzer::ProgramAnalysis uncached = privanalyzer::analyze_program(
      spec, pipeline_options(false, 4, 200, /*escalate=*/2));
  privanalyzer::ProgramAnalysis cached = privanalyzer::analyze_program(
      spec, pipeline_options(true, 4, 200, /*escalate=*/2));
  expect_equivalent_analyses(uncached, cached);
}

TEST(CachePipelineTest, SharedCacheMakesRepeatAnalysesAllHits) {
  programs::ProgramSpec spec = programs::make_passwd();
  privanalyzer::PipelineOptions opts = pipeline_options(true, 4, 150'000);
  opts.rosa_cache_instance = std::make_shared<rosa::QueryCache>();

  privanalyzer::ProgramAnalysis first =
      privanalyzer::analyze_program(spec, opts);
  privanalyzer::ProgramAnalysis second =
      privanalyzer::analyze_program(spec, opts);
  expect_equivalent_analyses(first, second);

  // Every cell of the repeat run is served from memory.
  rosa::SearchStats stats = second.search_stats();
  const std::size_t cells =
      second.verdicts.size() * attacks::modeled_attacks().size();
  EXPECT_EQ(stats.cache_hits, cells);
  EXPECT_EQ(stats.cache_misses, 0u);
}

TEST(CachePipelineTest, PersistentFileWarmsARepeatRun) {
  const std::string path =
      ::testing::TempDir() + "/cache_pipeline_test.cache";
  std::remove(path.c_str());
  programs::ProgramSpec spec = programs::make_passwd();

  privanalyzer::PipelineOptions cold = pipeline_options(true, 4, 150'000);
  cold.rosa_cache_file = path;
  privanalyzer::ProgramAnalysis first =
      privanalyzer::analyze_program(spec, cold);
  ASSERT_TRUE(first.ok());

  // A fresh process (modeled by a fresh options struct → fresh private
  // cache) loads the file and answers every cell without searching.
  privanalyzer::PipelineOptions warm = pipeline_options(true, 4, 150'000);
  warm.rosa_cache_file = path;
  privanalyzer::ProgramAnalysis second =
      privanalyzer::analyze_program(spec, warm);
  expect_equivalent_analyses(first, second);
  rosa::SearchStats stats = second.search_stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);

  // Corrupting the file degrades to a cold (but correct) run with a
  // CacheLoadFailed warning — never a failure.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "garbage\n";
  }
  privanalyzer::ProgramAnalysis degraded =
      privanalyzer::analyze_program(spec, warm);
  EXPECT_TRUE(degraded.ok());
  expect_equivalent_analyses(first, degraded);
  bool warned = false;
  for (const support::Diagnostic& d : degraded.diagnostics)
    warned |= d.code == support::DiagCode::CacheLoadFailed;
  EXPECT_TRUE(warned);
  std::remove(path.c_str());
}

// --- Byte-budget LRU eviction (the resident multi-tenant cache mode) ------

TEST(CacheEvictionTest, ByteBudgetBoundsResidentEntries) {
  QueryCache cache;
  cache.set_byte_budget(1);  // pathological: room for at most one entry
  const SearchLimits lim = states_budget(10'000);
  // Distinct mode bits -> distinct fingerprints -> distinct entries.
  for (int i = 0; i < 6; ++i)
    run_cached(cache, open_query(2, 0600 + i, goal_file_in_rdfset(1, 3)), lim);

  QueryCache::Totals t = cache.totals();
  EXPECT_EQ(t.misses, 6u);
  EXPECT_GT(t.evictions, 0u);
  // The budget keeps the newest entry and evicts the rest: resident count
  // stays bounded instead of growing with the workload.
  EXPECT_LE(cache.size(), 1u);
  EXPECT_LE(t.entries, 1u);
  // The entry just stored stays even though it alone exceeds the budget
  // (dropping it would only thrash): the last query repeats as a hit.
  EXPECT_EQ(run_cached(cache, open_query(2, 0605, goal_file_in_rdfset(1, 3)),
                       lim)
                .stats.cache_hits,
            1u);
}

TEST(CacheEvictionTest, EvictionOnlyCostsARecompute) {
  QueryCache cache;
  cache.set_byte_budget(1);
  const SearchLimits lim = states_budget(10'000);
  SearchResult first = run_cached(cache, reachable_query(), lim);
  // Push the first entry out...
  run_cached(cache, unreachable_query(), lim);
  // ...and re-ask the evicted question: a fresh miss, same answer, same
  // work — eviction can never change a verdict or a witness.
  SearchResult again = run_cached(cache, reachable_query(), lim);
  EXPECT_EQ(again.stats.cache_misses, 1u);
  EXPECT_EQ(again.stats.cache_hits, 0u);
  expect_same_work(first, again);
}

TEST(CacheEvictionTest, UnlimitedBudgetNeverEvicts) {
  QueryCache cache;
  const SearchLimits lim = states_budget(10'000);
  for (int i = 0; i < 6; ++i)
    run_cached(cache, open_query(2, 0600 + i, goal_file_in_rdfset(1, 3)), lim);
  EXPECT_EQ(cache.totals().evictions, 0u);
  EXPECT_EQ(cache.size(), 6u);
  EXPECT_GT(cache.totals().resident_bytes, 0u);
}

TEST(CacheEvictionTest, HitRefreshesRecency) {
  const SearchLimits lim = states_budget(10'000);
  // Entry sizes vary by query, so measure them with an unbudgeted probe
  // first; the budget below fits exactly A plus C, never B.
  QueryCache probe;
  run_cached(probe, reachable_query(), lim);
  const std::size_t size_a = probe.totals().resident_bytes;
  run_cached(probe, unreachable_query(), lim);
  const std::size_t size_ab = probe.totals().resident_bytes;
  run_cached(probe, open_query(2, 0604, goal_file_in_rdfset(1, 3)), lim);
  const std::size_t size_c = probe.totals().resident_bytes - size_ab;

  QueryCache cache;
  SearchResult a = run_cached(cache, reachable_query(), lim);
  run_cached(cache, unreachable_query(), lim);
  // Touching A makes B the least-recently-used entry, so when the budget
  // bites it is B that goes — recency is refreshed on hits, not just stores.
  SearchResult touch = run_cached(cache, reachable_query(), lim);
  EXPECT_EQ(touch.stats.cache_hits, 1u);
  cache.set_byte_budget(size_a + size_c);
  run_cached(cache, open_query(2, 0604, goal_file_in_rdfset(1, 3)), lim);
  EXPECT_GT(cache.totals().evictions, 0u);
  SearchResult still_hit = run_cached(cache, reachable_query(), lim);
  EXPECT_EQ(still_hit.stats.cache_hits, 1u);
  expect_same_work(a, still_hit);
}

// --- Transient persistent-file I/O is retried with bounded backoff --------

class CacheStoreRetryTest : public PersistentCacheTest {
 protected:
  void SetUp() override {
    PersistentCacheTest::SetUp();
    support::faultpoint::disarm_all();
  }
  void TearDown() override {
    support::faultpoint::disarm_all();
    PersistentCacheTest::TearDown();
  }
};

TEST_F(CacheStoreRetryTest, SaveRetriesThroughOneInjectedFault) {
  QueryCache cache;
  run_cached(cache, reachable_query(), states_budget(10'000));
  support::faultpoint::arm("rosa.cache_store");
  std::string warn;
  // One injected fault = one failed attempt; the retry succeeds and the
  // file is complete and loadable.
  EXPECT_TRUE(cache.save_file(path_, &warn)) << warn;
  EXPECT_TRUE(warn.empty());
  EXPECT_FALSE(support::faultpoint::armed("rosa.cache_store"));
  QueryCache reader;
  EXPECT_TRUE(reader.load_file(path_, &warn)) << warn;
  EXPECT_EQ(reader.totals().loaded, 1u);
}

TEST_F(CacheStoreRetryTest, SaveDegradesAfterExhaustingAttempts) {
  QueryCache cache;
  run_cached(cache, reachable_query(), states_budget(10'000));
  // A hopeless destination fails every attempt; an injected fault on the
  // middle retry (arming is single-shot, so only one attempt can be faulted)
  // is folded into the same bounded-attempt accounting.
  support::faultpoint::arm("rosa.cache_store", 2);
  std::string warn;
  EXPECT_FALSE(cache.save_file("/nonexistent-dir/sub/cache.rosa", &warn));
  EXPECT_NE(warn.find("attempts"), std::string::npos) << warn;
  EXPECT_FALSE(support::faultpoint::armed("rosa.cache_store"));
}

TEST_F(CacheStoreRetryTest, PersistentSaveToBadDirectoryStillFails) {
  QueryCache cache;
  run_cached(cache, reachable_query(), states_budget(10'000));
  std::string warn;
  // A genuinely impossible path exhausts the retries and degrades with a
  // warning — never throws, never loops forever.
  EXPECT_FALSE(cache.save_file("/nonexistent-dir/sub/cache.rosa", &warn));
  EXPECT_FALSE(warn.empty());
}

TEST_F(CacheStoreRetryTest, LoadRetriesThroughOneInjectedFault) {
  QueryCache writer;
  run_cached(writer, reachable_query(), states_budget(10'000));
  ASSERT_TRUE(writer.save_file(path_));
  support::faultpoint::arm("rosa.cache_store");
  QueryCache reader;
  std::string warn;
  EXPECT_TRUE(reader.load_file(path_, &warn)) << warn;
  EXPECT_EQ(reader.totals().loaded, 1u);
  EXPECT_FALSE(support::faultpoint::armed("rosa.cache_store"));
}

// --- Regression: ProcObj::creds() normalizes supplementary groups once ----

TEST(CredsRegressionTest, ProcCredsRoundTripNormalizesOnce) {
  ProcObj p;
  p.uid = {1000, 0, 1000};
  p.gid = {100, 100, 100};
  p.supplementary = {7, 3, 7, 5};
  caps::Credentials c = p.creds();
  EXPECT_EQ(c.uid, p.uid);
  EXPECT_EQ(c.gid, p.gid);
  // Sorted, deduplicated, and normalized exactly once (the old
  // double-construction passed the groups through the constructor AND
  // set_supplementary()).
  EXPECT_EQ(c.supplementary, (std::vector<caps::Gid>{3, 5, 7}));
  EXPECT_TRUE(c.in_group(5));
  EXPECT_FALSE(c.in_group(4));
  // Stable: deriving credentials twice gives identical values.
  EXPECT_EQ(c, p.creds());
}

}  // namespace
}  // namespace pa::rosa
