// Tests for the content-addressed ROSA verdict cache (rosa/fingerprint.h +
// rosa/cache.h): fingerprint stability/sensitivity, the one reuse rule
// (an entry answers only its own fingerprint plus budget) and the
// storability rule for ResourceLimits, persistent-file robustness
// (corrupt/stale/truncated files degrade to a cold cache, never wrong
// answers), and differential cached-vs-uncached equivalence through the
// full pipeline — the property that makes it safe to share one cache
// across a batch, a daemon's jobs, or repeat runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "attacks/attacks.h"
#include "privanalyzer/pipeline.h"
#include "privmodels/solaris.h"
#include "rosa/cache.h"
#include "rosa/checker.h"
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
                        const SearchLimits& lim) {
  return run_queries({&q, 1}, lim, &cache)[0];
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
  Query more_groups = reachable_query();
  more_groups.initial.add_group(2000);
  more_groups.initial.normalize();
  EXPECT_NE(base, hex_of(more_groups));

  // Each message field: the process, one argument, the privileges.
  Query other_proc = reachable_query();
  other_proc.messages[0].proc = 2;
  EXPECT_NE(base, hex_of(other_proc));
  Query other_arg = reachable_query();
  other_arg.messages[0].args[1] = kAccWrite;
  EXPECT_NE(base, hex_of(other_arg));
  Query other_privs = reachable_query();
  other_privs.messages[0].privs = caps::CapSet{caps::Capability::DacOverride};
  EXPECT_NE(base, hex_of(other_privs));

  // The message mask: full against proper, and two proper masks.
  Query first_only = reachable_query();
  first_only.msg_mask = 0b01;
  Query second_only = reachable_query();
  second_only.msg_mask = 0b10;
  EXPECT_NE(base, hex_of(first_only));
  EXPECT_NE(base, hex_of(second_only));
  EXPECT_NE(hex_of(first_only), hex_of(second_only));
}

TEST(FingerprintTest, MaskBitsPastTheMessagesAreIgnored) {
  // reachable_query() has two messages, so only mask bits 0 and 1 select
  // anything.
  const std::uint64_t past = (std::uint64_t{1} << 2) | (std::uint64_t{1} << 63);
  Query full = reachable_query();
  full.msg_mask = 0b11;
  EXPECT_EQ(hex_of(reachable_query()), hex_of(full));
  full.msg_mask |= past;
  EXPECT_EQ(hex_of(reachable_query()), hex_of(full));
  Query proper = reachable_query();
  proper.msg_mask = 0b01;
  const std::string narrowed = hex_of(proper);
  proper.msg_mask |= past;
  EXPECT_EQ(narrowed, hex_of(proper));
}

/// What two cells must share to walk the same state graph, spelled out
/// field by field: the world_digest ingredients under default limits.
std::string world_key(const Query& q) {
  const AccessChecker& checker = q.checker ? *q.checker : linux_checker();
  std::string key = str::cat(static_cast<int>(q.attacker), "|",
                             checker.cache_key(), "|", q.initial.canonical(),
                             "|users");
  for (int u : q.initial.users()) key += str::cat(" ", u);
  key += "|groups";
  for (int g : q.initial.groups()) key += str::cat(" ", g);
  key += "|messages";
  for (const Message& m : q.messages) key += " " + m.to_string();
  return key;
}

/// The question a cell asks: its world, its goal and its effective mask.
std::string question_key(const Query& q) {
  const std::uint64_t full =
      q.messages.size() >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << q.messages.size()) - 1;
  return str::cat(world_key(q), "|", q.goal.cache_key(), "|",
                  q.msg_mask & full);
}

/// Record that `key` hashed to `value`, expecting a one-to-one map: every
/// key one value, every value one key.
void expect_one_to_one(std::map<std::string, Fingerprint>& by_key,
                       std::map<Fingerprint, std::string>& by_value,
                       const std::string& key, const Fingerprint& value) {
  EXPECT_EQ(by_key.try_emplace(key, value).first->second, value) << key;
  EXPECT_EQ(by_value.try_emplace(value, key).first->second, key)
      << value.to_hex();
}

// Over every baseline and filtered cell of the eight paper programs under
// all three attacker models, two cells share a fingerprint exactly when
// they ask the same question, and a world digest exactly when they share
// the world.
TEST(FingerprintTest, PaperCellsPartitionByQuestionAndByWorld) {
  std::map<std::string, Fingerprint> fp_of_question;
  std::map<Fingerprint, std::string> question_of_fp;
  std::map<std::string, Fingerprint> digest_of_world;
  std::map<Fingerprint, std::string> world_of_digest;
  std::size_t cells = 0;
  for (const rosa_test::EpochInput& e : rosa_test::paper_epoch_inputs()) {
    SCOPED_TRACE(e.label);
    const std::array<Query, 4> baseline =
        attacks::build_attack_queries(e.input);
    std::vector<Query> epoch(baseline.begin(), baseline.end());
    epoch.insert(epoch.end(), baseline.begin(), baseline.end());
    attacks::narrow_to_allowlist(std::span<Query>(epoch).subspan(4),
                                 e.allowlist);
    for (const Query& q : epoch) {
      const std::optional<Fingerprint> fp = fingerprint_query(q, {});
      const std::optional<Fingerprint> world = world_digest(q, {});
      ASSERT_TRUE(fp.has_value());
      ASSERT_TRUE(world.has_value());
      expect_one_to_one(fp_of_question, question_of_fp, question_key(q), *fp);
      expect_one_to_one(digest_of_world, world_of_digest, world_key(q),
                        *world);
      ++cells;
    }
  }
  // The corpus repeats questions (epochs with equal worlds, filtered cells
  // their allowlist leaves whole) and puts several questions in one world.
  EXPECT_LT(fp_of_question.size(), cells);
  EXPECT_LT(digest_of_world.size(), fp_of_question.size());
}

TEST(FingerprintTest, BudgetsDoNotAffectTheFingerprint) {
  SearchLimits small = states_budget(10);
  SearchLimits big = states_budget(1'000'000);
  big.max_bytes = 1u << 30;
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

// --- In-memory reuse and storability ---------------------------------------

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
  // A hit is verbatim, down to the stored wall time.
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
  std::vector<SearchResult> results = run_queries(queries, lim, &cache);
  ASSERT_EQ(results.size(), queries.size());

  std::size_t misses = 0, hits = 0;
  for (const SearchResult& r : results) {
    EXPECT_EQ(r.verdict, Verdict::Reachable);
    expect_same_work(results[0], r);
    misses += r.stats.cache_misses;
    hits += r.stats.cache_hits;
  }
  // One search ran; every duplicate adopted its result.
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, queries.size() - 1);
  QueryCache::Totals t = cache.totals();
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.hits, queries.size() - 1);
  EXPECT_EQ(t.entries, 1u);
}

TEST(QueryCacheTest, EachBudgetIsItsOwnEntry) {
  QueryCache cache;
  const Query q = unreachable_query();
  const SearchLimits a = states_budget(10'000);
  const SearchResult at_a = run_cached(cache, q, a);
  EXPECT_EQ(at_a.stats.cache_misses, 1u);
  ASSERT_EQ(at_a.verdict, Verdict::Unreachable);
  const std::size_t u = at_a.states_explored();  // the size of the space
  ASSERT_GT(u, 1u);

  // Budget U is another entry. The search declares ResourceLimit the
  // instant it inserts the U-th state, so exhausting exactly U states under
  // budget U is not Unreachable, and the stored verdict must not say it is.
  const SearchLimits b = states_budget(u);
  const SearchResult at_b = run_cached(cache, q, b);
  EXPECT_EQ(at_b.stats.cache_misses, 1u);
  EXPECT_EQ(at_b.verdict, Verdict::ResourceLimit);
  expect_same_work(search(q, b), at_b);

  // Each budget now hits its own entry.
  const SearchResult hit_a = run_cached(cache, q, a);
  EXPECT_EQ(hit_a.stats.cache_hits, 1u);
  expect_same_work(at_a, hit_a);
  const SearchResult hit_b = run_cached(cache, q, b);
  EXPECT_EQ(hit_b.stats.cache_hits, 1u);
  expect_same_work(at_b, hit_b);
  EXPECT_EQ(cache.totals().entries, 2u);

  // A save and load keeps both.
  const std::string path =
      str::cat(::testing::TempDir(), "/rosa_cache_test.EachBudget.",
               ::getpid(), ".cache");
  ASSERT_TRUE(cache.save_file(path));
  QueryCache reader;
  std::string warn;
  EXPECT_TRUE(reader.load_file(path, &warn)) << warn;
  std::remove(path.c_str());
  EXPECT_EQ(reader.totals().loaded, 2u);
  expect_same_work(at_a, run_cached(reader, q, a));
  expect_same_work(at_b, run_cached(reader, q, b));
  EXPECT_EQ(reader.totals().misses, 0u);
}

TEST(QueryCacheTest, ByteBudgetIsPartOfTheExactSignature) {
  QueryCache cache;
  SearchLimits bounded = states_budget(10'000);
  bounded.max_bytes = 1u << 30;  // generous: never actually fires
  SearchResult miss = run_cached(cache, reachable_query(), bounded);
  ASSERT_EQ(miss.verdict, Verdict::Reachable);
  EXPECT_EQ(miss.stats.cache_misses, 1u);

  // An identical byte budget replays verbatim.
  SearchResult hit = run_cached(cache, reachable_query(), bounded);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(miss, hit);

  // A different byte budget is a different key (the stored entry proves
  // nothing about where another byte cap would have fired).
  SearchLimits other = bounded;
  other.max_bytes = 1u << 29;
  SearchResult re = run_cached(cache, reachable_query(), other);
  EXPECT_EQ(re.stats.cache_misses, 1u);
  expect_same_work(miss, re);  // same work either way — the cap never fires
}

TEST(QueryCacheTest, ByteLimitedResourceLimitIsStoredUnderItsBudget) {
  QueryCache cache;
  SearchLimits starved = states_budget(10'000);
  starved.max_bytes = 1;  // the first successor already exceeds this
  SearchResult rl = run_cached(cache, unreachable_query(), starved);
  ASSERT_EQ(rl.verdict, Verdict::ResourceLimit);
  EXPECT_EQ(rl.stats.cache_misses, 1u);
  // The byte budget is deterministic and part of the key, so the
  // ResourceLimit is stored, and the same starved budget replays it.
  EXPECT_EQ(cache.totals().entries, 1u);
  SearchResult hit = run_cached(cache, unreachable_query(), starved);
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(rl, hit);

  // A states-only request is another key and searches afresh.
  SearchResult fresh =
      run_cached(cache, unreachable_query(), states_budget(10'000));
  EXPECT_EQ(fresh.stats.cache_misses, 1u);
  EXPECT_EQ(fresh.verdict, Verdict::Unreachable);
}

TEST(QueryCacheTest, CancelledSearchesAreNeverStored) {
  // The stop condition rises while the search runs (a batch never starts a
  // query whose limits have already expired): the goal raises it when it
  // tests the root, so the search stops at its first frontier pop. Same
  // predicate, same key: the query keeps reachable_query()'s fingerprint.
  auto expect_not_stored = [](const SearchLimits& lim,
                              const std::function<void()>& raise) {
    QueryCache cache;
    Query q = reachable_query();
    q.goal = Goal(
        [raise, goal = q.goal](const State& st) {
          raise();
          return goal(st);
        },
        q.goal.cache_key());
    SearchResult stopped = run_cached(cache, q, lim);
    EXPECT_EQ(stopped.verdict, Verdict::ResourceLimit);
    EXPECT_EQ(stopped.stats.cache_misses, 1u);
    // A stopped search proves nothing about its budget.
    EXPECT_EQ(cache.totals().entries, 0u);

    SearchResult fresh =
        run_cached(cache, reachable_query(), states_budget(10'000));
    EXPECT_EQ(fresh.stats.cache_misses, 1u);
    EXPECT_EQ(fresh.verdict, Verdict::Reachable);
  };

  std::atomic<bool> stop{false};
  SearchLimits cancelled = states_budget(10'000);
  cancelled.cancel = &stop;
  {
    SCOPED_TRACE("cancel flag");
    expect_not_stored(cancelled, [&stop] { stop = true; });
  }
  // Far enough ahead that the batch starts the query; the goal waits it out.
  SearchLimits timed = states_budget(10'000);
  timed.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  {
    SCOPED_TRACE("deadline");
    expect_not_stored(timed, [&timed] {
      std::this_thread::sleep_until(timed.deadline);
    });
  }
}

// --- Persistence -----------------------------------------------------------

class PersistentCacheTest : public ::testing::Test {
 protected:
  // ctest runs every case as its own process, concurrently, so each case
  // gets its own file: named after the running test and the pid.
  // Parameterized names contain '/', which must not become a directory.
  std::string path_ = [] {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = str::cat(test->test_suite_name(), ".", test->name());
    std::replace(name.begin(), name.end(), '/', '.');
    return str::cat(::testing::TempDir(), "/rosa_cache_test.", name, ".",
                    ::getpid(), ".cache");
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

/// A file in an older format: its version and one entry line's fields
/// after the fingerprint.
struct StaleFile {
  const char* version;
  const char* entry;
};

void PrintTo(const StaleFile& f, std::ostream* os) { *os << f.version; }

class StaleHeaderTest : public PersistentCacheTest,
                        public ::testing::WithParamInterface<StaleFile> {};

TEST_P(StaleHeaderTest, ColdStartThenWarmRewrite) {
  write_file(str::cat("privanalyzer-rosa-cache ", GetParam().version,
                      " model=", kRosaModelVersion, "\ne ",
                      std::string(32, 'a'), " ", GetParam().entry,
                      "\nend\n"));
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

  // The rewrite is a v10 file with 14-field entry lines, and it loads warm.
  ASSERT_TRUE(cache.save_file(path_));
  const std::string text = read_file();
  EXPECT_TRUE(text.starts_with("privanalyzer-rosa-cache v10 model=")) << text;
  const std::size_t line = text.find("\ne ") + 1;
  EXPECT_EQ(str::split(text.substr(line, text.find('\n', line) - line), ' ')
                .size(),
            14u);
  QueryCache reader;
  ASSERT_TRUE(reader.load_file(path_, &warn)) << warn;
  EXPECT_EQ(reader.totals().loaded, 1u);
  const SearchResult hit =
      run_cached(reader, unreachable_query(), states_budget(10'000));
  EXPECT_EQ(hit.stats.cache_hits, 1u);
  expect_same_work(r, hit);
}

INSTANTIATE_TEST_SUITE_P(
    OldFormats, StaleHeaderTest,
    ::testing::Values(
        // v5 dropped v4's spill and partial-order-reduction fields: 25.
        StaleFile{"v4",
                  "UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 4 10000 0 0 0 2 0 0"
                  " 0 0 0 0 0"},
        // v6 dropped v5's symmetry-pruned counter: 21.
        StaleFile{"v5",
                  "UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 4 10000 0 0 0 2 0 0"
                  " 0"},
        // v7 keyed entries by budget and dropped v6's decisive-state and
        // decisive-budget fields: 20.
        StaleFile{"v6",
                  "UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 4 10000 0 0 0 2 0 0"},
        // v8 keeps v7's 17 fields; its answers were searched with the
        // per-layer goal probe, so v7's stored counters are stale.
        StaleFile{"v7",
                  "10000 0 0 0 UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 0"},
        // v10 dropped v9's retry-round and growth-factor key fields and its
        // retry count: 14 of 17.
        StaleFile{"v9",
                  "10000 0 0 0 UNREACHABLE 4 4 0.001 0 0 2 3000 900 0 0"}));

// v9 keeps v8's lines but derives every fingerprint from a world digest,
// so a v8 file differs from a v9 one only in key values no parser can
// check, and v10 keeps v9's answers under a shorter key. A header naming
// either must reject the file whole, however well its lines parse.
TEST_F(PersistentCacheTest, V8HeaderRejectsAnOtherwiseValidFile) {
  QueryCache writer;
  run_cached(writer, reachable_query(), states_budget(10'000));
  run_cached(writer, unreachable_query(), states_budget(10'000));
  ASSERT_TRUE(writer.save_file(path_));
  std::string warn;
  QueryCache control;
  ASSERT_TRUE(control.load_file(path_, &warn)) << warn;
  ASSERT_EQ(control.totals().loaded, 2u);

  const std::string saved = read_file();
  for (const char* stale : {"v8", "v9"}) {
    SCOPED_TRACE(stale);
    write_file(saved);
    tamper("privanalyzer-rosa-cache v10 ",
           str::cat("privanalyzer-rosa-cache ", stale, " "));
    QueryCache cache;
    EXPECT_FALSE(cache.load_file(path_, &warn));
    EXPECT_NE(warn.find("stale version/model header"), std::string::npos)
        << warn;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.totals().loaded, 0u);
  }
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
  const SearchResult reach =
      run_cached(writer, reachable_query(), states_budget(10'000));
  run_cached(writer, unreachable_query(), states_budget(10'000));
  ASSERT_FALSE(reach.witness.empty());
  ASSERT_TRUE(writer.save_file(path_));
  const std::string saved = read_file();

  const Action& step = reach.witness[0];
  const std::string step_head =
      str::cat("\nw ", sys_name(step.sys), " ", step.proc, " ");
  const std::vector<std::pair<std::string, std::string>> tamperings = {
      {"\ne ", "\nq "},  // one entry line's tag
      // A v9 key, its retry-round and growth-factor fields still in place.
      {" 10000 0 ", " 10000 0 0 0 "},
      // A privilege bit past the 38 capabilities, at the boundary and
      // beyond: loading it would replay the step as needing no privilege.
      {str::cat(step_head, step.privs.raw(), " "),
       str::cat(step_head, std::uint64_t{1} << caps::kNumCapabilities, " ")},
      {str::cat(step_head, step.privs.raw(), " "),
       str::cat(step_head, std::uint64_t{1} << 40, " ")},
  };
  for (const auto& [from, to] : tamperings) {
    SCOPED_TRACE(to);
    write_file(saved);
    tamper(from, to);
    QueryCache cache;
    std::string warn;
    EXPECT_FALSE(cache.load_file(path_, &warn));
    EXPECT_FALSE(warn.empty());
    // All-or-nothing: the intact entry is NOT salvaged.
    EXPECT_EQ(cache.size(), 0u);
  }
}

// --- Differential equivalence through the full pipeline --------------------

/// Options for a run at `max_states`; a cached run gets a fresh instance
/// of its own, since analyze_program makes none without one or a file.
privanalyzer::PipelineOptions pipeline_options(bool cached,
                                               std::size_t max_states) {
  privanalyzer::PipelineOptions opts;
  opts.rosa_limits.max_states = max_states;
  if (cached) opts.rosa_cache_instance = std::make_shared<QueryCache>();
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
    SCOPED_TRACE(spec.name);
    privanalyzer::ProgramAnalysis uncached = privanalyzer::analyze_program(
        spec, pipeline_options(false, 150'000));
    privanalyzer::ProgramAnalysis cached = privanalyzer::analyze_program(
        spec, pipeline_options(true, 150'000));
    expect_equivalent_analyses(uncached, cached);
    // The uncached run never consults a cache; the cached run memoizes
    // every keyed cell it searches.
    rosa::SearchStats us = uncached.search_stats();
    EXPECT_EQ(us.cache_hits + us.cache_misses, 0u);
    rosa::SearchStats cs = cached.search_stats();
    EXPECT_GT(cs.cache_misses, 0u);
  }
}

// passwd's largest searched cell takes 4 states, so a budget of 3 starves
// some cells while others are still decided; a ResourceLimit is stored and
// replayed like any other verdict.
TEST(CachePipelineTest, ResourceLimitRunsStayBitIdentical) {
  programs::ProgramSpec spec = programs::make_passwd();
  privanalyzer::ProgramAnalysis uncached =
      privanalyzer::analyze_program(spec, pipeline_options(false, 3));
  privanalyzer::ProgramAnalysis cached =
      privanalyzer::analyze_program(spec, pipeline_options(true, 3));
  expect_equivalent_analyses(uncached, cached);
  std::size_t timeouts = 0;
  for (const attacks::EpochVerdicts& ev : cached.verdicts)
    for (attacks::CellVerdict v : ev.verdicts)
      timeouts += v == attacks::CellVerdict::Timeout;
  EXPECT_GT(timeouts, 0u);
}

TEST(CachePipelineTest, SharedCacheMakesRepeatAnalysesAllHits) {
  programs::ProgramSpec spec = programs::make_passwd();
  const privanalyzer::PipelineOptions opts = pipeline_options(true, 150'000);

  privanalyzer::ProgramAnalysis first =
      privanalyzer::analyze_program(spec, opts);
  privanalyzer::ProgramAnalysis second =
      privanalyzer::analyze_program(spec, opts);
  expect_equivalent_analyses(first, second);

  // Every cell of the repeat run that the prover leaves to the search is
  // served from memory; proved cells are never looked up.
  rosa::SearchStats stats = second.search_stats();
  const std::size_t cells =
      second.verdicts.size() * attacks::modeled_attacks().size();
  EXPECT_GT(stats.proved, 0u);
  EXPECT_EQ(stats.cache_hits, cells - stats.proved);
  EXPECT_EQ(stats.cache_misses, 0u);
}

// privanalyzerd's traffic without sockets: workers run separate analyses
// at once against one resident cache. Four threads each analyze the same
// five programs, each starting at a different program, so lookups and
// stores of equal fingerprints race on the cache's lock. Every analysis
// must equal a serial uncached run of its program in verdicts, witnesses,
// fractions and work counters. Only the cache counters may differ, and
// the fused_* counters with them, since they describe the shared
// exploration a hit skips.
TEST(CachePipelineTest, ConcurrentAnalysesShareOneCache) {
  const std::vector<programs::ProgramSpec> specs = {
      programs::make_passwd(), programs::make_su(), programs::make_ping(),
      programs::make_passwd_refactored(), programs::make_su_refactored()};
  std::vector<privanalyzer::ProgramAnalysis> reference;
  for (const programs::ProgramSpec& spec : specs)
    reference.push_back(privanalyzer::analyze_program(
        spec, pipeline_options(false, 150'000)));

  const privanalyzer::PipelineOptions shared = pipeline_options(true, 150'000);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<privanalyzer::ProgramAnalysis>> got(
      kThreads, std::vector<privanalyzer::ProgramAnalysis>(specs.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < specs.size(); ++k) {
        const std::size_t p = (t + k) % specs.size();
        got[t][p] = privanalyzer::analyze_program(specs[p], shared);
      }
    });
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t p = 0; p < specs.size(); ++p) {
      SCOPED_TRACE(str::cat(specs[p].name, " thread ", t));
      const privanalyzer::ProgramAnalysis& a = got[t][p];
      expect_equivalent_analyses(reference[p], a);
      ASSERT_EQ(a.verdicts.size(), reference[p].verdicts.size());
      for (std::size_t e = 0; e < a.verdicts.size(); ++e)
        for (std::size_t atk = 0; atk < a.verdicts[e].results.size(); ++atk) {
          const SearchStats& want = reference[p].verdicts[e].results[atk].stats;
          const SearchStats& have = a.verdicts[e].results[atk].stats;
          EXPECT_EQ(want.peak_bytes, have.peak_bytes);
          EXPECT_EQ(want.state_bytes, have.state_bytes);
        }
    }
  EXPECT_GT(shared.rosa_cache_instance->totals().hits, 0u);
}

TEST(CachePipelineTest, PersistentFileWarmsARepeatRun) {
  const std::string path =
      ::testing::TempDir() + "/cache_pipeline_test.cache";
  std::remove(path.c_str());
  programs::ProgramSpec spec = programs::make_passwd();

  // No shared instance: analyze_program makes a cache for the file alone,
  // loads it, and saves it after the matrix.
  privanalyzer::PipelineOptions cold = pipeline_options(false, 150'000);
  cold.rosa_cache_file = path;
  privanalyzer::ProgramAnalysis first =
      privanalyzer::analyze_program(spec, cold);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.search_stats().cache_misses, 0u);

  // A fresh process (modeled by a fresh options struct → a fresh cache for
  // the file) loads the file and answers every cell without searching.
  privanalyzer::PipelineOptions warm = pipeline_options(false, 150'000);
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
