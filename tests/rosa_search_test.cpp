// Tests for ROSA's bounded search, including the paper's worked example
// (Figs. 2-4): chown + chmod + open reaches /etc/passwd despite mode 000.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "attacks/attacks.h"
#include "rosa/query.h"
#include "rosa/search.h"

namespace pa::rosa {
namespace {

using caps::Capability;
using caps::CapSet;

/// A goal that never holds: process 2 is absent from every world here, and
/// processes are never created.
const Goal kNever = goal_proc_terminated(2);

/// The exact configuration of Fig. 2: process 1 (uids 10/11/12), /etc dir,
/// /etc/passwd with mode 000 owned by 40:41, one User object (uid 10), and
/// four one-shot messages.
Query paper_example() {
  Query q;
  ProcObj p;
  p.id = 1;
  p.uid = {11, 10, 12};  // paper order: euid 10, ruid 11, suid 12
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
  q.description = "file 3 in rdfset of process 1";
  q.initial.normalize();
  return q;
}

TEST(SearchTest, PaperExampleIsReachable) {
  SearchResult r = search(paper_example());
  EXPECT_EQ(r.verdict, Verdict::Reachable);
  // The paper's solution: chown to own the file, chmod it readable, open.
  ASSERT_GE(r.witness.size(), 3u);
  bool saw_chown = false, saw_chmod = false, saw_open = false;
  for (const Action& step : r.witness) {
    saw_chown |= step.sys == Sys::Chown;
    saw_chmod |= step.sys == Sys::Chmod;
    saw_open |= step.sys == Sys::Open;
  }
  EXPECT_TRUE(saw_chown);
  EXPECT_TRUE(saw_chmod);
  EXPECT_TRUE(saw_open);
}

TEST(SearchTest, WithoutChownUnreachable) {
  Query q = paper_example();
  // Remove the chown message: chmod alone cannot help (not the owner), and
  // setuid can only reach uid 10, which is not the file owner.
  q.messages.erase(q.messages.begin() + 2);
  SearchResult r = search(q);
  EXPECT_EQ(r.verdict, Verdict::Unreachable);
  EXPECT_TRUE(r.witness.empty());
}

TEST(SearchTest, GoalInInitialState) {
  Query q = paper_example();
  q.initial.find_proc(1)->rdfset.insert(3);
  SearchResult r = search(q);
  EXPECT_EQ(r.verdict, Verdict::Reachable);
  EXPECT_TRUE(r.witness.empty());  // zero steps needed
}

TEST(SearchTest, MessagesAreOneShot) {
  // A single open-read message cannot produce a write handle.
  Query q = paper_example();
  q.goal = goal_file_in_wrfset(1, 3);
  SearchResult r = search(q);
  // open() is read-only in this message set; write never happens.
  EXPECT_EQ(r.verdict, Verdict::Unreachable);
}

TEST(SearchTest, StateLimitYieldsResourceLimit) {
  Query q = paper_example();
  q.goal = kNever;
  SearchLimits limits;
  limits.max_states = 3;
  SearchResult r = search(q, limits);
  EXPECT_EQ(r.verdict, Verdict::ResourceLimit);
}

TEST(SearchTest, TimeLimitYieldsResourceLimit) {
  Query q = paper_example();
  q.goal = kNever;
  SearchLimits limits;
  limits.max_states = 0;                   // unlimited states
  limits.deadline = deadline_after(1e-9);  // instantly passed
  SearchResult r = search(q, limits);
  // Either the tiny space finished first or the clock fired; both verdicts
  // are legal, but with a space this small exhaustion wins. Use a goal
  // check on a bigger space instead: widen the pools.
  for (int u = 100; u < 130; ++u) q.initial.add_user(u);
  q.initial.normalize();
  r = search(q, limits);
  EXPECT_EQ(r.verdict, Verdict::ResourceLimit);
}

TEST(SearchTest, TimeLimitRespectedWithHugeFrontierAndTinyFanout) {
  // Regression for the clock blind spot: the time check used to fire only
  // every 64 message applications inside the per-state loop, so a search
  // whose frontier is enormous but whose per-state fanout is tiny could
  // blow past its time budget unboundedly. The deadline check now runs on
  // every frontier pop.
  Query q = paper_example();
  q.goal = kNever;
  // Widen the wildcard pools massively: setuid/chown instantiate against
  // every user, creating a frontier of thousands of states where each state
  // has few remaining messages (small fanout per pop).
  for (int u = 100; u < 400; ++u) q.initial.add_user(u);
  for (int g = 500; g < 700; ++g) q.initial.add_group(g);
  q.initial.normalize();

  SearchLimits limits;
  limits.max_states = 0;      // unlimited states: only the clock can stop us
  const auto t0 = std::chrono::steady_clock::now();
  limits.deadline = deadline_after(0.05);
  SearchResult r = search(q, limits);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.verdict, Verdict::ResourceLimit);
  // One frontier pop past the budget is the permitted overshoot; a second
  // of slack keeps slow CI honest while still catching the unbounded case.
  EXPECT_LT(wall, 1.0);
}

TEST(SearchTest, DedupCollapsesPermutations) {
  // Two commuting messages: with dedup the diamond closes (3 distinct
  // non-initial states), without it both orders are explored (4).
  Query q;
  ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  q.initial.files.push_back(FileObj{2, {1000, 1000, os::Mode(0600)}});
  q.initial.files.push_back(FileObj{3, {1000, 1000, os::Mode(0600)}});
  q.initial.set_name(2, "a");
  q.initial.set_name(3, "b");
  q.initial.set_users({1000});
  q.initial.set_groups({1000});
  q.initial.normalize();
  q.messages = {msg_open(1, 2, kAccRead, {}), msg_open(1, 3, kAccRead, {})};
  q.goal = kNever;

  SearchResult with_dedup = search(q);
  EXPECT_EQ(with_dedup.verdict, Verdict::Unreachable);
  EXPECT_EQ(with_dedup.states_explored(), 4u);  // init, a, b, ab

  SearchLimits no_dedup;
  no_dedup.no_dedup = true;
  SearchResult without = search(q, no_dedup);
  EXPECT_EQ(without.states_explored(), 5u);  // ab counted twice

  // The diamond closure is exactly one dedup hit, and the accessors mirror
  // the stats counters.
  EXPECT_EQ(with_dedup.stats.dedup_hits, 1u);
  EXPECT_EQ(with_dedup.stats.hash_collisions, 0u);
  EXPECT_EQ(with_dedup.stats.states, with_dedup.states_explored());
  EXPECT_EQ(with_dedup.stats.transitions, with_dedup.transitions());
  EXPECT_GE(with_dedup.stats.peak_frontier, 2u);
  EXPECT_EQ(without.stats.dedup_hits, 0u);
}

TEST(SearchTest, WitnessReplaysToGoal) {
  SearchResult r = search(paper_example());
  ASSERT_EQ(r.verdict, Verdict::Reachable);
  // The witness is ordered root -> goal; its length is bounded by the
  // message count (each message fires at most once).
  EXPECT_LE(r.witness.size(), 4u);
}

TEST(SearchTest, EmptyMessageListOnlyChecksInitial) {
  Query q = paper_example();
  q.messages.clear();
  SearchResult r = search(q);
  EXPECT_EQ(r.verdict, Verdict::Unreachable);
  EXPECT_EQ(r.states_explored(), 1u);
}

TEST(SearchTest, PeakBytesIsPopulatedAndPlausible) {
  SearchResult r = search(paper_example());
  EXPECT_GT(r.stats.peak_bytes, 0u);
  // Every node costs at least sizeof(State); the per-state average must be
  // at least that and under a generous ceiling for such tiny states.
  EXPECT_GE(r.stats.bytes_per_state(), double(sizeof(State)));
  EXPECT_LT(r.stats.bytes_per_state(), 4096.0);
}

TEST(SearchTest, ByteLimitYieldsResourceLimit) {
  Query q = paper_example();
  q.goal = kNever;
  SearchLimits limits;
  limits.max_bytes = 1;  // exhausted by the root node alone
  SearchResult r = search(q, limits);
  EXPECT_EQ(r.verdict, Verdict::ResourceLimit);
  EXPECT_GT(r.stats.peak_bytes, 1u);
}

TEST(SearchTest, ByteLimitIsDeterministic) {
  // Capacity-based accounting must make byte exhaustion reproducible: the
  // same query and limit always stop at the same state count.
  Query q = paper_example();
  q.goal = kNever;
  for (int u = 100; u < 130; ++u) q.initial.add_user(u);
  q.initial.normalize();
  SearchLimits limits;
  limits.max_bytes = 64 * 1024;
  SearchResult a = search(q, limits);
  SearchResult b = search(q, limits);
  EXPECT_EQ(a.verdict, Verdict::ResourceLimit);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_EQ(b.stats.states, a.stats.states);
  EXPECT_EQ(b.stats.peak_bytes, a.stats.peak_bytes);
}

TEST(SearchTest, GenerousByteLimitDoesNotChangeResult) {
  Query q = paper_example();
  SearchResult plain = search(q);
  SearchLimits limits;
  limits.max_bytes = 1u << 30;
  SearchResult bounded = search(q, limits);
  EXPECT_EQ(bounded.verdict, plain.verdict);
  EXPECT_EQ(bounded.stats.states, plain.stats.states);
  EXPECT_EQ(bounded.witness.size(), plain.witness.size());
}

TEST(SearchTest, IncrementalHashMatchesFullRehash) {
  // check_hashes cross-checks the XOR-maintained digest against a from-
  // scratch rehash on every dedup lookup; any divergence aborts.
  Query q = paper_example();
  SearchLimits limits;
  limits.check_hashes = true;
  SearchResult r = search(q, limits);
  EXPECT_EQ(r.verdict, Verdict::Reachable);

  // Also drive the rules that the paper example does not reach (creat,
  // link, rename, unlink, socket/bind, kill) under the cross-check.
  Query wide = paper_example();
  wide.goal = kNever;
  wide.messages.push_back(msg_creat(1, kWild, 0644, {}));
  wide.messages.push_back(msg_link(1, kWild, kWild, {}));
  wide.messages.push_back(msg_rename(1, kWild, kWild, {}));
  wide.messages.push_back(msg_unlink(1, kWild, {}));
  wide.messages.push_back(msg_socket(1, 0, {}));
  wide.messages.push_back(msg_bind(1, kWild, kWild, {caps::Capability::NetBindService}));
  SearchResult rw = search(wide, limits);
  EXPECT_EQ(rw.verdict, Verdict::Unreachable);
  EXPECT_GT(rw.stats.states, 1u);
}

// The paper's §VIII: the refactored programs verify slower because their
// extra users and groups widen the pools wildcard set*id and chown
// arguments range over. The query is bench_rosa_scaling's impossible_query:
// WriteDevMem under CAP_SETGID, unreachable, so the search exhausts the
// space, and every extra uid/gid pair must grow it.
TEST(SearchTest, PoolScalingGrowsTheImpossibleSpace) {
  const std::vector<std::size_t> expected = {56, 131, 254, 437, 692};
  std::size_t previous = 0;
  for (int extra = 0; extra < static_cast<int>(expected.size()); ++extra) {
    SCOPED_TRACE(extra);
    attacks::ScenarioInput in;
    in.permitted = {Capability::Setgid};
    in.creds = caps::Credentials::of_user(1000, 1000);
    in.syscalls = {"setresgid", "open",   "chmod", "chown",
                   "setgid",    "setuid", "unlink"};
    for (int i = 0; i < extra; ++i) {
      in.extra_users.push_back(2000 + i);
      in.extra_groups.push_back(3000 + i);
    }
    const SearchResult r = search(
        attacks::build_attack_query(attacks::AttackId::WriteDevMem, in));
    EXPECT_EQ(r.verdict, Verdict::Unreachable);
    EXPECT_EQ(r.stats.states, expected[static_cast<std::size_t>(extra)]);
    EXPECT_GT(r.stats.states, previous);
    previous = r.stats.states;
  }
}

// Each kind, pinned: its cache key byte for byte (every fingerprint, and so
// every verdict-cache file, hashes it), its enabling set, and its predicate
// on a state where it holds and one where it does not.
TEST(GoalTest, EachKindDerivesItsKeyEnablingSetAndPredicate) {
  State holds;
  ProcObj p;
  p.id = 1;
  p.rdfset.insert(3);
  p.wrfset.insert(4);
  p.running = false;
  holds.procs.push_back(p);
  holds.socks.push_back(SockObj{5, 1, 22});
  State lacks;
  ProcObj q;
  q.id = 1;
  q.rdfset.insert(4);
  q.wrfset.insert(3);
  lacks.procs.push_back(q);
  lacks.socks.push_back(SockObj{5, 1, 8080});

  struct Row {
    Goal goal;
    std::string key;
    SysSet enabling;
  };
  const Row rows[] = {
      {goal_file_in_rdfset(1, 3), "rdfset:1:3", sys_bit(Sys::Open)},
      {goal_file_in_wrfset(1, 4), "wrfset:1:4", sys_bit(Sys::Open)},
      {goal_privileged_port_bound(1), "privport:1", sys_bit(Sys::Bind)},
      {goal_proc_terminated(1), "terminated:1", sys_bit(Sys::Kill)},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.key);
    EXPECT_TRUE(static_cast<bool>(row.goal));
    EXPECT_EQ(row.goal.cache_key(), row.key);
    EXPECT_EQ(row.goal.enabling(), row.enabling);
    EXPECT_TRUE(row.goal(holds));
    EXPECT_FALSE(row.goal(lacks));
  }
  EXPECT_FALSE(static_cast<bool>(Goal{}));
}

TEST(GoalTest, PrivilegedPortGoal) {
  State st;
  st.socks.push_back(SockObj{5, 1, 8080});
  EXPECT_FALSE(goal_privileged_port_bound(1)(st));
  st.socks.push_back(SockObj{6, 1, 22});
  EXPECT_TRUE(goal_privileged_port_bound(1)(st));
  EXPECT_FALSE(goal_privileged_port_bound(2)(st));
}

}  // namespace
}  // namespace pa::rosa
