// Tests for the per-capability exposure report and the ROSA state-graph
// exporter.
#include <gtest/gtest.h>

#include "chronopriv/exposure.h"
#include "privanalyzer/pipeline.h"
#include "rosa/graph.h"
#include "rosa/query.h"
#include "rosa_test_util.h"

namespace pa {
namespace {

using caps::Capability;

TEST(ExposureTest, AggregatesAcrossEpochs) {
  chronopriv::ChronoReport r;
  r.program = "t";
  r.total_instructions = 100;
  chronopriv::EpochRow a;
  a.key.permitted = {Capability::Setuid, Capability::Chown};
  a.instructions = 60;
  a.fraction = 0.6;
  chronopriv::EpochRow b;
  b.key.permitted = {Capability::Setuid};
  b.instructions = 30;
  b.fraction = 0.3;
  chronopriv::EpochRow c;
  c.instructions = 10;
  c.fraction = 0.1;
  r.rows = {a, b, c};

  auto rows = chronopriv::capability_exposure(r);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].capability, Capability::Setuid);
  EXPECT_NEAR(rows[0].fraction, 0.9, 1e-9);
  EXPECT_EQ(rows[0].instructions, 90u);
  EXPECT_EQ(rows[1].capability, Capability::Chown);
  EXPECT_NEAR(rows[1].fraction, 0.6, 1e-9);

  std::string text = chronopriv::render_exposure(r);
  EXPECT_NE(text.find("CapSetuid"), std::string::npos);
  EXPECT_NE(text.find("90"), std::string::npos);
}

TEST(ExposureTest, MatchesPaperNarrativeForPasswd) {
  // §VII-D.1: "CAP_SETUID is available for 63% of passwd's execution, and
  // CAP_CHOWN, CAP_FOWNER, and CAP_DAC_OVERRIDE ... for more than 99%".
  privanalyzer::PipelineOptions opts;
  opts.run_rosa = false;
  auto a = privanalyzer::analyze_program(programs::make_passwd(), opts);
  auto rows = chronopriv::capability_exposure(a.chrono);
  std::map<Capability, double> by_cap;
  for (const auto& e : rows) by_cap[e.capability] = e.fraction;
  EXPECT_NEAR(by_cap[Capability::Setuid], 0.63, 0.03);
  EXPECT_GT(by_cap[Capability::Chown], 0.99);
  EXPECT_GT(by_cap[Capability::Fowner], 0.99);
  EXPECT_GT(by_cap[Capability::DacOverride], 0.99);
  EXPECT_LT(by_cap[Capability::DacReadSearch], 0.05);
}

rosa::Query small_query() {
  rosa::Query q;
  rosa::ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  q.initial.files.push_back(rosa::FileObj{2, {1000, 1000, os::Mode(0600)}});
  q.initial.set_name(2, "f");
  q.initial.set_users({1000});
  q.initial.set_groups({1000});
  q.initial.normalize();
  q.messages = {rosa::msg_open(1, 2, rosa::kAccRead, {}),
                rosa::msg_chmod(1, 2, 0644, {})};
  q.goal = rosa::goal_file_in_rdfset(1, 2);
  return q;
}

TEST(GraphTest, ExploresFullSpace) {
  rosa::StateGraph g = rosa::explore_graph(small_query());
  // States: init, {open}, {chmod}, {open,chmod in both orders -> 2 distinct
  // final states since chmod changes meta}: init, o, c, oc, co... let's
  // just assert structure invariants.
  EXPECT_GE(g.node_count(), 4u);
  EXPECT_GE(g.edges.size(), 4u);
  EXPECT_TRUE(g.any_goal());
  EXPECT_FALSE(g.truncated);
  for (const auto& e : g.edges) {
    EXPECT_LT(e.from, g.node_count());
    EXPECT_LT(e.to, g.node_count());
  }
}

TEST(GraphTest, DotOutputWellFormed) {
  rosa::StateGraph g = rosa::explore_graph(small_query());
  std::string dot = g.to_dot("demo");
  EXPECT_NE(dot.find("digraph demo {"), std::string::npos);
  EXPECT_NE(dot.find("n0 "), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // goal marking
  EXPECT_EQ(dot.back(), '\n');
}

TEST(GraphTest, TruncationRespectsBudget) {
  rosa::Query q = small_query();
  rosa::StateGraph g = rosa::explore_graph(q, /*max_states=*/2);
  EXPECT_LE(g.node_count(), 2u);
  EXPECT_TRUE(g.truncated);
}

TEST(GraphTest, EdgeCountExceedsSearchTransitions) {
  // explore_graph records edges into already-seen states, so it sees at
  // least as many transitions as the deduplicating search.
  rosa::Query q = small_query();
  q.goal = rosa::goal_proc_terminated(2);  // proc 2 is absent: never holds
  rosa::SearchResult r = rosa::search(q);
  rosa::StateGraph g = rosa::explore_graph(q);
  EXPECT_GE(g.edges.size(), r.transitions());
  EXPECT_EQ(g.node_count(), r.states_explored());
}

TEST(GraphTest, CfiOrderingMatchesSearch) {
  // explore_graph must enforce the same CFI message-order constraint as
  // search(): the goal state appears in the graph iff search finds it.
  rosa::Query q = small_query();
  // Reverse the messages so the attack order disagrees with program order
  // for a chain that needs chmod first: make file unreadable & not owned.
  q.initial.find_file(2)->meta = {0, 0, os::Mode(0000)};
  q.messages = {rosa::msg_open(1, 2, rosa::kAccRead, {}),
                rosa::msg_chmod(1, 2, 0644, {caps::Capability::Fowner})};
  q.attacker = rosa::AttackerModel::CfiOrdered;
  EXPECT_EQ(rosa::search(q).verdict, rosa::Verdict::Unreachable);
  rosa::StateGraph g = rosa::explore_graph(q);
  EXPECT_FALSE(g.any_goal());

  q.attacker = rosa::AttackerModel::Full;
  EXPECT_EQ(rosa::search(q).verdict, rosa::Verdict::Reachable);
  EXPECT_TRUE(rosa::explore_graph(q).any_goal());
}

TEST(GraphTest, WalksTheSearchGraphOnEveryUnreachableTableTwoQuery) {
  // The Table-II attack queries pose masked attacks against one union
  // world per epoch; explore_graph must honour the mask (and the CFI gate)
  // exactly like the search, so on every exhausted query the graph has one
  // node per explored state and no goal.
  const rosa_test::Matrix m = rosa_test::build_matrix();
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  std::size_t unreachable = 0;
  for (std::size_t i = 0; i < m.queries.size(); ++i) {
    const rosa::SearchResult r = rosa::search(m.queries[i], limits);
    if (r.verdict != rosa::Verdict::Unreachable) continue;
    SCOPED_TRACE(m.labels[i]);
    ++unreachable;
    const rosa::StateGraph g = rosa::explore_graph(m.queries[i]);
    EXPECT_FALSE(g.truncated);
    EXPECT_EQ(g.node_count(), r.states_explored());
    EXPECT_FALSE(g.any_goal());
  }
  EXPECT_EQ(unreachable, 45u);
}

TEST(TimelineRenderTest, ListsSegments) {
  os::Kernel k;
  os::Pid p = k.spawn("p", caps::Credentials::of_user(1000, 1000),
                      {caps::Capability::Setuid});
  ir::Function dummy("d", 0);
  chronopriv::EpochTracker t;
  t.on_instruction(k.process(p), dummy);
  k.priv_remove(p, {caps::Capability::Setuid});
  t.on_instruction(k.process(p), dummy);
  std::string text = chronopriv::render_timeline(t);
  EXPECT_NE(text.find("2 segments"), std::string::npos);
  EXPECT_NE(text.find("{CapSetuid}"), std::string::npos);
  EXPECT_NE(text.find("{(empty)}"), std::string::npos);
}

}  // namespace
}  // namespace pa
