// Differential test for the fused multi-goal engine (rosa::detail::
// search_fused, reached through rosa::run_queries' world-digest
// grouping): one shared exploration answering all four attacks of an epoch
// must be indistinguishable — bit for bit — from four standalone searches.
// The full Table-III matrix through run_queries, cached and uncached, is
// diffed against one rosa::search per query (a one-member search_fused),
// down to the counters the goldens deliberately omit
// (peak_bytes, state_bytes), and each standalone result is held to the
// goal-probe contract against the probe-free reference loop
// (tests/reference_search.h, rosa_test::expect_probe_contract).
// Fused witnesses must replay on the SimOS kernel, a mixed-attacker batch
// must NOT fuse across world digests, a group whose budget decides one
// member and starves another must match both standalone runs, and the
// pipeline's matrix must match one analyze_epoch call per epoch. The
// one-build epoch constructor (attacks::build_attack_queries) must pose
// exactly the per-attack builder's queries, in one world digest. The
// filtered matrix, each baseline query with its message mask narrowed to an
// allowlist and fused with the baseline, must match the standalone search
// of the sublist world it replaces (or, where the may-reach prover settled
// it, be Unreachable there), and random nested allowlists must agree with
// their sublists and never lose a reachable attack when widened. Every
// counter-exact reference is a rosa::search call, and each is also checked
// against the probe-free reference under the same contract.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "attacks/scenario.h"
#include "privanalyzer/efficacy.h"
#include "rosa/cache.h"
#include "reference_search.h"
#include "rosa/replay.h"
#include "rosa_test_util.h"

namespace pa {
namespace {

using attacks::AttackId;
using rosa_test::Matrix;

/// Everything except wall time and the cache/fused observability counters.
void expect_identical_runs(const rosa::SearchResult& unfused,
                           const rosa::SearchResult& fused) {
  rosa_test::expect_same_work(unfused, fused);
  EXPECT_EQ(unfused.stats.peak_bytes, fused.stats.peak_bytes);
  EXPECT_EQ(unfused.stats.state_bytes, fused.stats.state_bytes);
}

/// `standalone`, the counter-exact reference (a one-member search_fused),
/// held to the goal-probe contract against the probe-free reference loop's
/// result `probe_free` of the same query and limits.
void expect_probe_free_agrees(const rosa::SearchResult& probe_free,
                              const rosa::SearchResult& standalone,
                              const rosa::Query& q,
                              const rosa::SearchLimits& limits) {
  rosa_test::expect_probe_contract(probe_free, standalone, q, limits,
                                   expect_identical_runs,
                                   rosa::reference::search);
}

/// rosa::search of `q`, after checking it against the probe-free reference.
rosa::SearchResult standalone_run(const rosa::Query& q,
                                  const rosa::SearchLimits& limits) {
  rosa::SearchResult standalone = rosa::search(q, limits);
  expect_probe_free_agrees(rosa::reference::search(q, limits), standalone, q,
                           limits);
  return standalone;
}

/// The reference: every query searched on its own, in order.
std::vector<rosa::SearchResult> standalone_runs(
    const std::vector<rosa::Query>& queries, const rosa::SearchLimits& limits) {
  std::vector<rosa::SearchResult> out;
  out.reserve(queries.size());
  for (const rosa::Query& q : queries)
    out.push_back(standalone_run(q, limits));
  return out;
}

void expect_fused_matches_unfused(bool cached) {
  const Matrix m = rosa_test::build_matrix();

  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::vector<rosa::SearchResult> reference =
      standalone_runs(m.queries, limits);

  rosa::QueryCache cache;
  const std::vector<rosa::SearchResult> fused =
      rosa::run_queries(m.queries, limits, cached ? &cache : nullptr);

  ASSERT_EQ(fused.size(), reference.size());
  std::size_t searches_saved = 0;
  std::size_t world_states = 0;
  std::size_t standalone_states = 0;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    SCOPED_TRACE(m.labels[i]);
    expect_identical_runs(reference[i], fused[i]);
    searches_saved += fused[i].stats.fused_searches_saved;
    world_states += fused[i].stats.fused_world_states;
    standalone_states += fused[i].stats.states;
  }
  // The matrix's 96 queries collapse to well under the acceptance bound of
  // 30 distinct explorations: at least 50 whole searches are fanned in. The
  // state reduction floor is structural — bit-identity pins each member's
  // replayed count, so the shared exploration costs exactly the union of the
  // members' decisive prefixes (measured 2.65x on this matrix, 292 member
  // states over 110 union states; asserted at 1.5x for headroom).
  if (!cached) {
    EXPECT_GE(searches_saved, 50u);
    EXPECT_LE(3 * world_states, 2 * standalone_states);
  }
}

TEST(FusedDiffTest, SerialUncachedMatchesUnfused) {
  expect_fused_matches_unfused(false);
}

TEST(FusedDiffTest, SerialCachedMatchesUnfused) {
  expect_fused_matches_unfused(true);
}

// Fused witnesses are not just string-identical to the standalone ones —
// they execute on the SimOS kernel and land in the goal state, like every
// other witness (witness_replay_test.cpp).
TEST(FusedDiffTest, FusedWitnessesReplayOnKernel) {
  const Matrix m = rosa_test::build_matrix();
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::vector<rosa::SearchResult> results =
      rosa::run_queries(m.queries, limits);

  const auto& attacks_list = attacks::modeled_attacks();
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].verdict != rosa::Verdict::Reachable) continue;
    SCOPED_TRACE(m.labels[i]);
    rosa::Materialized world(m.queries[i].initial);
    std::string diag;
    ASSERT_TRUE(world.replay(results[i].witness, &diag)) << diag;
    switch (attacks_list[i % attacks_list.size()].id) {
      case AttackId::ReadDevMem:
        EXPECT_TRUE(world.holds_open(attacks::kVictimProc,
                                     attacks::kDevMemFile, false));
        break;
      case AttackId::WriteDevMem:
        EXPECT_TRUE(world.holds_open(attacks::kVictimProc,
                                     attacks::kDevMemFile, true));
        break;
      case AttackId::BindPrivilegedPort:
        EXPECT_TRUE(world.has_privileged_bind(attacks::kVictimProc));
        break;
      case AttackId::KillServer:
        EXPECT_TRUE(world.is_terminated(attacks::kServerProc));
        break;
    }
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);
}

attacks::ScenarioInput handmade_epoch(rosa::AttackerModel attacker) {
  attacks::ScenarioInput in;
  in.permitted = {caps::Capability::Setuid, caps::Capability::Setgid,
                  caps::Capability::NetBindService};
  in.creds = caps::Credentials::of_user(1000, 1000);
  in.syscalls = {"open", "chown", "setuid", "setgid",
                 "kill", "socket", "bind"};
  in.attacker = attacker;
  return in;
}

// A batch mixing attacker models: each model's four attacks share a world
// digest and fuse, but nothing fuses ACROSS the models — the attacker
// is part of the world, so a group spanning both would explore transitions
// one member's model forbids.
TEST(FusedDiffTest, MixedAttackerBatchFusesOnlyWithinWorlds) {
  std::vector<rosa::Query> queries;
  for (rosa::AttackerModel model :
       {rosa::AttackerModel::Full, rosa::AttackerModel::CfiOrdered}) {
    const attacks::ScenarioInput in = handmade_epoch(model);
    for (const attacks::AttackInfo& a : attacks::modeled_attacks())
      queries.push_back(attacks::build_attack_query(a.id, in));
  }

  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::vector<rosa::SearchResult> reference =
      standalone_runs(queries, limits);
  const std::vector<rosa::SearchResult> fused =
      rosa::run_queries(queries, limits);

  ASSERT_EQ(fused.size(), 8u);
  std::size_t saved = 0;
  for (std::size_t i = 0; i < fused.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical_runs(reference[i], fused[i]);
    // Four goals per world, never eight: no group crosses attacker models.
    EXPECT_EQ(fused[i].stats.fused_group_size, 4u);
    saved += fused[i].stats.fused_searches_saved;
  }
  EXPECT_EQ(saved, 6u);  // two groups, each fanning 4 goals into 1 search
}

// Tight-budget regression: two goals over one shared world, where one is
// decided Reachable within a 2-state budget and the other is starved at
// ResourceLimit — the one fused group here that mixes a decided member
// with a starved one. Each must match its standalone search, through the
// fused loop and through the batch API.
TEST(FusedDiffTest, TightBudgetDecidesOneMemberAndStarvesTheOther) {
  // One world: proc 1 may open each of 3 files (2^3 reachable states). The
  // queries share the world digest, so they fuse.
  rosa::Query fast = rosa_test::open_query(
      3, 0600, rosa::goal_file_in_rdfset(1, 2));  // decided at 2 states
  rosa::Query slow = rosa_test::open_query(
      3, 0600,
      rosa::goal_and(rosa::goal_and(rosa::goal_file_in_rdfset(1, 2),
                                    rosa::goal_file_in_rdfset(1, 3)),
                     rosa::goal_file_in_rdfset(1, 4)));  // the last state
  const rosa::SearchLimits limits = rosa_test::states_budget(2);

  const rosa::SearchResult fast_ref = rosa::search(fast, limits);
  const rosa::SearchResult slow_ref = rosa::search(slow, limits);
  expect_probe_free_agrees(rosa::reference::search(fast, limits), fast_ref,
                           fast, limits);
  expect_probe_free_agrees(rosa::reference::search(slow, limits), slow_ref,
                           slow, limits);
  ASSERT_EQ(fast_ref.verdict, rosa::Verdict::Reachable);
  ASSERT_EQ(slow_ref.verdict, rosa::Verdict::ResourceLimit);

  const std::vector<rosa::Query> group = {fast, slow};
  const std::vector<rosa::SearchResult> fused =
      rosa::detail::search_fused(group, limits);
  ASSERT_EQ(fused.size(), 2u);
  expect_identical_runs(fast_ref, fused[0]);
  expect_identical_runs(slow_ref, fused[1]);

  // And through the public batch API, which routes the pair into one group.
  const std::vector<rosa::SearchResult> batch =
      rosa::run_queries(group, limits);
  ASSERT_EQ(batch.size(), 2u);
  expect_identical_runs(fast_ref, batch[0]);
  expect_identical_runs(slow_ref, batch[1]);
  EXPECT_EQ(batch[0].stats.fused_group_size, 2u);
}

// analyze_epochs assembles each epoch's world once (build_attack_queries)
// and copies it per attack. Every copy must be the query the per-attack
// builder poses, field by field and down to its fingerprint, and the four
// must share one world digest: one fused group per epoch world.
TEST(FusedDiffTest, OneBuildMatchesPerAttackBuilds) {
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  std::size_t epochs = 0;
  for (const rosa_test::EpochInput& e : rosa_test::paper_epoch_inputs()) {
    SCOPED_TRACE(e.label);
    ++epochs;
    const std::array<rosa::Query, 4> cells =
        attacks::build_attack_queries(e.input);
    const std::optional<rosa::Fingerprint> world =
        rosa::world_digest(cells[0], limits);
    ASSERT_TRUE(world.has_value());
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const attacks::AttackInfo& attack = attacks::modeled_attacks()[k];
      SCOPED_TRACE(attack.name);
      const rosa::Query want = attacks::build_attack_query(attack.id, e.input);
      const rosa::Query& got = cells[k];
      EXPECT_EQ(got.initial.canonical(), want.initial.canonical());
      EXPECT_EQ(got.initial.users(), want.initial.users());
      EXPECT_EQ(got.initial.groups(), want.initial.groups());
      ASSERT_TRUE(got.initial.world() && want.initial.world());
      EXPECT_EQ(got.initial.world()->names, want.initial.world()->names);
      ASSERT_EQ(got.messages.size(), want.messages.size());
      for (std::size_t i = 0; i < got.messages.size(); ++i)
        EXPECT_EQ(got.messages[i].to_string(), want.messages[i].to_string());
      EXPECT_EQ(got.attacker, want.attacker);
      EXPECT_EQ(got.checker, want.checker);
      EXPECT_EQ(got.goal.cache_key(), want.goal.cache_key());
      EXPECT_EQ(got.msg_mask, want.msg_mask);
      EXPECT_EQ(got.description, want.description);
      const std::optional<rosa::Fingerprint> fp =
          rosa::fingerprint_query(got, limits);
      ASSERT_TRUE(fp.has_value());
      EXPECT_EQ(fp, rosa::fingerprint_query(want, limits));
      EXPECT_EQ(rosa::world_digest(got, limits), world);
    }
  }
  EXPECT_GT(epochs, 0u);
}

// The pipeline's fused matrix agrees with one analyze_epoch call per epoch
// (every attack a standalone search) on every verdict cell and vulnerable
// fraction — the paper-facing numbers, not just the engine counters.
TEST(FusedDiffTest, PipelineFractionsMatchUnfused) {
  privanalyzer::PipelineOptions opts;
  opts.rosa_limits = rosa_test::table3_limits();
  for (const programs::ProgramSpec& spec : programs::all_baseline_programs()) {
    const privanalyzer::ProgramAnalysis fused =
        privanalyzer::analyze_program(spec, opts);
    SCOPED_TRACE(fused.program);
    ASSERT_EQ(fused.verdicts.size(), fused.chrono.rows.size());
    privanalyzer::ProgramAnalysis unfused = fused;
    const std::vector<std::string> syscalls = spec.syscalls_used();
    for (std::size_t e = 0; e < fused.chrono.rows.size(); ++e) {
      const chronopriv::EpochRow& row = fused.chrono.rows[e];
      unfused.verdicts[e] = attacks::analyze_epoch(
          row,
          attacks::scenario_from_epoch(row, syscalls,
                                       spec.scenario_extra_users,
                                       spec.scenario_extra_groups),
          opts.rosa_limits);
      for (std::size_t a = 0; a < fused.verdicts[e].verdicts.size(); ++a)
        EXPECT_EQ(fused.verdicts[e].verdicts[a],
                  unfused.verdicts[e].verdicts[a]);
    }
    for (std::size_t a = 0; a < 4; ++a)
      EXPECT_DOUBLE_EQ(fused.vulnerable_fraction(a),
                       unfused.vulnerable_fraction(a));
  }
}

/// The program's syscalls that `allowed` names, in program order: the
/// sublist a filtered world is built from.
std::vector<std::string> allowed_sublist(
    const std::vector<std::string>& syscalls,
    const std::set<std::string>& allowed) {
  std::vector<std::string> out;
  for (const std::string& s : syscalls)
    if (allowed.contains(s)) out.push_back(s);
  return out;
}

/// The query a filtered cell replaces: the attack posed in a world whose
/// message list holds only the allowlisted syscalls.
rosa::Query sublist_query(AttackId attack, const chronopriv::EpochRow& row,
                          const programs::ProgramSpec& spec,
                          const std::set<std::string>& allowed,
                          rosa::AttackerModel attacker) {
  attacks::ScenarioInput in = attacks::scenario_from_epoch(
      row, allowed_sublist(spec.syscalls_used(), allowed),
      spec.scenario_extra_users, spec.scenario_extra_groups);
  in.attacker = attacker;
  return attacks::build_attack_query(attack, in);
}

// A filtered cell is its baseline query with the message mask narrowed to
// the epoch's conservative allowlist, decided in the baseline's batch and
// fused exploration. It must be indistinguishable from a standalone search
// of the sublist world it replaces: verdict, witness and every work
// counter, under each attacker model, cached. A cell the may-reach prover
// settles instead must be Unreachable there.
TEST(FusedDiffTest, SerialFilteredCellsMatchSublistWorlds) {
  for (const programs::ProgramSpec& spec : rosa_test::paper_programs()) {
    for (rosa::AttackerModel attacker :
         {rosa::AttackerModel::Full, rosa::AttackerModel::CfiOrdered,
          rosa::AttackerModel::FixedArgs}) {
      privanalyzer::PipelineOptions opts;
      opts.rosa_limits = rosa_test::table3_limits();
      opts.attacker = attacker;
      opts.filters = privanalyzer::FilterMode::Report;
      const privanalyzer::ProgramAnalysis a =
          privanalyzer::analyze_program(spec, opts);
      SCOPED_TRACE(str::cat(a.program, " attacker ",
                            static_cast<int>(attacker)));
      ASSERT_TRUE(a.ok());
      ASSERT_EQ(a.filtered_verdicts.size(), a.chrono.rows.size());
      ASSERT_EQ(a.filter_report.epochs.size(), a.chrono.rows.size());
      for (std::size_t e = 0; e < a.chrono.rows.size(); ++e) {
        const chronopriv::EpochRow& row = a.chrono.rows[e];
        for (std::size_t k = 0; k < attacks::modeled_attacks().size(); ++k) {
          const attacks::AttackInfo& attack = attacks::modeled_attacks()[k];
          SCOPED_TRACE(str::cat(row.name, "/", attack.name));
          const rosa::SearchResult reference = standalone_run(
              sublist_query(attack.id, row, spec,
                            a.filter_report.epochs[e].conservative, attacker),
              opts.rosa_limits);
          const rosa::SearchResult& got = a.filtered_verdicts[e].results[k];
          // A cell the may-reach prover settled was never searched: it must
          // be Unreachable in the sublist world. Every other cell is the
          // sublist world's search, bit for bit.
          if (got.stats.proved)
            EXPECT_EQ(reference.verdict, rosa::Verdict::Unreachable);
          else
            expect_identical_runs(reference, got);
          EXPECT_EQ(a.filtered_verdicts[e].verdicts[k],
                    attacks::cell_from_verdict(reference.verdict));
        }
      }
    }
  }
}

/// A seeded random subset of `from`: each name kept with probability 1/2.
std::set<std::string> random_subset(const std::set<std::string>& from,
                                    std::mt19937& rng) {
  std::set<std::string> out;
  for (const std::string& s : from)
    if (rng() & 1u) out.insert(s);
  return out;
}

// Metamorphic pair on random allowlists. For nested sub-allowlists A ⊆ B of
// every Table-II epoch's syscalls, narrowing the mask equals building the
// sublist world (under A and under B, fused in one batch with the
// baseline), and widening an allowlist never loses an attack: Reachable
// under A implies Reachable under B. Timeout cells prove nothing either
// way and are skipped.
TEST(FusedDiffTest, NestedAllowlistsMatchSublistsAndStayMonotone) {
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  const std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(chrono_only);
  const std::vector<programs::ProgramSpec> specs =
      programs::all_baseline_programs();
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  const std::size_t n_attacks = attacks::modeled_attacks().size();
  std::mt19937 rng(20261017);

  std::size_t reachable_under_a = 0;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const std::vector<std::string> syscalls = specs[p].syscalls_used();
    const std::set<std::string> surface(syscalls.begin(), syscalls.end());
    for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
      for (int draw = 0; draw < 3; ++draw) {
        const std::set<std::string> b = random_subset(surface, rng);
        const std::set<std::string> a = random_subset(b, rng);
        attacks::ScenarioInput in = attacks::scenario_from_epoch(
            row, syscalls, specs[p].scenario_extra_users,
            specs[p].scenario_extra_groups);
        // Per attack: the baseline, then its A- and B-narrowed twins.
        std::vector<rosa::Query> batch;
        for (const attacks::AttackInfo& attack : attacks::modeled_attacks()) {
          const rosa::Query base = attacks::build_attack_query(attack.id, in);
          batch.push_back(base);
          for (const std::set<std::string>* allowed : {&a, &b}) {
            batch.push_back(base);
            attacks::narrow_to_allowlist({&batch.back(), 1}, *allowed);
          }
        }
        const std::vector<rosa::SearchResult> results =
            rosa::run_queries(batch, limits);
        for (std::size_t k = 0; k < n_attacks; ++k) {
          const attacks::AttackInfo& attack = attacks::modeled_attacks()[k];
          SCOPED_TRACE(str::cat(row.name, "/", attack.name, " draw ", draw));
          const rosa::SearchResult& under_a = results[3 * k + 1];
          const rosa::SearchResult& under_b = results[3 * k + 2];
          expect_identical_runs(
              standalone_run(sublist_query(attack.id, row, specs[p], a,
                                           rosa::AttackerModel::Full),
                             limits),
              under_a);
          expect_identical_runs(
              standalone_run(sublist_query(attack.id, row, specs[p], b,
                                           rosa::AttackerModel::Full),
                             limits),
              under_b);
          if (under_a.verdict != rosa::Verdict::Reachable ||
              under_b.verdict == rosa::Verdict::ResourceLimit)
            continue;
          ++reachable_under_a;
          EXPECT_EQ(under_b.verdict, rosa::Verdict::Reachable);
        }
      }
    }
  }
  // The draws must actually exercise the implication.
  EXPECT_GT(reachable_under_a, 0u);
}

}  // namespace
}  // namespace pa
