// Tests for the search loop's per-layer goal probe (rosa::detail::
// search_fused). The probe applies only the messages a goal declares
// enabling (Goal::enabling), so its witness is BFS's own only if no other
// syscall can turn a false goal true:
//  * footprint soundness: for every builder, every syscall outside its
//    declared set, every attacker model, an empty and a full privilege set
//    and 500 seeded random non-goal states, no wildcard successor satisfies
//    the goal;
//  * the declarations themselves;
//  * random worlds keep the probe-free reference loop's
//    (tests/reference_search.h) verdict and witness, and the motivating
//    refactored-program cells decide at the first layer boundary;
//  * the deadline still stops a search whose probe walks huge layers.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "attacks/attacks.h"
#include "reference_search.h"
#include "rosa_test_util.h"

namespace pa::rosa {
namespace {

using caps::Capability;
using caps::CapSet;

constexpr Sys kAllSys[] = {
    Sys::Open,   Sys::Chmod,     Sys::Fchmod,  Sys::Chown,  Sys::Fchown,
    Sys::Unlink, Sys::Rename,    Sys::Creat,   Sys::Link,   Sys::Setuid,
    Sys::Seteuid, Sys::Setresuid, Sys::Setgid, Sys::Setegid, Sys::Setresgid,
    Sys::Kill,   Sys::Socket,    Sys::Bind,    Sys::Connect};

/// A message of syscall `s` from `proc` whose every argument is a wildcard.
Message wildcard_message(Sys s, int proc, CapSet privs) {
  constexpr int w = kWild;
  switch (s) {
    case Sys::Open: return msg_open(proc, w, w, privs);
    case Sys::Chmod: return msg_chmod(proc, w, w, privs);
    case Sys::Fchmod: return msg_fchmod(proc, w, w, privs);
    case Sys::Chown: return msg_chown(proc, w, w, w, privs);
    case Sys::Fchown: return msg_fchown(proc, w, w, w, privs);
    case Sys::Unlink: return msg_unlink(proc, w, privs);
    case Sys::Rename: return msg_rename(proc, w, w, privs);
    case Sys::Creat: return msg_creat(proc, w, w, privs);
    case Sys::Link: return msg_link(proc, w, w, privs);
    case Sys::Setuid: return msg_setuid(proc, w, privs);
    case Sys::Seteuid: return msg_seteuid(proc, w, privs);
    case Sys::Setresuid: return msg_setresuid(proc, w, w, w, privs);
    case Sys::Setgid: return msg_setgid(proc, w, privs);
    case Sys::Setegid: return msg_setegid(proc, w, privs);
    case Sys::Setresgid: return msg_setresgid(proc, w, w, w, privs);
    case Sys::Kill: return msg_kill(proc, w, w, privs);
    case Sys::Socket: return msg_socket(proc, w, privs);
    case Sys::Bind: return msg_bind(proc, w, w, privs);
    case Sys::Connect: return msg_connect(proc, w, w, privs);
  }
  return msg_connect(proc, w, w, privs);
}

struct Builder {
  std::string kind;
  std::string name;
  Goal goal;
};

/// Every builder on the objects random_state() creates: the fd-set goals of
/// procs 1–3 on files 10–12, and the port and termination goals of procs
/// 1–3.
std::vector<Builder> builders() {
  std::vector<Builder> out;
  for (int proc = 1; proc <= 3; ++proc) {
    for (int file = 10; file <= 12; ++file) {
      out.push_back({"rdfset", str::cat("rdfset:", proc, ":", file),
                     goal_file_in_rdfset(proc, file)});
      out.push_back({"wrfset", str::cat("wrfset:", proc, ":", file),
                     goal_file_in_wrfset(proc, file)});
    }
    out.push_back({"privport", str::cat("privport:", proc),
                   goal_privileged_port_bound(proc)});
    out.push_back({"terminated", str::cat("terminated:", proc),
                   goal_proc_terminated(proc)});
  }
  return out;
}

TEST(GoalProbeTest, NonEnablingSyscallsNeverMakeAFalseGoalTrue) {
  const std::vector<Builder> goals = builders();
  const CapSet privsets[] = {CapSet{}, CapSet::full()};
  const AttackerModel models[] = {AttackerModel::Full,
                                  AttackerModel::CfiOrdered,
                                  AttackerModel::FixedArgs};
  std::size_t checked = 0;
  std::map<std::string, std::size_t> enabled_hits;  // by builder kind
  std::vector<Transition> succ;
  for (unsigned seed = 0; seed < 500; ++seed) {
    std::mt19937 rng(seed);
    const State st = rosa_test::random_state(rng);
    for (Sys s : kAllSys) {
      for (AttackerModel model : models) {
        for (const CapSet& privs : privsets) {
          for (const ProcObj& p : st.procs) {
            const Message msg = wildcard_message(s, p.id, privs);
            apply_message(st, msg, model, linux_checker(), succ);
            for (std::size_t g = 0; g < goals.size(); ++g) {
              const Goal& goal = goals[g].goal;
              if (goal(st)) continue;
              const bool enabling = goal.enabling() & sys_bit(s);
              for (const Transition& tr : succ) {
                if (!goal(tr.next)) continue;
                if (enabling) {
                  ++enabled_hits[goals[g].kind];
                  continue;
                }
                ADD_FAILURE() << goals[g].name << " made true by "
                              << tr.action.to_string() << " (seed " << seed
                              << ", model " << attacker_model_name(model)
                              << ")";
              }
              if (!enabling) ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1'000'000u);
  // The states are rich enough that each builder's declared syscall does
  // make it true somewhere, so the check above is not vacuous.
  for (const char* kind : {"rdfset", "wrfset", "privport", "terminated"})
    EXPECT_GT(enabled_hits[kind], 0u) << kind;
}

TEST(GoalProbeTest, BuildersDeclareExactlyTheirEnablingSyscalls) {
  EXPECT_EQ(goal_file_in_rdfset(1, 3).enabling(), sys_bit(Sys::Open));
  EXPECT_EQ(goal_file_in_wrfset(1, 3).enabling(), sys_bit(Sys::Open));
  EXPECT_EQ(goal_privileged_port_bound(1).enabling(), sys_bit(Sys::Bind));
  EXPECT_EQ(goal_proc_terminated(2).enabling(), sys_bit(Sys::Kill));
}

// Seeded random worlds with a message of every enabling syscall: each
// declared goal keeps the reference's verdict and witness (Unreachable with
// every counter), and a Reachable one decides at its layer boundary.
TEST(GoalProbeTest, RandomWorldsKeepTheReferenceVerdictAndWitness) {
  std::size_t probed_reachable = 0;
  for (unsigned seed = 0; seed < 200; ++seed) {
    std::mt19937 rng(seed);
    Query q;
    q.initial = rosa_test::random_state(rng);
    if (!q.initial.find_proc(1)) continue;
    CapSet privs;
    if (rng() % 2) privs = privs.with(Capability::DacOverride);
    if (rng() % 2) privs = privs.with(Capability::Setuid);
    if (rng() % 2) privs = privs.with(Capability::Kill);
    if (rng() % 2) privs = privs.with(Capability::NetBindService);
    q.messages = {msg_setuid(1, kWild, privs),
                  msg_open(1, kWild, kWild, privs),
                  msg_chmod(1, kWild, 0666, privs),
                  msg_socket(1, 0, privs),
                  msg_kill(1, kWild, 9, privs),
                  msg_bind(1, kWild, kWild, privs),
                  msg_chown(1, kWild, kWild, kWild, privs)};
    for (const Builder& b : builders()) {
      SCOPED_TRACE(str::cat("seed ", seed, " goal ", b.name));
      q.goal = b.goal;
      const SearchResult ref = reference::search(q);
      const SearchResult got = search(q);
      rosa_test::expect_probe_contract(
          ref, got, q, {},
          [](const SearchResult& a, const SearchResult& b) {
            rosa_test::expect_same_work(a, b);
            EXPECT_EQ(a.stats.peak_bytes, b.stats.peak_bytes);
            EXPECT_EQ(a.stats.state_bytes, b.stats.state_bytes);
          },
          reference::search);
      rosa_test::expect_decided_at_layer_boundary(q, {}, got,
                                                  reference::search);
      if (got.verdict == Verdict::Reachable && !got.witness.empty())
        ++probed_reachable;
    }
  }
  EXPECT_GT(probed_reachable, 100u);
}

/// The Full-attacker write-/dev/mem query of each of `spec`'s epochs.
std::vector<Query> write_devmem_queries(const programs::ProgramSpec& spec) {
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  const privanalyzer::ProgramAnalysis a =
      privanalyzer::analyze_program(spec, chrono_only);
  std::vector<Query> out;
  for (const chronopriv::EpochRow& row : a.chrono.rows)
    out.push_back(attacks::build_attack_query(
        attacks::AttackId::WriteDevMem,
        attacks::scenario_from_epoch(row, spec.syscalls_used(),
                                     spec.scenario_extra_users,
                                     spec.scenario_extra_groups)));
  return out;
}

/// rosa::search of `q` explores `probed` states where the probe-free
/// reference explores `reference_states`, with the reference's witness.
void expect_probe_cut(const Query& q, std::size_t probed,
                      std::size_t reference_states) {
  const SearchLimits limits = rosa_test::table3_limits();
  const SearchResult ref = reference::search(q, limits);
  const SearchResult got = search(q, limits);
  ASSERT_EQ(ref.verdict, Verdict::Reachable);
  ASSERT_EQ(got.verdict, Verdict::Reachable);
  EXPECT_EQ(ref.stats.states, reference_states);
  EXPECT_EQ(got.stats.states, probed);
  rosa_test::expect_same_witness(ref, got);
}

// suRef's first two epochs: BFS expands all 124 depth-1 setresgid states
// before it reaches setresuid(0,0,0); the probe finds that state's open
// child at the first layer boundary.
TEST(GoalProbeTest, SuRefWriteDevMemDecidesAtTheFirstLayerBoundary) {
  const std::vector<Query> qs =
      write_devmem_queries(programs::make_su_refactored());
  ASSERT_GE(qs.size(), 2u);
  for (std::size_t e = 0; e < 2; ++e) {
    SCOPED_TRACE(str::cat("suRef priv", e + 1));
    expect_probe_cut(qs[e], 250, 15'626);
    const SearchResult got = search(qs[e], rosa_test::table3_limits());
    ASSERT_EQ(got.witness.size(), 2u);
    EXPECT_EQ(got.witness[0].sys, Sys::Setresuid);
    EXPECT_EQ(got.witness[1].sys, Sys::Open);
  }
}

TEST(GoalProbeTest, SshdRefWriteDevMemDecidesAtTheFirstLayerBoundary) {
  const std::vector<Query> qs =
      write_devmem_queries(programs::make_sshd_refactored());
  ASSERT_GE(qs.size(), 5u);
  for (std::size_t e = 0; e < 5; ++e) {
    SCOPED_TRACE(str::cat("sshdRef priv", e + 1));
    expect_probe_cut(qs[e], 128, 4'097);
  }
}

// The twin of SearchTest.TimeLimitRespectedWithHugeFrontierAndTinyFanout
// with a declared goal: the Fig. 2 world's only open message reads, so
// wrfset is Unreachable but its enabling message exists, and the probe
// walks every huge layer before the loop pops it. The probe checks the
// deadline once per node it visits, so the same slack holds.
TEST(GoalProbeTest, TimeLimitRespectedWhileProbingHugeLayers) {
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
  q.goal = goal_file_in_wrfset(1, 3);
  for (int u = 100; u < 400; ++u) q.initial.add_user(u);
  for (int g = 500; g < 700; ++g) q.initial.add_group(g);
  q.initial.normalize();

  SearchLimits limits;
  limits.max_states = 0;  // unlimited states: only the clock can stop us
  const auto t0 = std::chrono::steady_clock::now();
  limits.deadline = deadline_after(0.05);
  const SearchResult r = search(q, limits);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.verdict, Verdict::ResourceLimit);
  EXPECT_LT(wall, 1.0);
}

}  // namespace
}  // namespace pa::rosa
