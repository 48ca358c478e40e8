// The soundness net for ROSA's may-reach prover (rosa/prove.h). A proved
// cell skips the search, so every proof is checked here against the
// probe-free reference search (tests/reference_search.h), which shares none
// of the prover's code:
//  * the paper's cells: the 8 programs' baseline and filtered matrices
//    under all three attacker models, and the Table-III matrix under the
//    Solaris and Capsicum checkers;
//  * at least 2,000 seeded random worlds over every syscall, with fixed and
//    wildcard arguments, random masks, stopped and running processes,
//    dangling and pathless directories, initial sockets, all three
//    attacker models and all three checkers;
//  * small worlds where one rule's effect alone makes a goal reachable, so
//    dropping any of those effects from the prover fails here even though
//    random worlds seldom need one rule alone;
//  * the cells where the gain lives: every Full-attacker Unreachable cell
//    of passwdRef and suRef, in both matrices, is proved;
//  * the AccessChecker contract the prover's representatives rest on
//    (rosa/checker.h): no in-tree checker reads uid.saved, gid.real or
//    gid.saved;
//  * an expired deadline proves nothing.
// Cells the prover cannot prove are counted and printed, never failed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iostream>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "attacks/attacks.h"
#include "privmodels/capsicum.h"
#include "privmodels/solaris.h"
#include "reference_search.h"
#include "rosa/prove.h"
#include "rosa_test_util.h"

namespace pa::rosa {
namespace {

using caps::Capability;
using caps::CapSet;

constexpr AttackerModel kModels[] = {AttackerModel::Full,
                                     AttackerModel::CfiOrdered,
                                     AttackerModel::FixedArgs};

/// One prover for the test binary, so its scratch is reused from world to
/// world as in attacks::analyze_epochs.
std::uint64_t prove(std::span<const Query> world,
                    const SearchLimits& limits) {
  static Prover prover;
  return prover.prove_unreachable(world, limits);
}

struct Tally {
  std::size_t cells = 0;
  std::size_t proved = 0;
};

/// Prove `world` and hold every proved member to the reference search: it
/// must not be Reachable.
void check_world(const std::vector<Query>& world,
                 const std::vector<std::string>& labels,
                 const SearchLimits& limits, Tally& tally) {
  const std::uint64_t proved = prove(world, {});
  tally.cells += world.size();
  for (std::size_t i = 0; i < world.size(); ++i) {
    if (!((proved >> i) & 1)) continue;
    ++tally.proved;
    const SearchResult ref = reference::search(world[i], limits);
    EXPECT_NE(ref.verdict, Verdict::Reachable)
        << "proved but reachable: " << labels[i] << "\n"
        << ref.to_string();
  }
}

/// One epoch world as attacks::analyze_epochs poses it: the four baseline
/// cells, then each narrowed to the epoch's conservative allowlist.
std::vector<Query> epoch_world(const attacks::ScenarioInput& in,
                               const std::set<std::string>& allowed) {
  const std::size_t n_attacks = attacks::modeled_attacks().size();
  std::vector<Query> world;
  for (const attacks::AttackInfo& a : attacks::modeled_attacks())
    world.push_back(attacks::build_attack_query(a.id, in));
  for (std::size_t a = 0; a < n_attacks; ++a) world.push_back(world[a]);
  attacks::narrow_to_allowlist(std::span<Query>(world).subspan(n_attacks),
                               allowed);
  return world;
}

std::vector<std::string> epoch_labels(const std::string& program,
                                      const std::string& epoch,
                                      AttackerModel model) {
  std::vector<std::string> out;
  for (const char* block : {"baseline", "filtered"})
    for (const attacks::AttackInfo& a : attacks::modeled_attacks())
      out.push_back(str::cat(program, "/", epoch, "/", a.name, "/", block,
                             "/", attacker_model_name(model)));
  return out;
}

TEST(ProveTest, PaperCellsProvedOnlyWhenUnreachable) {
  const SearchLimits limits = rosa_test::table3_limits();
  for (const programs::ProgramSpec& spec : rosa_test::paper_programs()) {
    privanalyzer::PipelineOptions opts;
    opts.run_rosa = false;
    opts.filters = privanalyzer::FilterMode::Report;
    const privanalyzer::ProgramAnalysis a =
        privanalyzer::analyze_program(spec, opts);
    ASSERT_TRUE(a.ok());
    ASSERT_EQ(a.filter_report.epochs.size(), a.chrono.rows.size());
    for (AttackerModel model : kModels) {
      Tally tally;
      for (std::size_t e = 0; e < a.chrono.rows.size(); ++e) {
        const chronopriv::EpochRow& row = a.chrono.rows[e];
        attacks::ScenarioInput in = attacks::scenario_from_epoch(
            row, spec.syscalls_used(), spec.scenario_extra_users,
            spec.scenario_extra_groups);
        in.attacker = model;
        check_world(epoch_world(in, a.filter_report.epochs[e].conservative),
                    epoch_labels(spec.name, row.name, model), limits, tally);
      }
      std::cout << "[ proved   ] " << spec.name << " "
                << attacker_model_name(model) << ": " << tally.proved << "/"
                << tally.cells << " cells\n";
    }
  }
}

// The Table-III matrix under the §X checkers: Linux capability sets
// translated to Solaris privileges, and Capsicum with every right and with
// none. Each epoch's four cells form one world.
TEST(ProveTest, Table3UnderSolarisAndCapsicumProvedOnlyWhenUnreachable) {
  const SearchLimits limits = rosa_test::table3_limits();
  privanalyzer::PipelineOptions chrono_only;
  chrono_only.run_rosa = false;
  const std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(chrono_only);
  const std::vector<programs::ProgramSpec> specs =
      programs::all_baseline_programs();
  const CapSet all_rights = privmodels::rights(
      {privmodels::CapsicumRight::Read, privmodels::CapsicumRight::Write,
       privmodels::CapsicumRight::Fchmod, privmodels::CapsicumRight::Fchown,
       privmodels::CapsicumRight::Bind, privmodels::CapsicumRight::Connect,
       privmodels::CapsicumRight::PdKill});
  struct Variant {
    const char* name;
    const AccessChecker* checker;
  };
  const Variant variants[] = {
      {"solaris", &privmodels::solaris_checker()},
      {"capsicum-all", &privmodels::capsicum_checker()},
      {"capsicum-none", &privmodels::capsicum_checker()},
  };
  for (const Variant& v : variants) {
    Tally tally;
    for (std::size_t p = 0; p < specs.size(); ++p) {
      for (const chronopriv::EpochRow& row : analyses[p].chrono.rows) {
        attacks::ScenarioInput in = attacks::scenario_from_epoch(
            row, specs[p].syscalls_used(), specs[p].scenario_extra_users,
            specs[p].scenario_extra_groups);
        const std::string variant = v.name;
        if (variant == "solaris")
          in.permitted = privmodels::from_linux(in.permitted);
        else
          in.permitted = variant == "capsicum-all" ? all_rights : CapSet{};
        std::vector<Query> world;
        std::vector<std::string> labels;
        for (const attacks::AttackInfo& a : attacks::modeled_attacks()) {
          world.push_back(attacks::build_attack_query(a.id, in));
          world.back().checker = v.checker;
          labels.push_back(
              str::cat(specs[p].name, "/", row.name, "/", a.name, "/", v.name));
        }
        check_world(world, labels, limits, tally);
      }
    }
    std::cout << "[ proved   ] table3 " << v.name << ": " << tally.proved
              << "/" << tally.cells << " cells\n";
  }
}

// Where the gain lives: passwdRef's and suRef's Unreachable cells are the
// product spaces the search must exhaust, and the prover must settle every
// one of them under the paper's attacker.
TEST(ProveTest, EveryFullAttackerUnreachableRefactoredCellIsProved) {
  const SearchLimits limits = rosa_test::table3_limits();
  for (const programs::ProgramSpec& spec :
       {programs::make_passwd_refactored(), programs::make_su_refactored()}) {
    privanalyzer::PipelineOptions opts;
    opts.run_rosa = false;
    opts.filters = privanalyzer::FilterMode::Report;
    const privanalyzer::ProgramAnalysis a =
        privanalyzer::analyze_program(spec, opts);
    ASSERT_TRUE(a.ok());
    std::size_t unreachable = 0;
    for (std::size_t e = 0; e < a.chrono.rows.size(); ++e) {
      const chronopriv::EpochRow& row = a.chrono.rows[e];
      const attacks::ScenarioInput in = attacks::scenario_from_epoch(
          row, spec.syscalls_used(), spec.scenario_extra_users,
          spec.scenario_extra_groups);
      const std::vector<Query> world =
          epoch_world(in, a.filter_report.epochs[e].conservative);
      const std::vector<std::string> labels =
          epoch_labels(spec.name, row.name, AttackerModel::Full);
      const std::uint64_t proved = prove(world, {});
      for (std::size_t i = 0; i < world.size(); ++i) {
        const SearchResult ref = reference::search(world[i], limits);
        ASSERT_NE(ref.verdict, Verdict::ResourceLimit) << labels[i];
        if (ref.verdict != Verdict::Unreachable) continue;
        ++unreachable;
        EXPECT_TRUE((proved >> i) & 1) << "not proved: " << labels[i];
      }
    }
    std::cout << "[ proved   ] " << spec.name << ": " << unreachable
              << " Unreachable cells\n";
    EXPECT_GT(unreachable, 0u);
  }
}

// --- one path per rule ------------------------------------------------------

/// A one-process world (uid and gid 1000, pathless) with files 10 and 11,
/// and `goal` as its goal.
Query single_path_world(std::vector<Message> messages, Goal goal,
                        os::FileMeta meta) {
  Query q;
  ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  q.initial.procs.push_back(p);
  ProcObj server;
  server.id = 2;
  server.uid = {109, 109, 109};
  server.gid = {109, 109, 109};
  q.initial.procs.push_back(server);
  q.initial.files.push_back(FileObj{10, meta});
  q.initial.files.push_back(FileObj{11, {0, 0, os::Mode(0644)}});
  q.initial.set_users({0, 109, 1000});
  q.initial.set_groups({0, 109, 1000});
  q.initial.normalize();
  q.messages = std::move(messages);
  q.goal = std::move(goal);
  return q;
}

// Each rule's effect, alone, makes a goal reachable here, so dropping the
// effect from the prover proves a reachable cell. The random worlds seldom
// need one rule alone: the abstraction's other over-approximations usually
// open another path.
TEST(ProveTest, EachRuleKeepsItsReachableCellUnproved) {
  const CapSet none;
  struct Case {
    const char* name;
    Query q;
  };
  const os::FileMeta root_only{0, 0, os::Mode(0600)};
  const Case cases[] = {
      {"chown gives the file away",
       single_path_world({msg_chown(1, kWild, kWild, kWild,
                                    {Capability::Chown}),
                          msg_open(1, 10, kAccRead, none)},
                         goal_file_in_rdfset(1, 10), root_only)},
      {"chmod opens the mode",
       single_path_world({msg_chmod(1, 10, 0600, none),
                          msg_open(1, 10, kAccWrite, none)},
                         goal_file_in_wrfset(1, 10),
                         {1000, 0, os::Mode(0000)})},
      {"fchmod through a write-only descriptor",
       single_path_world({msg_open(1, 10, kAccWrite, none),
                          msg_fchmod(1, 10, 0600, none),
                          msg_open(1, 10, kAccRead, none)},
                         goal_file_in_rdfset(1, 10),
                         {1000, 0, os::Mode(0200)})},
      {"privileged setuid",
       single_path_world({msg_setuid(1, kWild, {Capability::Setuid}),
                          msg_open(1, 10, kAccRead, none)},
                         goal_file_in_rdfset(1, 10), root_only)},
      {"privileged setresuid",
       single_path_world({msg_setresuid(1, 0, 0, 0, {Capability::Setuid}),
                          msg_open(1, 10, kAccRead, none)},
                         goal_file_in_rdfset(1, 10), root_only)},
      {"privileged setegid",
       single_path_world({msg_setegid(1, 0, {Capability::Setgid}),
                          msg_open(1, 10, kAccRead, none)},
                         goal_file_in_rdfset(1, 10),
                         {0, 0, os::Mode(0040)})},
      {"kill with CAP_KILL",
       single_path_world({msg_kill(1, 2, 9, {Capability::Kill})},
                         goal_proc_terminated(2), root_only)},
      {"setuid to the server's uid, then kill",
       single_path_world({msg_setuid(1, kWild, {Capability::Setuid}),
                          msg_kill(1, kWild, 9, none)},
                         goal_proc_terminated(2), root_only)},
      {"socket, then bind a privileged port",
       single_path_world({msg_socket(1, 0, none),
                          msg_bind(1, kWild, 80, {Capability::NetBindService})},
                         goal_privileged_port_bound(1), root_only)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(reference::search(c.q).verdict, Verdict::Reachable);
    EXPECT_EQ(prove({&c.q, 1}, {}), 0u);
    // With its first message alone, the cell is proved wherever the
    // reference finds it Unreachable: the prover does not just decline
    // these worlds.
    Query without = c.q;
    without.msg_mask = 1;
    if (reference::search(without).verdict == Verdict::Unreachable) {
      EXPECT_EQ(prove({&without, 1}, {}), 1u);
    }
  }
}

// --- random worlds ----------------------------------------------------------

/// A seeded random world: 1-3 processes (some stopped), 1-3 files,
/// directory entries that may dangle (or none at all), maybe an initial
/// socket, and 3-7 messages over all 19 syscalls, each argument fixed or a
/// wildcard. Returns the query every member copies.
Query random_world(std::mt19937& rng) {
  auto pick = [&](std::initializer_list<int> xs) {
    return *(xs.begin() + rng() % xs.size());
  };
  const auto id = [&] { return pick({0, 10, 998, 1000, 1001}); };
  Query q;
  State& st = q.initial;
  const int nprocs = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < nprocs; ++i) {
    ProcObj p;
    p.id = 1 + i;
    p.uid = {id(), id(), id()};
    p.gid = {id(), id(), id()};
    p.running = rng() % 5 != 0;
    if (rng() % 3 == 0) p.supplementary.push_back(id());
    if (rng() % 4 == 0) p.rdfset.insert(10 + static_cast<int>(rng() % 3));
    if (rng() % 4 == 0) p.wrfset.insert(10 + static_cast<int>(rng() % 3));
    st.procs.push_back(p);
  }
  const int nfiles = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < nfiles; ++i) {
    st.files.push_back(FileObj{
        10 + i,
        {id(), id(),
         os::Mode(static_cast<std::uint16_t>(
             pick({0600, 0640, 0400, 0660, 0000, 0644, 04755})))}});
    st.set_name(10 + i, str::cat("f", i));
  }
  const int ndirs = static_cast<int>(rng() % 4);  // 0: a pathless world
  for (int i = 0; i < ndirs; ++i) {
    const int inode = rng() % 3 == 0 ? -1 : 10 + static_cast<int>(rng() % 3);
    st.dirs.push_back(DirObj{
        20 + i,
        {id(), id(),
         os::Mode(static_cast<std::uint16_t>(
             pick({0755, 0777, 0700, 01777, 0711, 0733})))},
        inode});
    st.set_name(20 + i, str::cat("d", i));
  }
  if (rng() % 3 == 0)
    st.socks.push_back(SockObj{30, 1 + static_cast<int>(rng() % 3),
                               pick({-1, -1, 80, 8080})});
  std::vector<int> users = {0, 1000};
  std::vector<int> groups = {0, 1000};
  if (rng() % 2) users.push_back(998);
  if (rng() % 2) groups.push_back(10);
  st.set_users(users);
  st.set_groups(groups);
  st.normalize();

  const CapSet linux_caps[] = {
      {Capability::DacOverride}, {Capability::DacReadSearch},
      {Capability::Fowner},      {Capability::Chown},
      {Capability::Setuid},      {Capability::Setgid},
      {Capability::Kill},        {Capability::NetBindService},
      {Capability::NetRaw}};
  // Like an attack world, most messages come from process 1 and carry one
  // shared privilege set, so multi-step attacks across rules are common.
  auto draw_privs = [&] {
    CapSet privs;
    for (const CapSet& c : linux_caps)
      if (rng() % 3 == 0) privs |= c;
    return privs;
  };
  const CapSet shared = draw_privs();
  const int nmsgs = 3 + static_cast<int>(rng() % 5);
  for (int k = 0; k < nmsgs; ++k) {
    const CapSet privs = rng() % 3 ? shared : draw_privs();
    Message m;
    m.proc = rng() % 3 ? 1 : 1 + static_cast<int>(rng() % unsigned(nprocs));
    m.privs = privs;
    m.sys = static_cast<Sys>(rng() % 19);
    // Braced lists draw their elements in order.
    auto w = [&](int fixed) { return rng() % 2 ? kWild : fixed; };
    auto file = [&] { return w(pick({10, 11, 12, 13})); };
    auto dir = [&] { return w(pick({20, 21, 22})); };
    auto uid = [&] { return w(pick({0, 1000, 998, 1001})); };
    auto gid = [&] { return w(pick({0, 1000, 10, 15})); };
    switch (m.sys) {
      case Sys::Open: m.args = {file(), w(pick({1, 2, 3}))}; break;
      case Sys::Chmod:
      case Sys::Fchmod:
        m.args = {file(), w(pick({0777, 0666, 0600, 04777}))};
        break;
      case Sys::Chown:
      case Sys::Fchown: m.args = {file(), uid(), gid()}; break;
      case Sys::Unlink: m.args = {file()}; break;
      case Sys::Rename: m.args = {file(), file()}; break;
      case Sys::Creat: m.args = {dir(), w(pick({0666, 0600, 0644}))}; break;
      case Sys::Link: m.args = {file(), dir()}; break;
      case Sys::Setuid:
      case Sys::Seteuid: m.args = {uid()}; break;
      case Sys::Setresuid: m.args = {uid(), uid(), uid()}; break;
      case Sys::Setgid:
      case Sys::Setegid: m.args = {gid()}; break;
      case Sys::Setresgid: m.args = {gid(), gid(), gid()}; break;
      case Sys::Kill:
        m.args = {w(1 + static_cast<int>(rng() % 3)), w(pick({9, 15}))};
        break;
      case Sys::Socket: m.args = {w(pick({0, 1}))}; break;
      case Sys::Bind:
        m.args = {w(pick({30, 40})), w(pick({80, 443, 8080}))};
        break;
      case Sys::Connect: m.args = {w(30), w(80)}; break;
    }
    q.messages.push_back(std::move(m));
  }
  q.attacker = kModels[rng() % 3];
  switch (rng() % 3) {
    case 0:
      break;  // Linux
    case 1:
      q.checker = &privmodels::solaris_checker();
      for (Message& m : q.messages) m.privs = privmodels::from_linux(m.privs);
      break;
    default:
      q.checker = &privmodels::capsicum_checker();
      for (Message& m : q.messages)
        m.privs = CapSet::from_raw(m.privs.raw() & 0x7f);
      break;
  }
  return q;
}

/// Every builder on the random world's objects (file 13 exists only once
/// created).
std::vector<Goal> world_goals() {
  std::vector<Goal> out;
  for (int proc = 1; proc <= 3; ++proc) {
    for (int file = 10; file <= 13; ++file) {
      out.push_back(goal_file_in_rdfset(proc, file));
      out.push_back(goal_file_in_wrfset(proc, file));
    }
    out.push_back(goal_privileged_port_bound(proc));
    out.push_back(goal_proc_terminated(proc));
  }
  return out;
}

TEST(ProveTest, RandomWorldsProvedOnlyWhenUnreachable) {
  SearchLimits limits;
  limits.max_states = 200'000;
  Tally tally;
  std::size_t limited = 0;
  const std::vector<Goal> goals = world_goals();
  for (unsigned seed = 0; seed < 2'000; ++seed) {
    std::mt19937 rng(seed);
    const Query base = random_world(rng);
    const std::uint64_t all =
        (std::uint64_t{1} << base.messages.size()) - 1;
    // Two masks per world, each shared by a random half of the goals, so
    // both the shared credentials closure and the per-mask fixpoint run.
    const std::uint64_t masks[] = {all, rng() & all};
    std::vector<Query> world;
    std::vector<std::string> labels;
    for (const Goal& goal : goals) {
      Query q = base;
      q.goal = goal;
      q.msg_mask = masks[rng() % 2];
      world.push_back(std::move(q));
      labels.push_back(str::cat("seed ", seed, " goal ", goal.cache_key(),
                                " mask ", world.back().msg_mask, " model ",
                                attacker_model_name(base.attacker)));
    }
    const std::uint64_t proved = prove(world, {});
    tally.cells += world.size();
    for (std::size_t i = 0; i < world.size(); ++i) {
      if (!((proved >> i) & 1)) continue;
      const SearchResult ref = reference::search(world[i], limits);
      if (ref.verdict == Verdict::ResourceLimit) {
        ++limited;
        continue;
      }
      ++tally.proved;
      EXPECT_EQ(ref.verdict, Verdict::Unreachable)
          << "proved but reachable: " << labels[i] << "\n"
          << world[i].initial.to_string() << ref.to_string();
    }
  }
  std::cout << "[ proved   ] random worlds: " << tally.proved << "/"
            << tally.cells << " cells proved and checked, " << limited
            << " skipped at the reference's budget\n";
  EXPECT_GT(tally.proved, 10'000u);
}

// --- the checker contract ---------------------------------------------------

// The prover evaluates access decisions on representative credentials that
// vary only uid.real, uid.effective and gid.effective (rosa/checker.h), so
// re-drawing uid.saved, gid.real and gid.saved must change no decision of
// any in-tree checker.
TEST(ProveTest, CheckersReadOnlyTheRepresentativeSlots) {
  const AccessChecker* checkers[] = {&linux_checker(),
                                     &privmodels::solaris_checker(),
                                     &privmodels::capsicum_checker()};
  const int ids[] = {0, 10, 15, 998, 1000, 1001};
  const std::uint16_t modes[] = {0600, 0640, 0644, 0666, 0000, 0755, 01777,
                                 0711, 04755};
  std::mt19937 rng(20261019);
  auto id = [&] { return ids[rng() % 6]; };
  auto meta = [&] {
    return os::FileMeta{id(), id(), os::Mode(modes[rng() % 9])};
  };
  std::size_t decisions = 0;
  for (int round = 0; round < 20'000; ++round) {
    caps::Credentials a{{id(), id(), id()}, {id(), id(), id()}, {}};
    if (rng() % 2) a.set_supplementary({id(), id()});
    caps::Credentials b = a;
    b.uid.saved = id();
    b.gid.real = id();
    b.gid.saved = id();
    const CapSet privs =
        CapSet::from_raw(rng() & ((std::uint64_t{1} << 40) - 1));
    const os::FileMeta m1 = meta();
    const os::FileMeta m2 = meta();
    const int owner = id();
    const int group = id();
    const caps::IdTriple victim{id(), id(), id()};
    const int port = static_cast<int>(rng() % 2000) - 100;
    for (const AccessChecker* ck : checkers) {
      SCOPED_TRACE(str::cat(ck->name(), " round ", round));
      auto decide = [&](const caps::Credentials& c) {
        std::vector<bool> d = {
            ck->file_access(c, privs, m1, os::AccessKind::Read),
            ck->file_access(c, privs, m1, os::AccessKind::Write),
            ck->file_access(c, privs, m1, os::AccessKind::Execute),
            ck->dir_search(c, privs, m1),
            ck->can_chmod(c, privs, m1),
            ck->can_chown(c, privs, m1, owner, group),
            ck->can_chown(c, privs, m1, kWild, group),
            ck->can_unlink(c, privs, m1, m2),
            ck->can_kill(c, privs, victim),
            ck->can_bind(c, privs, port),
            ck->can_raw_socket(c, privs),
            ck->setid_privileged(c, privs, true),
            ck->setid_privileged(c, privs, false),
            ck->path_lookup_allowed(c, privs)};
        return d;
      };
      const std::vector<bool> da = decide(a);
      EXPECT_EQ(da, decide(b));
      decisions += da.size();
    }
  }
  EXPECT_GT(decisions, 500'000u);
}

// --- limits -----------------------------------------------------------------

/// The four cells of ping's first epoch, all of them provable.
std::vector<Query> ping_world() {
  const rosa_test::Matrix m = rosa_test::build_matrix();
  std::vector<Query> world;
  for (std::size_t i = 0; i < m.queries.size() && world.size() < 4; ++i)
    if (m.labels[i].starts_with("ping/")) world.push_back(m.queries[i]);
  return world;
}

TEST(ProveTest, ExpiredLimitsProveNothing) {
  const std::vector<Query> world = ping_world();
  ASSERT_EQ(prove(world, {}), 0xfu);
  const std::atomic<bool> cancelled{true};
  SearchLimits limits;
  limits.cancel = &cancelled;
  EXPECT_EQ(prove(world, limits), 0u);
}

TEST(ProveTest, ProvedResultIsUnreachableWithOnlyTheProvedCounter) {
  const SearchResult r = proved_result();
  EXPECT_EQ(r.verdict, Verdict::Unreachable);
  EXPECT_TRUE(r.witness.empty());
  SearchStats expected;
  expected.proved = 1;
  EXPECT_EQ(r.stats.to_string(), expected.to_string());
  SearchStats sum;
  sum.merge(r.stats);
  sum.merge(r.stats);
  EXPECT_EQ(sum.proved, 2u);
  EXPECT_NE(sum.to_string().find("proved=2"), std::string::npos);
}

}  // namespace
}  // namespace pa::rosa
