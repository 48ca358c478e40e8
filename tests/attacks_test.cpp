// Tests for the four modeled attacks (Table I) against hand-picked epochs —
// these encode the capability-to-attack relationships Table III exhibits.
#include <gtest/gtest.h>

#include "attacks/scenario.h"
#include "support/error.h"

namespace pa::attacks {
namespace {

using caps::Capability;
using caps::CapSet;
using caps::Credentials;

const std::vector<std::string> kFileSyscalls = {
    "open", "chmod", "chown", "unlink", "rename",
    "setuid", "setgid", "setresuid", "setresgid"};
const std::vector<std::string> kNetSyscalls = {"socket", "bind", "connect"};
const std::vector<std::string> kKillSyscalls = {"kill", "setuid"};

ScenarioInput make_input(CapSet permitted, Credentials creds,
                         std::vector<std::string> syscalls) {
  ScenarioInput in;
  in.permitted = permitted;
  in.creds = std::move(creds);
  in.syscalls = std::move(syscalls);
  return in;
}

CellVerdict run(AttackId id, const ScenarioInput& in) {
  return run_attack(id, in, rosa::SearchLimits{});
}

TEST(AttackTable, FourAttacksDescribed) {
  ASSERT_EQ(modeled_attacks().size(), 4u);
  EXPECT_EQ(modeled_attacks()[0].id, AttackId::ReadDevMem);
  EXPECT_EQ(modeled_attacks()[3].id, AttackId::KillServer);
}

TEST(ReadDevMem, EmptyCapsRegularUserSafe) {
  auto in = make_input({}, Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Safe);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Safe);
}

TEST(ReadDevMem, DacReadSearchVulnerableReadOnly) {
  auto in = make_input({Capability::DacReadSearch},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Safe);
}

TEST(ReadDevMem, DacOverrideVulnerableBothWays) {
  auto in = make_input({Capability::DacOverride},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Vulnerable);
}

TEST(ReadDevMem, SetuidReachesRootOwnership) {
  // CAP_SETUID -> setuid(0) -> owner of /dev/mem -> read AND write.
  auto in = make_input({Capability::Setuid},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Vulnerable);
}

TEST(ReadDevMem, SetgidReachesKmemGroupReadOnly) {
  // CAP_SETGID -> setgid(kmem) -> group read bit on /dev/mem, no write.
  // This is the thttpd_priv2 pattern from Table III (attack 1 check-mark,
  // attack 2 cross).
  auto in = make_input({Capability::Setgid},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Safe);
}

TEST(ReadDevMem, ChownVulnerable) {
  auto in = make_input({Capability::Chown},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Vulnerable);
}

TEST(ReadDevMem, FownerVulnerableViaChmod) {
  auto in = make_input({Capability::Fowner},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Vulnerable);
}

TEST(ReadDevMem, RootEuidVulnerableEvenWithoutCaps) {
  // euid 0 owns /dev/mem: plain DAC suffices. (The paper's §VII-D.1 text
  // confirms root-uid passwd can open /dev/mem; see EXPERIMENTS.md on the
  // Table III passwd_priv5 row.)
  auto in = make_input({}, Credentials::of_user(0, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Vulnerable);
}

TEST(ReadDevMem, EtcUserSafe) {
  // The refactored programs' special user owns /etc, not /dev/mem.
  auto in = make_input({}, Credentials::of_user(998, 1000), kFileSyscalls);
  in.extra_users = {998};
  in.extra_groups = {42};
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Safe);
  EXPECT_EQ(run(AttackId::WriteDevMem, in), CellVerdict::Safe);
}

TEST(ReadDevMem, NetCapsUseless) {
  // ping's capabilities provide no path to /dev/mem.
  auto in = make_input({Capability::NetRaw, Capability::NetAdmin},
                       Credentials::of_user(1000, 1000), kFileSyscalls);
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Safe);
}

TEST(ReadDevMem, SyscallConstraintMatters) {
  // CAP_SETUID is useless if the program never calls set*uid: the attack
  // model only allows syscalls the program uses.
  auto in = make_input({Capability::Setuid},
                       Credentials::of_user(1000, 1000), {"open", "chmod"});
  EXPECT_EQ(run(AttackId::ReadDevMem, in), CellVerdict::Safe);
}

TEST(BindPort, NeedsCapabilityAndSocketSyscalls) {
  auto vulnerable = make_input({Capability::NetBindService},
                               Credentials::of_user(1000, 1000),
                               kNetSyscalls);
  EXPECT_EQ(run(AttackId::BindPrivilegedPort, vulnerable),
            CellVerdict::Vulnerable);

  auto no_cap = make_input({Capability::Setuid, Capability::DacOverride},
                           Credentials::of_user(1000, 1000), kNetSyscalls);
  EXPECT_EQ(run(AttackId::BindPrivilegedPort, no_cap), CellVerdict::Safe);

  auto no_syscalls = make_input({Capability::NetBindService},
                                Credentials::of_user(1000, 1000),
                                kFileSyscalls);
  EXPECT_EQ(run(AttackId::BindPrivilegedPort, no_syscalls),
            CellVerdict::Safe);
}

TEST(BindPort, RootUidDoesNotHelp) {
  // Port binding is purely capability-gated (no uid-0 override in the
  // capability model).
  auto in = make_input({}, Credentials::of_user(0, 0), kNetSyscalls);
  EXPECT_EQ(run(AttackId::BindPrivilegedPort, in), CellVerdict::Safe);
}

TEST(KillServer, CapKillVulnerable) {
  auto in = make_input({Capability::Kill},
                       Credentials::of_user(1000, 1000), kKillSyscalls);
  EXPECT_EQ(run(AttackId::KillServer, in), CellVerdict::Vulnerable);
}

TEST(KillServer, SetuidBecomesVictimUid) {
  auto in = make_input({Capability::Setuid},
                       Credentials::of_user(1000, 1000), kKillSyscalls);
  EXPECT_EQ(run(AttackId::KillServer, in), CellVerdict::Vulnerable);
}

TEST(KillServer, NoPathWithoutCaps) {
  auto in = make_input({}, Credentials::of_user(1000, 1000), kKillSyscalls);
  EXPECT_EQ(run(AttackId::KillServer, in), CellVerdict::Safe);
  // Even euid 0 does not match the daemon's uid without CAP_KILL/CAP_SETUID.
  auto root_in = make_input({}, Credentials::of_user(0, 0), {"kill"});
  EXPECT_EQ(run(AttackId::KillServer, root_in), CellVerdict::Safe);
}

TEST(KillServer, SetgidUseless) {
  auto in = make_input({Capability::Setgid},
                       Credentials::of_user(1000, 1000),
                       {"kill", "setgid", "setresgid"});
  EXPECT_EQ(run(AttackId::KillServer, in), CellVerdict::Safe);
}

TEST(Scenario, FromEpochCopiesEverything) {
  chronopriv::EpochRow row;
  row.name = "x_priv1";
  row.key.permitted = {Capability::Kill};
  row.key.creds = Credentials::of_user(5, 6);
  ScenarioInput in = scenario_from_epoch(row, {"kill"}, {7}, {8});
  EXPECT_EQ(in.permitted, CapSet{Capability::Kill});
  EXPECT_EQ(in.creds.uid.real, 5);
  EXPECT_EQ(in.syscalls, std::vector<std::string>{"kill"});
  EXPECT_EQ(in.extra_users, std::vector<int>{7});
  EXPECT_EQ(in.extra_groups, std::vector<int>{8});
}

TEST(Scenario, AnalyzeEpochFillsAllFour) {
  chronopriv::EpochRow row;
  row.name = "x_priv1";
  row.key.permitted = CapSet::full();
  row.key.creds = Credentials::of_user(1000, 1000);
  ScenarioInput in = scenario_from_epoch(
      row, {"open", "chmod", "chown", "setuid", "socket", "bind", "kill"});
  EpochVerdicts v = analyze_epoch(row, in);
  EXPECT_EQ(v.epoch_name, "x_priv1");
  for (CellVerdict cv : v.verdicts)
    EXPECT_EQ(cv, CellVerdict::Vulnerable);  // full caps: everything works
}

// Each message is one msg_mask bit, so a syscall list that would build
// more than 64 messages is rejected: 32 opens build exactly 64 (a read-mode
// and a write-mode message each), and 33 would build 66.
TEST(Scenario, AttackWorldsHoldAtMost64Messages) {
  ScenarioInput in = make_input({}, Credentials::of_user(1000, 1000),
                                std::vector<std::string>(32, "open"));
  EXPECT_EQ(build_attack_query(AttackId::ReadDevMem, in).messages.size(),
            64u);
  in.syscalls.push_back("open");
  EXPECT_THROW(build_attack_query(AttackId::ReadDevMem, in), Error);
  EXPECT_THROW(build_attack_queries(in), Error);
}

// A searched cell's memory figure, pinned. The search charges the world
// skeleton by what it holds, not by how its vectors grew, so a skeleton
// written in place and one copied per write report the same peak_bytes.
TEST(Scenario, SearchedCellPeakBytesArePinned) {
  auto in = make_input({Capability::Setuid}, Credentials::of_user(1000, 1000),
                       kFileSyscalls);
  const rosa::Query q = build_attack_query(AttackId::ReadDevMem, in);
  const rosa::SearchResult r = rosa::search(q);
  EXPECT_EQ(r.verdict, rosa::Verdict::Reachable);
  EXPECT_EQ(r.stats.states, 31u);
  EXPECT_EQ(r.stats.peak_bytes, 21172u);

  rosa::Query copied = q;
  copied.initial.set_users(std::vector<int>(q.initial.users()));
  ASSERT_NE(copied.initial.world(), q.initial.world());
  EXPECT_EQ(rosa::search(copied).stats.peak_bytes, r.stats.peak_bytes);
}

TEST(Scenario, CellSymbols) {
  EXPECT_EQ(cell_symbol(CellVerdict::Vulnerable), 'V');
  EXPECT_EQ(cell_symbol(CellVerdict::Safe), 'x');
  EXPECT_EQ(cell_symbol(CellVerdict::Timeout), 'T');
}

}  // namespace
}  // namespace pa::attacks
