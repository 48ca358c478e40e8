// Cross-engine soundness: every witness ROSA produces must replay
// successfully on the SimOS kernel (which shares only the access-decision
// library with ROSA, not the transition rules), and the replayed kernel
// must end up in the kernel-side equivalent of the goal state.
#include <gtest/gtest.h>

#include <ostream>

#include "attacks/scenario.h"
#include "rosa/query.h"
#include "rosa/replay.h"

namespace pa::rosa {
namespace {

using attacks::AttackId;
using attacks::ScenarioInput;
using caps::Capability;
using caps::CapSet;
using caps::Credentials;

/// Search, then (if reachable) replay the witness and check the goal
/// against the kernel.
void search_and_replay(const Query& q, AttackId attack,
                       bool expect_reachable) {
  SearchResult r = search(q);
  if (!expect_reachable) {
    EXPECT_EQ(r.verdict, Verdict::Unreachable);
    return;
  }
  ASSERT_EQ(r.verdict, Verdict::Reachable);

  Materialized world(q.initial);
  std::string diag;
  ASSERT_TRUE(world.replay(r.witness, &diag)) << diag;

  switch (attack) {
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
}

ScenarioInput scenario(CapSet permitted, Credentials creds) {
  ScenarioInput in;
  in.permitted = permitted;
  in.creds = std::move(creds);
  in.syscalls = {"open",   "chmod",  "chown",  "unlink",   "rename",
                 "setuid", "setgid", "setresuid", "setresgid", "kill",
                 "socket", "bind"};
  return in;
}

struct ReplayCase {
  const char* name;
  CapSet permitted;
  int uid;
  AttackId attack;
  bool reachable;
};

// Names each case by its `name`. gtest's default prints the struct's raw
// bytes, which include the `name` pointer and padding, so the test names
// would differ from run to run.
void PrintTo(const ReplayCase& c, std::ostream* os) { *os << c.name; }

class WitnessReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(WitnessReplay, WitnessExecutesOnKernel) {
  const ReplayCase& c = GetParam();
  ScenarioInput in =
      scenario(c.permitted, Credentials::of_user(c.uid, 1000));
  Query q = attacks::build_attack_query(c.attack, in);
  search_and_replay(q, c.attack, c.reachable);
}

INSTANTIATE_TEST_SUITE_P(
    AttackMatrix, WitnessReplay,
    ::testing::Values(
        ReplayCase{"dacrs_read", {Capability::DacReadSearch}, 1000,
                   AttackId::ReadDevMem, true},
        ReplayCase{"dacov_write", {Capability::DacOverride}, 1000,
                   AttackId::WriteDevMem, true},
        ReplayCase{"setuid_read", {Capability::Setuid}, 1000,
                   AttackId::ReadDevMem, true},
        ReplayCase{"setuid_write", {Capability::Setuid}, 1000,
                   AttackId::WriteDevMem, true},
        ReplayCase{"setgid_read", {Capability::Setgid}, 1000,
                   AttackId::ReadDevMem, true},
        ReplayCase{"setgid_write_safe", {Capability::Setgid}, 1000,
                   AttackId::WriteDevMem, false},
        ReplayCase{"chown_read", {Capability::Chown}, 1000,
                   AttackId::ReadDevMem, true},
        ReplayCase{"fowner_write", {Capability::Fowner}, 1000,
                   AttackId::WriteDevMem, true},
        ReplayCase{"root_read_nocaps", {}, 0, AttackId::ReadDevMem, true},
        ReplayCase{"plain_user_safe", {}, 1000, AttackId::ReadDevMem, false},
        ReplayCase{"netbind", {Capability::NetBindService}, 1000,
                   AttackId::BindPrivilegedPort, true},
        ReplayCase{"bind_safe", {Capability::Setuid}, 1000,
                   AttackId::BindPrivilegedPort, false},
        ReplayCase{"capkill", {Capability::Kill}, 1000,
                   AttackId::KillServer, true},
        ReplayCase{"setuid_kill", {Capability::Setuid}, 1000,
                   AttackId::KillServer, true},
        ReplayCase{"kill_safe", {Capability::Setgid}, 1000,
                   AttackId::KillServer, false}));

TEST(WitnessReplayManual, PaperExampleWitnessExecutes) {
  // The Fig. 2-4 example: replay chown -> chmod -> open on the kernel.
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
  q.initial.normalize();
  q.messages = {
      msg_open(1, 3, kAccRead, {}),
      msg_setuid(1, kWild, {Capability::Setuid}),
      msg_chown(1, kWild, kWild, 41, {Capability::Chown}),
      msg_chmod(1, kWild, 0777, {}),
  };
  q.goal = goal_file_in_rdfset(1, 3);

  SearchResult r = search(q);
  ASSERT_EQ(r.verdict, Verdict::Reachable);

  Materialized world(q.initial);
  std::string diag;
  ASSERT_TRUE(world.replay(r.witness, &diag)) << diag;
  EXPECT_TRUE(world.holds_open(1, 3, false));
}

TEST(WitnessReplayManual, TamperedWitnessFails) {
  // Dropping the chown step must make the remaining steps fail on the
  // kernel — replay is a real check, not a rubber stamp.
  Query q;
  ProcObj p;
  p.id = 1;
  p.uid = {10, 10, 10};
  p.gid = {10, 10, 10};
  q.initial.procs.push_back(p);
  q.initial.files.push_back(FileObj{3, {40, 41, os::Mode(0000)}});
  q.initial.set_name(3, "f");
  q.initial.set_users({10});
  q.initial.set_groups({41});
  q.initial.normalize();
  q.messages = {
      msg_open(1, 3, kAccRead, {}),
      msg_chown(1, 3, 10, 41, {Capability::Chown}),
      msg_chmod(1, 3, 0777, {}),
  };
  q.goal = goal_file_in_rdfset(1, 3);

  SearchResult r = search(q);
  ASSERT_EQ(r.verdict, Verdict::Reachable);
  ASSERT_EQ(r.witness.size(), 3u);

  std::vector<Action> tampered = {r.witness[1], r.witness[2]};  // no chown
  Materialized world(q.initial);
  std::string diag;
  EXPECT_FALSE(world.replay(tampered, &diag));
  EXPECT_NE(diag.find("EPERM"), std::string::npos) << diag;
}

TEST(WitnessReplayManual, MaterializedInitialStateIsFaithful) {
  State st;
  ProcObj p;
  p.id = 1;
  p.uid = {5, 6, 7};
  p.gid = {8, 9, 10};
  p.supplementary = {15, 42};
  p.rdfset.insert(3);
  st.procs.push_back(p);
  st.files.push_back(FileObj{3, {5, 8, os::Mode(0600)}});
  st.set_name(3, "f");
  st.socks.push_back(SockObj{4, 1, 8080});
  st.normalize();

  Materialized world(st);
  const os::Process& kp = world.kernel().process(
      *world.kernel().find_process("rosa_proc1"));
  EXPECT_EQ(kp.creds.uid, (caps::IdTriple{5, 6, 7}));
  EXPECT_EQ(kp.creds.gid, (caps::IdTriple{8, 9, 10}));
  EXPECT_TRUE(kp.creds.in_group(42));
  EXPECT_TRUE(world.holds_open(1, 3, false));
  EXPECT_FALSE(world.holds_open(1, 3, true));
  EXPECT_TRUE(world.kernel().net().port_in_use(8080));
}

}  // namespace
}  // namespace pa::rosa
