// Tests for the PrivIR interpreter and its syscall bridge.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "autopriv/report.h"
#include "chronopriv/epoch.h"
#include "ir/builder.h"
#include "programs/world.h"
#include "support/error.h"
#include "vm/interpreter.h"
#include "vm/syscall_bridge.h"

namespace pa::vm {
namespace {

using ir::IRBuilder;
using B = IRBuilder;
using caps::Capability;
using caps::Credentials;

struct VmFixture : ::testing::Test {
  os::Kernel k;
  ir::Module m{"t"};

  os::Pid spawn(caps::CapSet permitted = {}) {
    return k.spawn("p", Credentials::of_user(1000, 1000), permitted);
  }

  long run(os::Pid pid, std::vector<ir::RtValue> args = {}) {
    Interpreter interp(k, m, pid);
    return interp.run("main", std::move(args));
  }
};

TEST_F(VmFixture, ArithmeticAndReturn) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  int x = b.mov(B::i(6));
  int y = b.mul(B::r(x), B::i(7));
  b.ret(B::r(y));
  b.end_function();
  EXPECT_EQ(run(spawn()), 42);
}

TEST_F(VmFixture, ComparisonsAndBranching) {
  IRBuilder b(m);
  b.begin_function("main", 1);
  int c = b.cmp_lt(B::r(0), B::i(10));
  b.condbr(B::r(c), "small", "big");
  b.at("small");
  b.ret(B::i(1));
  b.at("big");
  b.ret(B::i(2));
  b.end_function();
  EXPECT_EQ(run(spawn(), {std::int64_t{5}}), 1);

  os::Pid p2 = spawn();
  Interpreter i2(k, m, p2);
  EXPECT_EQ(i2.run("main", {std::int64_t{50}}), 2);
}

TEST_F(VmFixture, CallsPassArgsAndReturnValues) {
  IRBuilder b(m);
  b.begin_function("twice", 1);
  int r = b.add(B::r(0), B::r(0));
  b.ret(B::r(r));
  b.end_function();
  b.begin_function("main", 0);
  int v = b.call("twice", {B::i(21)});
  b.ret(B::r(v));
  b.end_function();
  EXPECT_EQ(run(spawn()), 42);
}

TEST_F(VmFixture, IndirectCallThroughFuncRef) {
  IRBuilder b(m);
  b.begin_function("target", 1);
  int r = b.add(B::r(0), B::i(1));
  b.ret(B::r(r));
  b.end_function();
  b.begin_function("main", 0);
  int fp = b.funcaddr("target");
  int v = b.callind(B::r(fp), {B::i(41)});
  b.ret(B::r(v));
  b.end_function();
  m.recompute_address_taken();
  EXPECT_EQ(run(spawn()), 42);
}

TEST_F(VmFixture, ExitShortCircuitsCallStack) {
  IRBuilder b(m);
  b.begin_function("deep", 0);
  b.exit(B::i(7));
  b.end_function();
  b.begin_function("main", 0);
  b.call("deep");
  b.ret(B::i(0));  // never reached
  b.end_function();
  os::Pid p = spawn();
  EXPECT_EQ(run(p), 7);
  EXPECT_FALSE(k.process(p).alive());
  EXPECT_EQ(k.process(p).exit_code, 7);
}

TEST_F(VmFixture, SyscallResultsFollowErrnoConvention) {
  k.vfs().add_file("/f", os::FileMeta{0, 0, os::Mode(0600)}, "x");
  IRBuilder b(m);
  b.begin_function("main", 0);
  int fd = b.syscall("open", {B::s("/f"), B::i(SyscallEncoding::kRead)});
  b.ret(B::r(fd));
  b.end_function();
  long rc = run(spawn());
  EXPECT_EQ(rc, -static_cast<long>(os::Errno::Eacces));
}

TEST_F(VmFixture, PrivOpsDriveKernelState) {
  k.vfs().add_file("/etc/shadow", os::FileMeta{0, 42, os::Mode(0640)}, "s");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.priv_raise({Capability::DacReadSearch});
  int fd = b.syscall("open", {B::s("/etc/shadow"), B::i(SyscallEncoding::kRead)});
  b.priv_lower({Capability::DacReadSearch});
  b.priv_remove({Capability::DacReadSearch});
  b.ret(B::r(fd));
  b.end_function();
  os::Pid p = spawn({Capability::DacReadSearch});
  EXPECT_GE(run(p), 0);
  EXPECT_TRUE(k.process(p).privs.permitted().empty());
}

TEST_F(VmFixture, RaiseOfNonPermittedCapFaults) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.priv_raise({Capability::Chown});
  b.ret(B::i(0));
  b.end_function();
  EXPECT_THROW(run(spawn({})), Error);
}

TEST_F(VmFixture, UnknownSyscallReturnsEnosys) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  int r = b.syscall("frobnicate", {});
  b.ret(B::r(r));
  b.end_function();
  EXPECT_EQ(run(spawn()), -static_cast<long>(os::Errno::Enosys));
}

TEST_F(VmFixture, ExecutedUnreachableFaults) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.unreachable();
  b.end_function();
  EXPECT_THROW(run(spawn()), Error);
}

TEST_F(VmFixture, InstructionBudgetEnforced) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.br("loop");
  b.at("loop");
  b.nop(1);
  b.br("loop");
  b.end_function();
  os::Pid p = spawn();
  Interpreter interp(k, m, p);
  interp.set_limits({.max_instructions = 1000});
  EXPECT_THROW(interp.run("main"), Error);
}

TEST_F(VmFixture, BudgetCutsAStraightLineBlock) {
  // The budget runs out 1000 instructions into a 4097-instruction run: the
  // tracer sees exactly the budget, and the fault is the same as when the
  // budget ends a loop.
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(4096);
  b.ret(B::i(0));
  b.end_function();
  os::Pid p = spawn();
  Interpreter interp(k, m, p);
  chronopriv::EpochTracker epochs;
  interp.set_tracer(&epochs);
  interp.set_limits({.max_instructions = 1000});
  try {
    interp.run("main");
    ADD_FAILURE() << "budget not enforced";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "instruction budget exhausted (1000)");
  }
  EXPECT_EQ(epochs.total_instructions(), 1000u);
  EXPECT_EQ(interp.executed(), 1001u);  // the refused instruction counts
}

TEST_F(VmFixture, SignalDeliveryRunsHandler) {
  IRBuilder b(m);
  b.begin_function("on_term", 1);
  // Handler records the signal by exiting with it.
  b.exit(B::r(0));
  b.end_function();
  b.begin_function("main", 0);
  b.syscall("signal", {B::i(os::kSigTerm), B::f("on_term")});
  int self = b.syscall("getpid", {});
  b.syscall("kill", {B::r(self), B::i(os::kSigTerm)});
  b.nop(10);
  b.ret(B::i(0));
  b.end_function();
  EXPECT_EQ(run(spawn()), os::kSigTerm);
}

TEST_F(VmFixture, ExecutedCountMatchesSmallProgram) {
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(3);
  b.ret(B::i(0));
  b.end_function();
  os::Pid p = spawn();
  Interpreter interp(k, m, p);
  interp.run("main");
  EXPECT_EQ(interp.executed(), 4u);  // 3 nops + ret
}

TEST_F(VmFixture, CancelFlagStopsARun) {
  // The flag is read between turns of 2^16 instructions, so a spinning
  // program stops after exactly one turn.
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.br("loop");
  b.at("loop");
  b.br("loop");
  b.end_function();
  os::Pid p = spawn();
  Interpreter interp(k, m, p);
  const std::atomic<bool> cancel{true};
  interp.set_limits({.cancel = &cancel});
  try {
    interp.run("main");
    ADD_FAILURE() << "cancel not seen";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "cancelled");
  }
  EXPECT_EQ(interp.executed(), 1u << 16);
}

/// Counts the stretches it forwards to an EpochTracker.
struct CountingTracer final : Tracer {
  chronopriv::EpochTracker epochs;
  std::uint64_t calls = 0;
  void on_run(const os::Process& p, const Stretch& s) override {
    ++calls;
    epochs.on_run(p, s);
  }
};

TEST(StretchTest, TableIIProgramsReachTheTracerOncePerStretch) {
  // The five Table-II programs after AutoPriv execute 8.0 M instructions
  // in 510,956 straight-line runs, but a stretch ends only at a syscall,
  // priv_* op, call, return, exit or a 2^16-instruction turn boundary:
  // about 5,300 reports.
  std::uint64_t calls = 0;
  for (programs::ProgramSpec (*make)() :
       {&programs::make_passwd, &programs::make_su, &programs::make_ping,
        &programs::make_thttpd, &programs::make_sshd}) {
    programs::ProgramSpec spec = make();
    SCOPED_TRACE(spec.name);
    autopriv::run_autopriv(spec.module);
    os::Kernel k = programs::make_standard_world();
    const os::Pid pid = programs::spawn_program(k, spec);
    CountingTracer tracer;
    Interpreter interp(k, spec.module, pid);
    interp.set_tracer(&tracer);
    interp.run("main", spec.args);
    EXPECT_EQ(tracer.epochs.total_instructions(), interp.executed());
    calls += tracer.calls;
  }
  EXPECT_LE(calls, 6'000u);
}

TEST(SyscallBridgeTest, KnownSyscallsNonEmptyAndUnique) {
  auto names = known_syscalls();
  EXPECT_GT(names.size(), 25u);
  std::set<std::string> set(names.begin(), names.end());
  EXPECT_EQ(set.size(), names.size());
  EXPECT_TRUE(set.contains("open"));
  EXPECT_TRUE(set.contains("setresuid"));
  EXPECT_TRUE(set.contains("bind"));
}

}  // namespace
}  // namespace pa::vm
