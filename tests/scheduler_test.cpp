// Tests for the multi-process scheduler: interleaving, cross-process
// signals, and a real privilege-separated monitor/worker pair.
#include <gtest/gtest.h>

#include "chronopriv/epoch.h"
#include "scheduler_scenarios.h"
#include "support/error.h"
#include "vm/profiler.h"
#include "vm/scheduler.h"

namespace pa::vm {
namespace {

using caps::Capability;

TEST(SchedulerTest, TwoProcessesBothFinish) {
  scenarios::Scenario s = scenarios::two_processes();
  Scheduler sched(s.kernel);
  s.add_to(sched);
  std::uint64_t total = sched.run_all(/*quantum=*/10);

  EXPECT_EQ(sched.exit_code(0), 7);
  EXPECT_EQ(sched.exit_code(1), 8);
  EXPECT_FALSE(s.kernel.process(s.pid(0)).alive());
  EXPECT_FALSE(s.kernel.process(s.pid(1)).alive());
  EXPECT_GE(total, 102u);
}

TEST(SchedulerTest, CrossProcessSignalDelivery) {
  // Process A registers a SIGTERM handler and loops; process B kills A.
  // A's handler exits with a recognizable code.
  scenarios::Scenario s = scenarios::cross_process_signal();
  Scheduler sched(s.kernel);
  s.add_to(sched);
  sched.run_all(/*quantum=*/8);

  EXPECT_EQ(sched.exit_code(0), 99);  // handler ran
  EXPECT_EQ(sched.exit_code(1), 0);
}

TEST(SchedulerTest, SigkillTerminatesVictimMidRun) {
  scenarios::Scenario s = scenarios::sigkill_victim();
  Scheduler sched(s.kernel);
  s.add_to(sched);
  sched.run_all();
  EXPECT_FALSE(s.kernel.process(s.pid(0)).alive());
  EXPECT_EQ(s.kernel.process(s.pid(0)).exit_code, 128 + os::kSigKill);
}

TEST(SchedulerTest, PrivilegeSeparatedPair) {
  // The real privilege-separation shape: a monitor keeps CAP_NET_BIND_SERVICE
  // and binds the privileged port; the worker (a separate process with an
  // EMPTY permitted set) does the long-running request work. ChronoPriv on
  // the worker shows zero capability exposure regardless of how long it runs.
  scenarios::Scenario s = scenarios::privsep_pair();
  chronopriv::EpochTracker worker_epochs;
  Scheduler sched(s.kernel);
  s.add_to(sched);
  sched.interpreter(1).set_tracer(&worker_epochs);
  sched.run_all();

  EXPECT_EQ(s.kernel.net().port_owner(22), s.pid(0));  // the monitor bound it
  ASSERT_EQ(worker_epochs.epochs().size(), 1u);
  EXPECT_TRUE(worker_epochs.epochs()[0].key.permitted.empty());
  EXPECT_GT(worker_epochs.total_instructions(), 400u);
}

TEST(SchedulerTest, StepRoundReportsLiveness) {
  scenarios::Scenario s = scenarios::short_program();
  Scheduler sched(s.kernel);
  s.add_to(sched);
  EXPECT_TRUE(sched.step_round(/*quantum=*/2));   // 2 of 6 instructions
  EXPECT_TRUE(sched.step_round(2));
  EXPECT_FALSE(sched.step_round(100));            // finishes here
  EXPECT_FALSE(sched.step_round(100));            // idempotent when done
}

TEST(SchedulerTest, ZeroQuantumIsRejected) {
  // A zero quantum executes nothing, so run_all(0) would loop forever. The
  // rejected calls run nothing; the world still finishes afterwards.
  scenarios::Scenario s = scenarios::two_processes();
  Scheduler sched(s.kernel);
  s.add_to(sched);
  EXPECT_THROW(sched.run_all(0), Error);
  EXPECT_THROW(sched.step_round(0), Error);
  EXPECT_EQ(sched.interpreter(0).executed(), 0u);
  EXPECT_EQ(sched.run_all(64), 102u);
  EXPECT_EQ(sched.exit_code(0), 7);
  EXPECT_EQ(sched.exit_code(1), 8);
}

TEST(SchedulerTest, QuantumEndingMidBlockSplitsTheRun) {
  // 5 nops and priv_remove(CAP_SETUID) run with CAP_SETUID permitted, the
  // last 5 nops and ret without it. Per-instruction stepping at quantum 2
  // gives 2, 4, ... 12 instructions and splits the timeline at 6.
  scenarios::Scenario s = scenarios::mid_block_epoch();
  chronopriv::EpochTracker epochs;
  Scheduler sched(s.kernel);
  s.add_to(sched);
  sched.interpreter(0).set_tracer(&epochs);
  const caps::CapSet setuid{Capability::Setuid};
  for (std::uint64_t round = 1; round <= 6; ++round) {
    SCOPED_TRACE(round);
    EXPECT_EQ(sched.step_round(2), round < 6);
    EXPECT_EQ(sched.interpreter(0).executed(), 2 * round);
    const auto& timeline = epochs.timeline();
    ASSERT_EQ(timeline.size(), round <= 3 ? 1u : 2u);
    EXPECT_EQ(timeline[0].key.permitted, setuid);
    EXPECT_EQ(timeline[0].start, 0u);
    EXPECT_EQ(timeline[0].length, std::min<std::uint64_t>(2 * round, 6));
    if (round > 3) {
      EXPECT_TRUE(timeline[1].key.permitted.empty());
      EXPECT_EQ(timeline[1].start, 6u);
      EXPECT_EQ(timeline[1].length, 2 * round - 6);
    }
  }
}

TEST(SchedulerTest, SignalFromAnotherProcessRunsHandlerAfterOneInstruction) {
  // Turn 1 (quantum 4): the victim executes signal, br and two loop nops;
  // the killer sends SIGTERM and returns. Turn 2: the pending signal is
  // delivered after ONE more loop instruction, so the handler's exit is
  // the victim's sixth instruction.
  scenarios::Scenario s = scenarios::signal_mid_block();
  FunctionProfiler profile;
  Scheduler sched(s.kernel);
  s.add_to(sched);
  sched.interpreter(0).set_tracer(&profile);

  EXPECT_TRUE(sched.step_round(4));
  EXPECT_EQ(sched.interpreter(0).executed(), 4u);
  EXPECT_TRUE(sched.interpreter(1).finished());

  EXPECT_FALSE(sched.step_round(4));
  EXPECT_EQ(sched.interpreter(0).executed(), 6u);
  EXPECT_EQ(sched.exit_code(0), 99);
  const auto entries = profile.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].function, "main");
  EXPECT_EQ(entries[0].instructions, 5u);
  EXPECT_EQ(entries[1].function, "on_term");
  EXPECT_EQ(entries[1].instructions, 1u);
}

}  // namespace
}  // namespace pa::vm
