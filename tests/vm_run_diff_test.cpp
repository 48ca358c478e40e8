// Differential test: the decoded, run-batched vm::Interpreter against the
// per-instruction reference interpreter (tests/reference_interpreter.h).
//
// Each program runs once per engine in identically built worlds, and every
// observable must match: the exit code, executed(), the kernel's view of
// the process, ChronoPriv's epochs and timeline, epoch points with capture
// on and off, FunctionProfiler entries, and the violations of an installed
// filter stack under both FilterActions. A faulting run must throw the same
// message. The corpus is Table II, passwdRef, suRef, sshdRef, the example
// programs, the lint fixtures, random modules and handmade faults; the
// scheduler_test worlds run at several quanta and must match per process.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "autopriv/report.h"
#include "chronopriv/epoch.h"
#include "ir/builder.h"
#include "privanalyzer/loader.h"
#include "programs/world.h"
#include "random_module.h"
#include "reference_interpreter.h"
#include "scheduler_scenarios.h"
#include "support/error.h"
#include "vm/interpreter.h"
#include "vm/profiler.h"
#include "vm/scheduler.h"
#include "vm/syscall_bridge.h"

namespace pa::vm {
namespace {

using B = ir::IRBuilder;

struct Decoded {
  using Interp = Interpreter;
  using Sched = Scheduler;
};
struct Reference {
  using Interp = reference::Interpreter;
  using Sched = reference::Scheduler;
};

/// The text of a pa::Error without the source location and condition that
/// PA_CHECK prepends: those name the engine's source file, not the fault.
std::string fault_text(const std::string& what) {
  const std::string marker = "check failed: `";
  const std::size_t at = what.find(marker);
  if (at == std::string::npos) return what;
  const std::size_t end = what.find("`: ", at + marker.size());
  return end == std::string::npos ? what : what.substr(end + 3);
}

std::string dump(const chronopriv::EpochTracker& t) {
  std::ostringstream os;
  os << "total " << t.total_instructions() << "\n";
  for (const chronopriv::Epoch& e : t.epochs())
    os << "epoch " << e.first_seen << " " << e.key.permitted.to_string()
       << " " << e.key.creds.to_string() << " " << e.instructions << "\n";
  for (const chronopriv::EpochSegment& seg : t.timeline())
    os << "segment " << seg.key.permitted.to_string() << " "
       << seg.key.creds.to_string() << " " << seg.start << "+" << seg.length
       << "\n";
  for (std::size_t i = 0; i < t.epoch_points().size(); ++i)
    for (const auto& [point, ip] : t.epoch_points()[i])
      os << "point " << i << " @" << point.first << ":" << point.second
         << "+" << ip << "\n";
  return os.str();
}

std::string dump(const FunctionProfiler& p) {
  std::ostringstream os;
  os << "profile " << p.total() << "\n";
  for (const FunctionProfiler::Entry& e : p.entries())
    os << "  @" << e.function << " " << e.instructions << "\n";
  return os.str();
}

std::string dump(const os::Kernel& k, os::Pid pid) {
  const os::Process& p = k.process(pid);
  std::ostringstream os;
  os << "process alive=" << p.alive() << " exit=" << p.exit_code << " "
     << p.creds.to_string() << " " << p.privs.to_string() << "\n";
  for (const os::FilterViolation& v : k.filter_violations())
    os << "violation " << v.pid << " " << v.epoch << " " << v.syscall << " "
       << static_cast<int>(v.action) << "\n";
  return os.str();
}

/// How one program is run.
struct RunSetup {
  std::string name;
  bool points = false;
  std::optional<os::FilterAction> filter;
  std::uint64_t budget = RunLimits{}.max_instructions;
};

const std::vector<RunSetup>& setups() {
  static const std::vector<RunSetup> all = {
      {"plain", false, std::nullopt},
      {"points", true, std::nullopt},
      {"filter_eperm", true, os::FilterAction::Eperm},
      {"filter_kill", false, os::FilterAction::Kill},
  };
  return all;
}

/// A filter stack that denies a different third of the known syscalls in
/// each epoch, so most programs hit denials in some epoch.
os::FilterStack skewed_filters(os::FilterAction action) {
  const std::vector<std::string> names = known_syscalls();
  os::FilterStack stack;
  stack.action = action;
  for (std::size_t e = 0; e < 6; ++e) {
    os::SyscallFilter f;
    f.epoch = "e" + std::to_string(e);
    for (std::size_t i = 0; i < names.size(); ++i)
      if ((i + e) % 3 != 0) f.allowed.insert(names[i]);
    stack.filters.push_back(std::move(f));
  }
  return stack;
}

/// Run `spec`'s module (as given, no AutoPriv) on `Engine` and render every
/// observable. The first line is the exit code or the fault.
template <typename Engine>
std::string observe(const programs::ProgramSpec& spec, const RunSetup& setup) {
  os::Kernel kernel = spec.refactored_world ? programs::make_refactored_world()
                                            : programs::make_standard_world();
  const os::Pid pid = programs::spawn_program(kernel, spec);
  if (setup.filter) kernel.install_filters(pid, skewed_filters(*setup.filter));

  chronopriv::EpochTracker epochs;
  epochs.set_record_points(setup.points);
  if (setup.filter)
    epochs.set_epoch_change_hook([&kernel, pid](std::size_t e) {
      kernel.set_filter_epoch(pid, e);
    });
  FunctionProfiler profile;
  MultiTracer both({&epochs, &profile});

  typename Engine::Interp interp(kernel, spec.module, pid);
  interp.set_tracer(&both);
  interp.set_limits({.max_instructions = setup.budget});
  std::ostringstream os;
  try {
    const long rc = interp.run("main", spec.args);
    os << "exit " << rc << "\n";
  } catch (const Error& e) {
    os << "fault " << fault_text(e.what()) << "\n";
  }
  os << "executed " << interp.executed() << "\n"
     << dump(epochs) << dump(profile) << dump(kernel, pid);
  return os.str();
}

std::string first_line(const std::string& text) {
  return text.substr(0, text.find('\n'));
}

void expect_same_runs(const programs::ProgramSpec& spec) {
  for (const RunSetup& setup : setups()) {
    SCOPED_TRACE(spec.name + " / " + setup.name);
    const std::string want = observe<Reference>(spec, setup);
    EXPECT_EQ(observe<Decoded>(spec, setup), want);
  }
}

/// The module ChronoPriv measures in the pipeline: the program after
/// AutoPriv's priv_remove insertion.
programs::ProgramSpec after_autopriv(programs::ProgramSpec spec) {
  autopriv::run_autopriv(spec.module);
  return spec;
}

TEST(RunSetupTest, SetupsReachPointsAndDenials) {
  // The comparisons below check points and filters only if the setups
  // produce them: on passwd, point capture records points and both
  // filter actions deny syscalls.
  const programs::ProgramSpec spec = programs::make_passwd();
  for (const RunSetup& setup : setups()) {
    SCOPED_TRACE(setup.name);
    const std::string seen = observe<Reference>(spec, setup);
    EXPECT_EQ(seen.find("\npoint ") != std::string::npos, setup.points);
    EXPECT_EQ(seen.find("\nviolation ") != std::string::npos,
              setup.filter.has_value());
  }
}

// --- Paper programs, examples and lint fixtures ------------------------------

/// A program maker with its name; PrintTo keeps ctest names stable.
struct ProgramCase {
  const char* name;
  programs::ProgramSpec (*make)();
};
void PrintTo(const ProgramCase& c, std::ostream* os) { *os << c.name; }

class PaperProgramDiff : public ::testing::TestWithParam<ProgramCase> {};

TEST_P(PaperProgramDiff, DecodedMatchesReference) {
  const programs::ProgramSpec raw = GetParam().make();
  expect_same_runs(raw);
  expect_same_runs(after_autopriv(raw));
}

INSTANTIATE_TEST_SUITE_P(
    Programs, PaperProgramDiff,
    ::testing::Values(ProgramCase{"passwd", &programs::make_passwd},
                      ProgramCase{"su", &programs::make_su},
                      ProgramCase{"ping", &programs::make_ping},
                      ProgramCase{"thttpd", &programs::make_thttpd},
                      ProgramCase{"sshd", &programs::make_sshd},
                      ProgramCase{"passwdRef",
                                  &programs::make_passwd_refactored},
                      ProgramCase{"suRef", &programs::make_su_refactored},
                      ProgramCase{"sshdRef", &programs::make_sshd_refactored}),
    [](const ::testing::TestParamInfo<ProgramCase>& info) {
      return std::string(info.param.name);
    });

class ExampleFileDiff : public ::testing::TestWithParam<const char*> {};

TEST_P(ExampleFileDiff, DecodedMatchesReference) {
  const programs::ProgramSpec raw = privanalyzer::load_program_file(
      std::string(PA_SOURCE_DIR) + "/examples/" + GetParam());
  expect_same_runs(raw);
  expect_same_runs(after_autopriv(raw));
}

INSTANTIATE_TEST_SUITE_P(
    Files, ExampleFileDiff,
    ::testing::Values("programs/tinyd.pir", "programs/filesrv.pc",
                      "programs/su.pc", "lint/empty_targets.pir",
                      "lint/never_raised.pir", "lint/overbroad_syscalls.pir",
                      "lint/raise_no_lower.pir", "lint/redundant_remove.pir",
                      "lint/unreachable.pir", "lint/unused_epoch.pir"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// --- Random modules ----------------------------------------------------------

class RandomModuleDiff : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomModuleDiff, DecodedMatchesReference) {
  std::mt19937 rng(GetParam());
  programs::ProgramSpec spec;
  spec.name = "fuzz" + std::to_string(GetParam());
  spec.module = random_module(rng);
  spec.launch_creds = caps::Credentials::of_user(1000, 1000);
  // With CAP_SETUID permitted the helpers' priv_raise succeeds; without it,
  // any executed priv_raise is a fault both engines must report alike.
  spec.launch_permitted = {caps::Capability::Setuid};
  expect_same_runs(spec);
  spec.launch_permitted = {};
  expect_same_runs(spec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModuleDiff, ::testing::Range(0u, 48u));

// --- Faults ------------------------------------------------------------------

programs::ProgramSpec fault_spec(const std::string& name,
                                 void (*build)(ir::IRBuilder&)) {
  programs::ProgramSpec spec;
  spec.name = name;
  spec.module = ir::Module(name);
  ir::IRBuilder b(spec.module);
  build(b);
  spec.module.recompute_address_taken();
  spec.launch_creds = caps::Credentials::of_user(1000, 1000);
  return spec;
}

TEST(FaultDiff, FaultsThrowTheSameMessage) {
  const std::vector<programs::ProgramSpec> faults = {
      fault_spec("unreachable",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(3);
                   b.unreachable();
                   b.end_function();
                 }),
      fault_spec("raise_not_permitted",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(2);
                   b.priv_raise({caps::Capability::Chown});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      fault_spec("callind_through_int",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int v = b.mov(B::i(5));
                   b.callind(B::r(v), {});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      fault_spec("call_unknown_function",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(1);
                   b.call("missing", {});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      fault_spec("call_arity_mismatch",
                 [](ir::IRBuilder& b) {
                   b.begin_function("callee", 2);
                   b.ret(B::i(0));
                   b.end_function();
                   b.begin_function("main", 0);
                   b.call("callee", {B::i(1)});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      fault_spec("fell_off_block",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(4);
                   b.end_function();
                 }),
  };
  const RunSetup setup{"plain", false, std::nullopt};
  for (const programs::ProgramSpec& spec : faults) {
    SCOPED_TRACE(spec.name);
    const std::string want = observe<Reference>(spec, setup);
    EXPECT_EQ(want.rfind("fault ", 0), 0u) << want;
    EXPECT_EQ(observe<Decoded>(spec, setup), want);
  }
}

TEST(FaultDiff, FaultInsideARunThrowsTheSameMessage) {
  // The decoded engine has already counted the rest of the faulting run
  // (DESIGN.md decision 16), so only the fault itself must match.
  const std::vector<programs::ProgramSpec> faults = {
      fault_spec("division_by_zero_mid_run",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int z = b.mov(B::i(0));
                   b.nop(2);
                   b.binop(ir::Opcode::Div, B::i(7), B::r(z));
                   b.nop(5);
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      fault_spec("string_arithmetic_mid_run",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int s = b.mov(B::s("text"));
                   b.add(B::r(s), B::i(1));
                   b.nop(5);
                   b.ret(B::i(0));
                   b.end_function();
                 }),
  };
  const RunSetup setup{"plain", false, std::nullopt};
  for (const programs::ProgramSpec& spec : faults) {
    SCOPED_TRACE(spec.name);
    const std::string want = observe<Reference>(spec, setup);
    EXPECT_EQ(want.rfind("fault ", 0), 0u) << want;
    EXPECT_EQ(first_line(observe<Decoded>(spec, setup)), first_line(want));
  }
}

TEST(FaultDiff, BudgetEndsInsideARun) {
  // A budget that is not a multiple of the run length ends inside a run:
  // the 9-instruction loop body, and thttpd's 30-instruction loop bodies
  // in every setup (under the killing filter, thttpd dies first).
  const programs::ProgramSpec loop = fault_spec("budget_in_loop",
      [](ir::IRBuilder& b) {
        b.begin_function("main", 0);
        b.br("loop");
        b.at("loop");
        b.nop(7);
        b.br("loop");
        b.end_function();
      });
  const RunSetup setup{"plain", false, std::nullopt, /*budget=*/10'000};
  const std::string want = observe<Reference>(loop, setup);
  EXPECT_EQ(first_line(want), "fault instruction budget exhausted (10000)");
  EXPECT_EQ(observe<Decoded>(loop, setup), want);

  const programs::ProgramSpec thttpd = programs::make_thttpd();
  for (RunSetup budgeted : setups()) {
    SCOPED_TRACE(budgeted.name);
    budgeted.budget = 100'003;
    const std::string want_thttpd = observe<Reference>(thttpd, budgeted);
    if (!budgeted.filter) {
      EXPECT_EQ(first_line(want_thttpd),
                "fault instruction budget exhausted (100003)");
    }
    EXPECT_EQ(observe<Decoded>(thttpd, budgeted), want_thttpd);
  }
}

// --- Multi-process worlds ----------------------------------------------------

/// Run `make()`'s world round-robin at `quantum` with an EpochTracker (point
/// capture on) on every process; render the round count and each process.
template <typename Engine>
std::string observe_world(scenarios::Scenario (*make)(),
                          std::uint64_t quantum) {
  scenarios::Scenario s = make();
  typename Engine::Sched sched(s.kernel);
  s.add_to(sched);
  std::vector<chronopriv::EpochTracker> epochs(s.procs.size());
  for (std::size_t i = 0; i < s.procs.size(); ++i) {
    epochs[i].set_record_points(true);
    sched.interpreter(i).set_tracer(&epochs[i]);
  }
  std::ostringstream os;
  int rounds = 0;
  while (sched.step_round(quantum)) ++rounds;
  os << "rounds " << rounds << "\n";
  for (std::size_t i = 0; i < s.procs.size(); ++i) {
    auto& interp = sched.interpreter(i);
    os << "proc " << i << " exit " << interp.exit_code() << " executed "
       << interp.executed() << " finished " << interp.finished() << "\n"
       << dump(epochs[i]) << dump(s.kernel, s.pid(i));
  }
  return os.str();
}

/// A world builder with its name; PrintTo keeps ctest names stable.
struct WorldCase {
  const char* name;
  scenarios::Scenario (*make)();
};
void PrintTo(const WorldCase& c, std::ostream* os) { *os << c.name; }

class SchedulerDiff
    : public ::testing::TestWithParam<std::tuple<WorldCase, std::uint64_t>> {};

TEST_P(SchedulerDiff, DecodedMatchesReferencePerProcess) {
  const auto [world, quantum] = GetParam();
  const std::string want = observe_world<Reference>(world.make, quantum);
  EXPECT_EQ(observe_world<Decoded>(world.make, quantum), want);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, SchedulerDiff,
    ::testing::Combine(
        ::testing::Values(
            WorldCase{"two_processes", &scenarios::two_processes},
            WorldCase{"cross_process_signal", &scenarios::cross_process_signal},
            WorldCase{"sigkill_victim", &scenarios::sigkill_victim},
            WorldCase{"privsep_pair", &scenarios::privsep_pair},
            WorldCase{"short_program", &scenarios::short_program},
            WorldCase{"mid_block_epoch", &scenarios::mid_block_epoch},
            WorldCase{"signal_mid_block", &scenarios::signal_mid_block}),
        ::testing::Values(std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7},
                          std::uint64_t{64})),
    [](const ::testing::TestParamInfo<SchedulerDiff::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_q" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace pa::vm
