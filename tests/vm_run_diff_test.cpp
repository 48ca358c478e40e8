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
// Handmade loops pin a stretch's edges: a start in the middle of a block,
// a fault several blocks into a stretch, and scheduler cuts at every op.
#include <gtest/gtest.h>

#include <cctype>
#include <limits>
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

programs::ProgramSpec build_spec(const std::string& name,
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
      build_spec("unreachable",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(3);
                   b.unreachable();
                   b.end_function();
                 }),
      build_spec("raise_not_permitted",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(2);
                   b.priv_raise({caps::Capability::Chown});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      build_spec("callind_through_int",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int v = b.mov(B::i(5));
                   b.callind(B::r(v), {});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      build_spec("call_unknown_function",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(1);
                   b.call("missing", {});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      build_spec("call_arity_mismatch",
                 [](ir::IRBuilder& b) {
                   b.begin_function("callee", 2);
                   b.ret(B::i(0));
                   b.end_function();
                   b.begin_function("main", 0);
                   b.call("callee", {B::i(1)});
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      build_spec("fell_off_block",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.nop(4);
                   b.end_function();
                 }),
      // The div ends its block, so it ends its run in both engines.
      build_spec("division_overflow",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int m = b.mov(
                       B::i(std::numeric_limits<std::int64_t>::min()));
                   b.nop(2);
                   b.binop(ir::Opcode::Div, B::r(m), B::i(-1));
                   b.end_function();
                 }),
      build_spec("signal_to_missing_handler",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   b.syscall("signal", {B::i(os::kSigTerm), B::f("missing")});
                   int pid = b.syscall("getpid");
                   b.syscall("kill", {B::r(pid), B::i(os::kSigTerm)});
                   b.nop(2);
                   b.ret(B::i(0));
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
      build_spec("division_by_zero_mid_run",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int z = b.mov(B::i(0));
                   b.nop(2);
                   b.binop(ir::Opcode::Div, B::i(7), B::r(z));
                   b.nop(5);
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      build_spec("string_arithmetic_mid_run",
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
  const programs::ProgramSpec loop = build_spec("budget_in_loop",
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

// --- Stretch edges -----------------------------------------------------------

/// A counted loop: `head` (block 1) tests i < 4 with cmplt/condbr, and
/// `body` (block 2) runs two nops, priv_remove(CAP_SETUID), a nop, getpid,
/// two nops, then i = i + 1 (add, mov) and br head. Launched with
/// CAP_SETUID permitted, the first priv_remove changes the epoch, so the new
/// epoch's first point in `body` is ip 3. Every stretch after a getpid
/// starts at ip 5 of `body` and re-enters `body` at ip 0 through the loop.
void build_counted_loop(ir::IRBuilder& b) {
  b.begin_function("main", 0);
  const int i = b.mov(B::i(0));
  b.br("head");
  b.at("head");
  b.condbr(B::r(b.cmp_lt(B::r(i), B::i(4))), "body", "done");
  b.at("body");
  b.nop(2);
  b.priv_remove({caps::Capability::Setuid});
  b.nop(1);
  b.syscall("getpid");
  b.nop(2);
  b.mov_to(i, B::r(b.add(B::r(i), B::i(1))));
  b.br("head");
  b.at("done");
  b.ret(B::i(0));
  b.end_function();
}

TEST(StretchEdgeDiff, MidBlockStartThenReentryAtIpZero) {
  programs::ProgramSpec spec = build_spec("counted_loop", &build_counted_loop);
  spec.launch_permitted = {caps::Capability::Setuid};
  const std::string seen =
      observe<Reference>(spec, RunSetup{"points", true, std::nullopt});
  ASSERT_EQ(first_line(seen), "exit 0");
  // Epoch 1 enters `body` at ip 3 first; the loop's re-entry lowers it to 0.
  EXPECT_NE(seen.find("\npoint 1 @main:2+0\n"), std::string::npos) << seen;
  expect_same_runs(spec);
}

/// The value of the line `key <number>` in an observe() rendering.
std::uint64_t rendered(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << key << " in " << text;
  if (at == std::string::npos) return 0;
  return std::stoull(text.substr(at + key.size() + 2));
}

TEST(StretchEdgeDiff, FaultOnALaterIterationChargesTheStretch) {
  // Each loop faults on its third or fourth iteration, inside a stretch
  // that has crossed several blocks. The fault must match the reference,
  // and the faulting stretch must have been charged and reported:
  // executed() equals both tracers' totals and counts at least every
  // instruction the reference executed, the faulting one included.
  const std::vector<programs::ProgramSpec> faults = {
      build_spec("division_by_zero_in_loop",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   const int i = b.mov(B::i(0));
                   b.br("head");
                   b.at("head");
                   b.condbr(B::r(b.cmp_lt(B::r(i), B::i(5))), "body",
                            "done");
                   b.at("body");
                   b.nop(2);
                   b.binop(ir::Opcode::Div, B::i(10),
                           B::r(b.sub(B::i(2), B::r(i))));  // i = 2 faults
                   b.nop(3);
                   b.br("latch");
                   b.at("latch");
                   b.mov_to(i, B::r(b.add(B::r(i), B::i(1))));
                   b.br("head");
                   b.at("done");
                   b.ret(B::i(0));
                   b.end_function();
                 }),
      build_spec("condbr_on_string_in_loop",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   const int i = b.mov(B::i(0));
                   const int c = b.mov(B::i(1));
                   b.br("head");
                   b.at("head");
                   b.condbr(B::r(c), "body", "done");  // i = 3 faults
                   b.at("body");
                   b.nop(2);
                   b.mov_to(i, B::r(b.add(B::r(i), B::i(1))));
                   b.condbr(B::r(b.cmpeq(B::r(i), B::i(3))), "poison",
                            "head");
                   b.at("poison");
                   b.mov_to(c, B::s("text"));
                   b.br("head");
                   b.at("done");
                   b.ret(B::i(0));
                   b.end_function();
                 }),
  };
  for (const programs::ProgramSpec& spec : faults) {
    for (const RunSetup& setup : setups()) {
      SCOPED_TRACE(spec.name + " / " + setup.name);
      const std::string want = observe<Reference>(spec, setup);
      ASSERT_EQ(want.rfind("fault ", 0), 0u) << want;
      const std::string got = observe<Decoded>(spec, setup);
      EXPECT_EQ(first_line(got), first_line(want));
      const std::uint64_t executed = rendered(got, "executed");
      EXPECT_EQ(executed, rendered(got, "total"));
      EXPECT_EQ(executed, rendered(got, "profile"));
      EXPECT_GE(executed, rendered(want, "executed"));
    }
  }
}

// --- Value kinds and integer arithmetic -------------------------------------

/// A register holding sum(bits[i] << i), so one exit code pins several
/// comparison results.
int bitmask(ir::IRBuilder& b, const std::vector<int>& bits) {
  int sum = b.mov(B::i(0));
  for (std::size_t i = 0; i < bits.size(); ++i)
    sum = b.add(B::r(sum), B::r(b.mul(B::r(bits[i]), B::i(1 << i))));
  return sum;
}

TEST(HandmadeModuleDiff, DecodedMatchesReference) {
  // Strings and function references moving through registers, calls,
  // returns and syscalls, and int64 arithmetic at its limits. The plain
  // run's first line is pinned, so each module keeps testing what it
  // claims; then every setup must match the reference.
  std::vector<std::pair<programs::ProgramSpec, std::string>> cases;
  cases.emplace_back(
      build_spec("equal_strings_from_three_sources",
                 [](ir::IRBuilder& b) {
                   b.begin_function("path", 0);
                   b.ret(B::s("/etc/passwd"));
                   b.end_function();
                   b.begin_function("main", 1);  // %0: entry argument
                   const int arg = b.param(0);
                   int imm = b.mov(B::s("/etc/passwd"));
                   int got = b.call("path");
                   b.ret(B::r(bitmask(
                       b, {b.cmpeq(B::r(arg), B::r(imm)),
                           b.cmpeq(B::r(arg), B::r(got)),
                           b.cmpeq(B::r(imm), B::r(got)),
                           b.cmpeq(B::r(got), B::s("/etc/passwd")),
                           b.cmpne(B::r(got), B::s("/etc/shadow")),
                           b.cmpne(B::r(arg), B::r(imm))})));
                   b.end_function();
                 }),
      "exit 31");
  cases.back().first.args = {std::string("/etc/passwd")};
  cases.emplace_back(
      build_spec("mixed_kind_equality",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int s5 = b.mov(B::s("5"));
                   int i5 = b.mov(B::i(5));
                   int f = b.mov(B::f("main"));
                   int m = b.mov(B::s("main"));
                   b.ret(B::r(bitmask(
                       b, {b.cmpeq(B::r(i5), B::r(s5)),
                           b.cmpne(B::r(s5), B::r(i5)),
                           b.cmpeq(B::r(f), B::r(m)),
                           b.cmpne(B::r(m), B::f("main")),
                           b.cmpeq(B::r(f), B::f("main")),
                           b.cmpeq(B::i(0), B::s("")),
                           b.cmpeq(B::s("main"), B::f("main"))})));
                   b.end_function();
                 }),
      "exit 26");
  cases.emplace_back(
      build_spec("funcaddr_vs_func_operand",
                 [](ir::IRBuilder& b) {
                   b.begin_function("helper", 1);
                   b.ret(B::r(b.add(B::r(b.param(0)), B::i(1))));
                   b.end_function();
                   b.begin_function("other", 1);
                   b.ret(B::r(b.param(0)));
                   b.end_function();
                   b.begin_function("main", 0);
                   int a = b.funcaddr("helper");
                   int m = b.mov(B::f("helper"));
                   int o = b.funcaddr("other");
                   int bits = bitmask(
                       b, {b.cmpeq(B::r(a), B::r(m)),
                           b.cmpeq(B::r(a), B::f("helper")),
                           b.cmpne(B::r(a), B::r(o)),
                           b.cmpeq(B::r(a), B::s("helper"))});
                   int x = b.callind(B::r(a), {B::i(10)});
                   int y = b.callind(B::r(m), {B::r(x)});
                   int scaled = b.mul(B::r(y), B::i(16));
                   b.ret(B::r(b.add(B::r(bits), B::r(scaled))));
                   b.end_function();
                 }),
      "exit 199");
  cases.emplace_back(
      build_spec("callind_through_moved_function",
                 [](ir::IRBuilder& b) {
                   b.begin_function("twice", 1);
                   b.ret(B::r(b.mul(B::r(b.param(0)), B::i(2))));
                   b.end_function();
                   b.begin_function("pick", 0);
                   b.ret(B::f("twice"));
                   b.end_function();
                   b.begin_function("main", 0);
                   int f = b.mov(B::f("twice"));
                   int g = b.mov(B::r(f));
                   int x = b.callind(B::r(g), {B::i(21)});
                   int picked = b.call("pick");
                   b.ret(B::r(b.callind(B::r(picked), {B::r(x)})));
                   b.end_function();
                 }),
      "exit 84");
  cases.emplace_back(
      build_spec("string_registers_to_open",
                 [](ir::IRBuilder& b) {
                   b.begin_function("path", 0);
                   b.ret(B::s("/etc/passwd"));
                   b.end_function();
                   b.begin_function("main", 0);
                   int p = b.mov(B::s("/etc/passwd"));
                   int fd = b.syscall("open", {B::r(p), B::i(1)});
                   int q = b.call("path");
                   int fd2 = b.syscall("open", {B::r(q), B::i(1)});
                   int s = b.mov(B::s("/etc/shadow"));
                   int fd3 = b.syscall("open", {B::r(s), B::i(1)});
                   b.ret(B::r(bitmask(
                       b, {b.cmp_ge(B::r(fd), B::i(0)),
                           b.cmp_ge(B::r(fd2), B::i(0)),
                           b.cmp_lt(B::r(fd3), B::i(0))})));
                   b.end_function();
                 }),
      "exit 7");
  cases.emplace_back(
      build_spec("signal_handlers",
                 [](ir::IRBuilder& b) {
                   // SIGHUP's handler raises SIGTERM, whose handler
                   // exits: exit 115 shows both ran.
                   b.begin_function("on_term", 1);
                   b.exit(B::r(b.add(B::r(b.param(0)), B::i(100))));
                   b.end_function();
                   b.begin_function("on_hup", 1);
                   int self = b.syscall("getpid");
                   b.syscall("kill", {B::r(self), B::i(os::kSigTerm)});
                   b.ret(B::i(0));
                   b.end_function();
                   b.begin_function("main", 0);
                   b.syscall("signal", {B::i(os::kSigHup), B::f("on_hup")});
                   int h = b.mov(B::f("on_term"));
                   b.syscall("signal", {B::i(os::kSigTerm), B::r(h)});
                   int pid = b.syscall("getpid");
                   b.syscall("kill", {B::r(pid), B::i(os::kSigHup)});
                   b.nop(2);
                   b.ret(B::i(3));
                   b.end_function();
                 }),
      "exit 115");
  // The add ends its block, so the fault ends its run in both engines.
  cases.emplace_back(
      build_spec("string_arithmetic_on_call_result",
                 [](ir::IRBuilder& b) {
                   b.begin_function("name", 0);
                   b.ret(B::s("text"));
                   b.end_function();
                   b.begin_function("main", 0);
                   int s = b.call("name");
                   b.nop(2);
                   b.add(B::r(s), B::i(1));
                   b.end_function();
                 }),
      "fault runtime value is not an integer");
  cases.emplace_back(
      build_spec("wrapping_arithmetic",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int min = b.mov(
                       B::i(std::numeric_limits<std::int64_t>::min()));
                   int max = b.mov(
                       B::i(std::numeric_limits<std::int64_t>::max()));
                   int add = b.add(B::r(max), B::i(1));
                   int sub = b.sub(B::r(min), B::i(1));
                   int mul = b.mul(B::r(max), B::i(2));
                   int neg = b.mul(B::r(min), B::i(-1));
                   int zero_sub = b.sub(B::i(0), B::r(min));
                   b.ret(B::r(bitmask(
                       b, {b.cmpeq(B::r(add), B::r(min)),
                           b.cmpeq(B::r(sub), B::r(max)),
                           b.cmpeq(B::r(mul), B::i(-2)),
                           b.cmpeq(B::r(neg), B::r(min)),
                           b.cmpeq(B::r(zero_sub), B::r(min))})));
                   b.end_function();
                 }),
      "exit 31");
  // Callees defined after their callers, directly, indirectly and as a
  // mutually recursive pair: is_even(6) calls is_odd(5), ..., is_even(0).
  cases.emplace_back(
      build_spec("calls_to_later_functions",
                 [](ir::IRBuilder& b) {
                   b.begin_function("main", 0);
                   int seven = b.call("seven");
                   int even = b.call("is_even", {B::i(6)});
                   int odd = b.call("is_odd", {B::i(6)});
                   int f = b.mov(B::f("seven"));
                   int again = b.callind(B::r(f), {});
                   int sum = b.add(B::r(seven), B::r(again));
                   b.ret(B::r(b.add(B::r(sum), B::r(bitmask(
                       b, {b.cmpeq(B::r(even), B::i(1)),
                           b.cmpeq(B::r(odd), B::i(0))})))));
                   b.end_function();
                   b.begin_function("is_even", 1);
                   b.condbr(B::r(b.param(0)), "recurse", "base");
                   b.at("recurse");
                   b.ret(B::r(b.call(
                       "is_odd", {B::r(b.sub(B::r(b.param(0)), B::i(1)))})));
                   b.at("base");
                   b.ret(B::i(1));
                   b.end_function();
                   b.begin_function("is_odd", 1);
                   b.condbr(B::r(b.param(0)), "recurse", "base");
                   b.at("recurse");
                   b.ret(B::r(b.call(
                       "is_even", {B::r(b.sub(B::r(b.param(0)), B::i(1)))})));
                   b.at("base");
                   b.ret(B::i(0));
                   b.end_function();
                   b.begin_function("seven", 0);
                   b.ret(B::i(7));
                   b.end_function();
                 }),
      "exit 17");

  const RunSetup plain{"plain", false, std::nullopt};
  for (const auto& [spec, want] : cases) {
    SCOPED_TRACE(spec.name);
    EXPECT_EQ(first_line(observe<Reference>(spec, plain)), want);
    expect_same_runs(spec);
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

/// build_counted_loop's module run by two processes, one with CAP_SETUID
/// permitted (its epoch changes inside the loop) and one without.
scenarios::Scenario counted_loop_world() {
  scenarios::Scenario s;
  ir::IRBuilder b(s.modules.emplace_back("counted_loop"));
  build_counted_loop(b);
  s.procs.push_back(
      {0,
       s.kernel.spawn("a", caps::Credentials::of_user(1000, 1000),
                      {caps::Capability::Setuid}),
       {}});
  s.procs.push_back(
      {0, s.kernel.spawn("b", caps::Credentials::of_user(1001, 1001), {}),
       {}});
  return s;
}

TEST(StretchEdgeDiff, SchedulerCutsInsideTheLoop) {
  // The first turn executes entry's mov and br, head's cmplt and condbr,
  // then body's 10 ops: quanta 1-14 cut it at every one of them (4 on the
  // condbr, 14 on the br, 5-13 mid-body), and later turns land elsewhere.
  for (std::uint64_t quantum = 1; quantum <= 15; ++quantum) {
    SCOPED_TRACE(quantum);
    const std::string want =
        observe_world<Reference>(&counted_loop_world, quantum);
    EXPECT_EQ(observe_world<Decoded>(&counted_loop_world, quantum), want);
  }
}

}  // namespace
}  // namespace pa::vm
