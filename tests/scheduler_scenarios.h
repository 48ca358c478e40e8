// The multi-process worlds of scheduler_test: each builder returns a fresh
// kernel with its processes spawned and the module each one runs.
// vm_run_diff_test replays the same worlds on vm::Scheduler and on the
// reference scheduler (tests/reference_interpreter.h).
#pragma once

#include <cstddef>
#include <vector>

#include "ir/builder.h"
#include "os/kernel.h"

namespace pa::vm::scenarios {

struct Proc {
  std::size_t module;  // index into Scenario::modules
  os::Pid pid;
  std::vector<ir::RtValue> args;
};

/// A scheduler keeps references to the modules, so a Scenario must stay in
/// place once add_to() has run.
struct Scenario {
  os::Kernel kernel;
  std::vector<ir::Module> modules;
  std::vector<Proc> procs;

  os::Pid pid(std::size_t i) const { return procs[i].pid; }

  /// Add every process, in order, to a vm::Scheduler or its reference.
  template <typename Sched>
  void add_to(Sched& sched) const {
    for (const Proc& p : procs)
      sched.add(modules[p.module], p.pid, "main", p.args);
  }
};

using ir::IRBuilder;
using B = IRBuilder;

/// One module run twice: main(x) executes 50 nops and returns x (7 and 8).
inline Scenario two_processes() {
  Scenario s;
  IRBuilder b(s.modules.emplace_back("t"));
  b.begin_function("main", 1);
  b.nop(50);
  b.ret(B::r(0));
  b.end_function();
  s.procs.push_back(
      {0, s.kernel.spawn("a", caps::Credentials::of_user(1000, 1000), {}),
       {std::int64_t{7}}});
  s.procs.push_back(
      {0, s.kernel.spawn("b", caps::Credentials::of_user(1001, 1001), {}),
       {std::int64_t{8}}});
  return s;
}

/// Process A registers a SIGTERM handler (which exits 99) and spins;
/// process B runs 40 nops, then sends A SIGTERM and returns 0.
inline Scenario cross_process_signal() {
  Scenario s;
  const os::Pid a =
      s.kernel.spawn("A", caps::Credentials::of_user(1000, 1000), {});
  const os::Pid pb =
      s.kernel.spawn("B", caps::Credentials::of_user(1000, 1000), {});
  {
    IRBuilder b(s.modules.emplace_back("a"));
    b.begin_function("on_term", 1);
    b.exit(B::i(99));
    b.end_function();
    b.begin_function("main", 0);
    b.syscall("signal", {B::i(os::kSigTerm), B::f("on_term")});
    b.br("loop");
    b.at("loop");
    b.nop(3);
    b.br("loop");  // spins until signalled
    b.end_function();
  }
  {
    IRBuilder b(s.modules.emplace_back("b"));
    b.begin_function("main", 0);
    b.nop(40);  // let A get going
    b.syscall("kill", {B::i(a), B::i(os::kSigTerm)});
    b.ret(B::i(0));
    b.end_function();
  }
  s.procs.push_back({0, a, {}});
  s.procs.push_back({1, pb, {}});
  return s;
}

/// A victim spins forever; a killer holding CAP_KILL sends it SIGKILL.
inline Scenario sigkill_victim() {
  Scenario s;
  const os::Pid pv =
      s.kernel.spawn("v", caps::Credentials::of_user(109, 109), {});
  const os::Pid pk = s.kernel.spawn(
      "k", caps::Credentials::of_user(1000, 1000), {caps::Capability::Kill});
  {
    IRBuilder b(s.modules.emplace_back("v"));
    b.begin_function("main", 0);
    b.br("loop");
    b.at("loop");
    b.nop(2);
    b.br("loop");
    b.end_function();
  }
  {
    IRBuilder b(s.modules.emplace_back("k"));
    b.begin_function("main", 0);
    b.priv_raise({caps::Capability::Kill});
    b.syscall("kill", {B::i(pv), B::i(os::kSigKill)});
    b.priv_lower({caps::Capability::Kill});
    b.ret(B::i(0));
    b.end_function();
  }
  s.procs.push_back({0, pv, {}});
  s.procs.push_back({1, pk, {}});
  return s;
}

/// Privilege separation: a monitor keeps CAP_NET_BIND_SERVICE to bind port
/// 22; the worker, with an EMPTY permitted set, runs 400 nops of request
/// handling.
inline Scenario privsep_pair() {
  Scenario s;
  {
    IRBuilder b(s.modules.emplace_back("monitor"));
    b.begin_function("main", 0);
    int sock = b.syscall("socket", {B::i(0)});
    b.priv_raise({caps::Capability::NetBindService});
    b.syscall("bind", {B::r(sock), B::i(22)});
    b.priv_lower({caps::Capability::NetBindService});
    b.nop(10);
    b.exit(B::i(0));
    b.end_function();
  }
  {
    IRBuilder b(s.modules.emplace_back("worker"));
    b.begin_function("main", 0);
    b.nop(400);  // request handling
    b.exit(B::i(0));
    b.end_function();
  }
  s.procs.push_back(
      {0,
       s.kernel.spawn("monitor", caps::Credentials::of_user(1000, 1000),
                      {caps::Capability::NetBindService}),
       {}});
  s.procs.push_back(
      {1, s.kernel.spawn("worker", caps::Credentials::of_user(1000, 1000), {}),
       {}});
  return s;
}

/// One process: 5 nops and a ret, 6 instructions.
inline Scenario short_program() {
  Scenario s;
  IRBuilder b(s.modules.emplace_back("t"));
  b.begin_function("main", 0);
  b.nop(5);
  b.ret(B::i(0));
  b.end_function();
  s.procs.push_back(
      {0, s.kernel.spawn("p", caps::Credentials::of_user(1000, 1000), {}), {}});
  return s;
}

/// One process with CAP_SETUID whose 12-instruction straight-line block
/// drops it halfway: 5 nops, priv_remove, 5 nops, ret. A quantum that ends
/// mid-block must split the run exactly where per-instruction stepping
/// would.
inline Scenario mid_block_epoch() {
  Scenario s;
  IRBuilder b(s.modules.emplace_back("t"));
  b.begin_function("main", 0);
  b.nop(5);
  b.priv_remove({caps::Capability::Setuid});
  b.nop(5);
  b.ret(B::i(0));
  b.end_function();
  s.procs.push_back({0,
                     s.kernel.spawn("p", caps::Credentials::of_user(1000, 1000),
                                    {caps::Capability::Setuid}),
                     {}});
  return s;
}

/// The victim registers a SIGTERM handler (which exits 99), then spins in a
/// 64-nop block; the killer's first instruction sends it SIGTERM. The
/// victim's next turn must execute exactly one loop instruction before the
/// handler runs.
inline Scenario signal_mid_block() {
  Scenario s;
  const os::Pid victim =
      s.kernel.spawn("victim", caps::Credentials::of_user(1000, 1000), {});
  const os::Pid killer =
      s.kernel.spawn("killer", caps::Credentials::of_user(1000, 1000), {});
  {
    IRBuilder b(s.modules.emplace_back("victim"));
    b.begin_function("on_term", 1);
    b.exit(B::i(99));
    b.end_function();
    b.begin_function("main", 0);
    b.syscall("signal", {B::i(os::kSigTerm), B::f("on_term")});
    b.br("loop");
    b.at("loop");
    b.nop(64);
    b.br("loop");
    b.end_function();
  }
  {
    IRBuilder b(s.modules.emplace_back("killer"));
    b.begin_function("main", 0);
    b.syscall("kill", {B::i(victim), B::i(os::kSigTerm)});
    b.ret(B::i(0));
    b.end_function();
  }
  s.procs.push_back({0, victim, {}});
  s.procs.push_back({1, killer, {}});
  return s;
}

}  // namespace pa::vm::scenarios
