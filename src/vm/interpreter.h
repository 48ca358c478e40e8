// PrivIR interpreter: executes a module's code as one SimOS process,
// dispatching Syscall instructions to the kernel and priv_* instructions to
// the process's privilege state. ChronoPriv observes execution through the
// Tracer interface.
//
// The constructor decodes the module into typed ops: each operand is a
// register index or a constant, and a direct call carries its callee's name
// as an id. Registers hold a tagged int64; a string or function name is an
// id into the interpreter's own intern table, so equal contents mean equal
// ids. Function names are interned first, so function i is id i and a call
// resolves by comparing its id with the function count. A straight-line run
// is charged in full to executed() and the tracer, but only its effectful
// ops are dispatched: nops are counted, never executed (DESIGN.md decision
// 16).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"
#include "os/kernel.h"

namespace pa::vm {

/// Execution observer. on_run fires once per straight-line run of `n`
/// instructions starting at instruction `ip` of block `block` of `fn`, BEFORE
/// the run's effects. A run never spans a change of privilege state,
/// credentials or function (it ends at the first syscall, priv_*, call,
/// callind or terminator), so every instruction in it is attributed to the
/// state in force when it starts. `block` is -1 when the caller has no
/// program point (the on_instruction helper).
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void on_run(const os::Process& p, const ir::Function& fn, int block,
                      std::size_t ip, std::uint64_t n) = 0;
  /// One instruction at no particular program point.
  void on_instruction(const os::Process& p, const ir::Function& fn) {
    on_run(p, fn, /*block=*/-1, /*ip=*/0, 1);
  }
};

struct RunLimits {
  std::uint64_t max_instructions = 2'000'000'000;
};

class Interpreter {
 public:
  /// Decodes `module` for execution as process `pid`, which must exist in
  /// `kernel`. Neither the module nor the kernel may be destroyed, and the
  /// module may not change, while the interpreter exists.
  Interpreter(os::Kernel& kernel, const ir::Module& module, os::Pid pid);

  void set_tracer(Tracer* t) { tracer_ = t; }
  void set_limits(RunLimits limits) { limits_ = limits; }

  /// Run `entry` with integer/string arguments; returns the program's exit
  /// code (the value of Exit, or the entry function's return value).
  /// Throws pa::Error on runtime faults (bad IR, executed unreachable,
  /// instruction budget exhausted).
  long run(const std::string& entry = "main",
           std::vector<ir::RtValue> args = {});

  // -- Turn API (used by vm::Scheduler for multi-process runs) --------------
  /// Prepare to execute `entry`; the program runs via run_turn().
  void start(const std::string& entry = "main",
             std::vector<ir::RtValue> args = {});
  /// Execute at most `quantum` instructions. Returns false once the program
  /// has finished (returned from the entry frame, executed exit, or been
  /// killed); the process is marked zombie at that point.
  bool run_turn(std::uint64_t quantum);
  bool finished() const;
  long exit_code() const { return exit_code_; }

  std::uint64_t executed() const { return executed_; }

 private:
  /// A register value: an int, or the intern id of a string or function
  /// name. Values are equal when kind and value are.
  enum class Kind : std::uint8_t { Int, Str, Func };
  struct Value {
    std::int64_t v = 0;
    Kind kind = Kind::Int;
    bool operator==(const Value&) const = default;
  };
  /// A decoded operand: register `reg`, or `constant` when reg < 0.
  struct Arg {
    int reg = -1;
    Value constant;
  };
  /// A decoded instruction, at (block, ip) of its function's code.
  struct Op {
    ir::Opcode opcode = ir::Opcode::Nop;
    int dest = ir::kNoReg;
    std::uint32_t first_arg = 0;  // operands are args_[first_arg, +num_args)
    std::uint32_t num_args = 0;
    int targets[2] = {-1, -1};    // br / condbr block indices
    std::int64_t callee = 0;      // call: the callee name's intern id
    std::uint32_t run_len = 1;    // the straight-line run that starts here
    std::uint32_t next_effect = 0;  // ip of the first non-nop at or after it
    const ir::Instruction* inst = nullptr;  // syscall name, caps, fault texts
  };
  /// A decoded function: block b's ops are code_[block_begin[b],
  /// block_begin[b + 1]).
  struct Code {
    const ir::Function* fn = nullptr;
    int frame_size = 0;
    std::vector<std::uint32_t> block_begin;
  };
  struct Frame {
    std::size_t fn = 0;  // index into funcs_, the module's function order
    int block = 0;
    std::size_t ip = 0;
    std::size_t base = 0;  // the frame's registers start at regs_[base]
    int dest_in_caller = ir::kNoReg;
  };

  static const Value& load(const Value* regs, const Arg& arg);
  static std::int64_t as_int(const Value& v);
  std::int64_t intern(std::string_view name);
  Arg decode(const ir::Operand& op);
  Value from_rt(const ir::RtValue& v);
  ir::RtValue to_rt(const Value& v) const;
  /// Pushes a frame for the function whose name has intern id `callee`
  /// (faulting "no function @name" if there is none); the caller then fills
  /// its first `nargs` registers. Returns its registers, valid until the
  /// next push.
  Value* push_frame(std::int64_t callee, std::size_t nargs,
                    int dest_in_caller);
  /// Executes a straight-line op; leaves the ip to the caller.
  void compute(Value* regs, const Op& op) const;
  /// Executes any op, advancing frame.ip or transferring control.
  void execute(Frame& frame, const Op& op);
  /// Takes the first pending signal (one must be pending) and pushes its
  /// handler's frame, if the process registered one.
  void deliver_pending_signal();

  os::Kernel* kernel_;
  os::Pid pid_;
  os::Process* proc_;
  Tracer* tracer_ = nullptr;
  RunLimits limits_;

  // The decoded module. funcs_ parallels the module's functions(), whose
  // names are interned first, so function i's name has id i.
  std::vector<Code> funcs_;
  std::vector<Op> code_;
  std::vector<Arg> args_;
  std::vector<std::string> names_;  // intern id -> contents
  std::map<std::string, std::int64_t, std::less<>> ids_;

  std::vector<Frame> stack_;
  std::vector<Value> regs_;
  std::uint64_t executed_ = 0;
  bool exited_ = false;
  long exit_code_ = 0;
};

}  // namespace pa::vm
