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
// resolves by comparing its id with the function count. Execution proceeds
// in stretches: the straight-line runs of one frame joined by br/condbr,
// executed in one loop. A stretch is charged in full to executed() and
// reported to the tracer once, but only its effectful ops are dispatched:
// nops are counted, never executed (DESIGN.md decision 16). When a branch
// closes a cycle inside a stretch and the cycle is affine, the largest exact
// number of its iterations is applied in one step (decision 18).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"
#include "os/kernel.h"

namespace pa::vm {

/// A stretch of execution in one frame of `fn`: `n` instructions from
/// instruction `ip` of block `block` to instruction `last_ip` of block
/// `last_block`, the straight-line runs joined by the br/condbr it took.
/// `entered` lists the blocks those branches entered, each once, in
/// first-entry order; the stretch executed every block in it from ip 0. It
/// views the interpreter's own list, valid only during the on_run call.
/// `block` and `last_block` are -1 when the caller has no program point
/// (the on_instruction helper).
struct Stretch {
  const ir::Function* fn = nullptr;
  int block = -1;
  std::size_t ip = 0;
  std::uint64_t n = 0;
  int last_block = -1;
  std::size_t last_ip = 0;
  std::span<const int> entered;
};

/// Execution observer. on_run fires once per stretch, after its straight-line
/// ops and branches and BEFORE its last instruction's effects. A stretch never
/// spans a change of privilege state, credentials, pending signals or frame:
/// it ends at the first syscall, priv_*, call, callind, ret, exit or
/// unreachable, and neither a straight-line op nor a branch changes any of
/// them. Every instruction in it is therefore attributed to the state the
/// hook sees. A stretch is also cut at the turn's quantum, the instruction
/// budget, a pending signal (to one instruction) and a branch to an invalid
/// or empty block; a fault inside it reports it before the exception leaves,
/// so executed() always equals what the tracer was told.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void on_run(const os::Process& p, const Stretch& s) = 0;
  /// One instruction at no particular program point.
  void on_instruction(const os::Process& p, const ir::Function& fn) {
    on_run(p, Stretch{&fn, -1, 0, 1, -1, 0, {}});
  }
};

struct RunLimits {
  std::uint64_t max_instructions = 2'000'000'000;
  /// Cooperative cancellation (non-owning; e.g. a daemon job's cancel flag).
  /// run() checks it between turns of 2^16 instructions and faults
  /// "cancelled" once it is up; the stretch loop itself never reads it.
  const std::atomic<bool>* cancel = nullptr;
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
  /// instruction budget exhausted, cancelled).
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
  /// The part of executed() that cycle summaries charged instead of
  /// stepping (DESIGN.md decision 18); tests read it to see where the rule
  /// fires and where it declines.
  std::uint64_t summarized_instructions() const { return summarized_; }

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
  /// block_begin[b + 1]), and its stamp is stamps_[first_stamp + b].
  struct Code {
    const ir::Function* fn = nullptr;
    int frame_size = 0;
    std::uint32_t first_stamp = 0;
    std::vector<std::uint32_t> block_begin;
  };
  struct Frame {
    std::size_t fn = 0;  // index into funcs_, the module's function order
    int block = 0;
    std::size_t ip = 0;
    std::size_t base = 0;  // the frame's registers start at regs_[base]
    int dest_in_caller = ir::kNoReg;
  };
  /// A cycle walk's view of a value: register `base`'s value at the start
  /// of the iteration plus `off`, or the constant `off` when base < 0.
  struct Lin {
    int base = -1;
    std::int64_t off = 0;
  };
  /// A comparison on a cycle's path, `lhs op rhs` (a condbr tests
  /// `cond != 0`): every summarized iteration must give it the same value.
  struct Guard {
    ir::Opcode op;
    Lin lhs;
    Lin rhs;
  };
  /// A frame register as the current walk sees it; an entry from an earlier
  /// walk stands for a register the walk has not touched.
  struct CycleReg {
    std::uint64_t walk = 0;
    Lin value;               // its value at the walk's current op
    std::int64_t step = 0;   // how far its iteration-start value moves
    bool written = false;
    bool input = false;      // read before the cycle writes it
  };
  /// Working storage of summarize_cycle, kept to reuse its allocations.
  struct CycleWalk {
    std::uint64_t id = 0;
    std::vector<CycleReg> regs;  // by frame register
    std::vector<int> written;    // in first-write order
    std::vector<Guard> guards;
    std::vector<Lin> sums;       // every add/sub result, range-checked
    std::vector<std::int64_t> finals;
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
  /// Executes the stretch that starts at the frame's position and may run
  /// `avail` instructions, all but its last op, and returns its report; the
  /// frame still points at the stretch's start. A fault inside the stretch
  /// charges and reports it before the exception leaves.
  Stretch run_stretch(const Frame& frame, const Code& code,
                      std::uint64_t avail);
  /// Called when a branch re-enters `head`, a block the stretch already
  /// entered, with `room` (> 0) instructions left in the stretch. Walks the
  /// cycle's next iteration from `head` and, if it is affine, applies the
  /// largest exact number of iterations to `regs` at once, leaving at least
  /// one instruction of `room` to step. Returns the instructions applied,
  /// 0 if none. A cycle of a shape the rule declines marks `head`, so the
  /// stretch does not walk it again.
  std::uint64_t summarize_cycle(const Code& code, int head, Value* regs,
                                std::uint64_t room);
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
  // One stamp per decoded block: the id of the last stretch that entered it
  // through a branch, so each stretch lists a block in entered_ once.
  std::vector<std::uint64_t> stamps_;
  std::uint64_t stretch_id_ = 0;
  std::vector<int> entered_;
  // Parallel to stamps_: the id of the last stretch in which a cycle walk
  // from the block was declined, so the stretch steps that cycle from then on.
  std::vector<std::uint64_t> declined_;
  CycleWalk walk_;
  std::uint64_t summarized_ = 0;

  std::vector<Frame> stack_;
  std::vector<Value> regs_;
  std::uint64_t executed_ = 0;
  bool exited_ = false;
  long exit_code_ = 0;
};

}  // namespace pa::vm
