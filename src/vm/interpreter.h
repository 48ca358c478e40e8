// PrivIR interpreter: executes a module's code as one SimOS process,
// dispatching Syscall instructions to the kernel and priv_* instructions to
// the process's privilege state. ChronoPriv observes execution through the
// Tracer interface.
#pragma once

#include <cstdint>
#include <string>
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
  struct Frame {
    const ir::Function* fn;
    std::size_t index = 0;  // fn's position in module_->functions()
    int block = 0;
    std::size_t ip = 0;
    std::vector<ir::RtValue> regs;
    int dest_in_caller = ir::kNoReg;
  };

  ir::RtValue eval(const Frame& frame, const ir::Operand& op) const;
  /// eval() followed by ir::rt_as_int(), without building the RtValue.
  std::int64_t eval_int(const Frame& frame, const ir::Operand& op) const;
  void push_frame(const std::string& fname, std::vector<ir::RtValue> args,
                  int dest_in_caller);
  /// Executes a straight-line instruction; leaves frame.ip to the caller.
  void compute(Frame& frame, const ir::Instruction& inst);
  /// Executes any instruction, advancing frame.ip or transferring control.
  void execute(Frame& frame, const ir::Instruction& inst);
  void deliver_pending_signal();

  os::Kernel* kernel_;
  const ir::Module* module_;
  os::Pid pid_;
  os::Process* proc_;
  Tracer* tracer_ = nullptr;
  RunLimits limits_;

  // Decoded module, parallel to module_->functions(): each function's frame
  // size, and for each (block, ip) the length of the straight-line run that
  // starts there.
  std::vector<int> frame_size_;
  std::vector<std::vector<std::vector<std::uint32_t>>> run_len_;

  std::vector<Frame> stack_;
  std::uint64_t executed_ = 0;
  bool exited_ = false;
  long exit_code_ = 0;
};

}  // namespace pa::vm
