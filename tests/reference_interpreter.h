// The per-instruction PrivIR interpreter and round-robin scheduler that
// vm::Interpreter and vm::Scheduler replaced, kept as the reference for
// tests/vm_run_diff_test.cpp. It executes one instruction per step and
// reports each one to the tracer as a run of length 1, with the pending
// signal check, the budget check and the process lookups after every
// instruction, exactly as the library did before it batched runs.
// Only tests link it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "os/kernel.h"
#include "vm/interpreter.h"

namespace pa::vm::reference {

class Interpreter {
 public:
  Interpreter(os::Kernel& kernel, const ir::Module& module, os::Pid pid);

  void set_tracer(Tracer* t) { tracer_ = t; }
  void set_limits(RunLimits limits) { limits_ = limits; }

  long run(const std::string& entry = "main",
           std::vector<ir::RtValue> args = {});

  void start(const std::string& entry = "main",
             std::vector<ir::RtValue> args = {});
  /// Execute one instruction. Returns false once the program has finished;
  /// the process is marked zombie at that point.
  bool step();
  bool finished() const;
  long exit_code() const { return exit_code_; }

  std::uint64_t executed() const { return executed_; }

 private:
  struct Frame {
    const ir::Function* fn;
    int block = 0;
    std::size_t ip = 0;
    std::vector<ir::RtValue> regs;
    int dest_in_caller = ir::kNoReg;
  };

  ir::RtValue eval(const Frame& frame, const ir::Operand& op) const;
  void push_frame(const std::string& fname, std::vector<ir::RtValue> args,
                  int dest_in_caller);
  void deliver_pending_signal();

  os::Kernel* kernel_;
  const ir::Module* module_;
  os::Pid pid_;
  Tracer* tracer_ = nullptr;
  RunLimits limits_;

  std::vector<Frame> stack_;
  std::uint64_t executed_ = 0;
  bool exited_ = false;
  long exit_code_ = 0;
};

/// Round-robin over reference interpreters: `quantum` single steps per
/// turn. Same interface as vm::Scheduler.
class Scheduler {
 public:
  explicit Scheduler(os::Kernel& kernel) : kernel_(&kernel) {}

  Interpreter& add(const ir::Module& module, os::Pid pid,
                   const std::string& entry = "main",
                   std::vector<ir::RtValue> args = {});
  std::uint64_t run_all(std::uint64_t quantum = 64);
  bool step_round(std::uint64_t quantum = 64);

  std::size_t process_count() const { return tasks_.size(); }
  Interpreter& interpreter(std::size_t i) { return *tasks_[i]; }
  long exit_code(std::size_t i) const { return tasks_[i]->exit_code(); }

 private:
  os::Kernel* kernel_;
  std::vector<std::unique_ptr<Interpreter>> tasks_;
};

}  // namespace pa::vm::reference
