// Round-robin multi-process execution: several interpreters sharing one
// SimOS kernel, interleaved at instruction granularity. This is what makes
// genuine privilege-separated designs runnable (a privileged monitor
// process next to an unprivileged worker) and lets tests exercise
// cross-process signalling for real.
#pragma once

#include <memory>
#include <vector>

#include "vm/interpreter.h"

namespace pa::vm {

class Scheduler {
 public:
  explicit Scheduler(os::Kernel& kernel) : kernel_(&kernel) {}

  /// Add a process: `pid` runs `entry` from `module` with `args`.
  /// The module reference must outlive the scheduler.
  Interpreter& add(const ir::Module& module, os::Pid pid,
                   const std::string& entry = "main",
                   std::vector<ir::RtValue> args = {});

  /// Run all processes round-robin (`quantum` instructions per turn) until
  /// every one has finished. Returns total instructions executed. Throws
  /// pa::Error on a zero quantum, which would never finish.
  std::uint64_t run_all(std::uint64_t quantum = 64);

  /// Step every live process by at most `quantum` instructions.
  /// Returns true while at least one process is still running. Throws
  /// pa::Error on a zero quantum.
  bool step_round(std::uint64_t quantum = 64);

  std::size_t process_count() const { return tasks_.size(); }
  Interpreter& interpreter(std::size_t i) { return *tasks_[i].interp; }
  long exit_code(std::size_t i) const { return tasks_[i].interp->exit_code(); }

 private:
  struct Task {
    std::unique_ptr<Interpreter> interp;
  };

  os::Kernel* kernel_;
  std::vector<Task> tasks_;
};

}  // namespace pa::vm
