#include "vm/scheduler.h"

#include "support/error.h"

namespace pa::vm {

Interpreter& Scheduler::add(const ir::Module& module, os::Pid pid,
                            const std::string& entry,
                            std::vector<ir::RtValue> args) {
  Task task;
  task.interp = std::make_unique<Interpreter>(*kernel_, module, pid);
  task.interp->start(entry, std::move(args));
  tasks_.push_back(std::move(task));
  return *tasks_.back().interp;
}

bool Scheduler::step_round(std::uint64_t quantum) {
  // A zero quantum executes nothing, so run_all would never return.
  if (quantum == 0) fail("scheduler quantum must be positive");
  bool any_alive = false;
  for (Task& task : tasks_) {
    // A finished program is finalized (zombie marking) by its next turn.
    task.interp->run_turn(quantum);
    any_alive |= !task.interp->finished();
  }
  return any_alive;
}

std::uint64_t Scheduler::run_all(std::uint64_t quantum) {
  while (step_round(quantum)) {
  }
  std::uint64_t total = 0;
  for (Task& task : tasks_) total += task.interp->executed();
  return total;
}

}  // namespace pa::vm
