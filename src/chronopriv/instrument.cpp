#include "chronopriv/instrument.h"

#include "ir/verifier.h"
#include "vm/interpreter.h"

namespace pa::chronopriv {

std::map<std::pair<std::string, int>, int> static_block_counts(
    const ir::Module& module) {
  std::map<std::pair<std::string, int>, int> counts;
  for (const ir::Function& f : module.functions())
    for (std::size_t b = 0; b < f.blocks().size(); ++b)
      counts[{f.name(), static_cast<int>(b)}] =
          f.blocks()[b].countable_instructions();
  return counts;
}

ChronoReport run_instrumented(os::Kernel& kernel, const ir::Module& module,
                              os::Pid pid, std::vector<ir::RtValue> args,
                              const std::string& entry, long* exit_code,
                              vm::RunLimits limits) {
  EpochTracker tracker;
  return run_instrumented_with(kernel, module, pid, tracker, std::move(args),
                               entry, exit_code, limits);
}

ChronoReport run_instrumented_with(os::Kernel& kernel,
                                   const ir::Module& module, os::Pid pid,
                                   EpochTracker& tracker,
                                   std::vector<ir::RtValue> args,
                                   const std::string& entry, long* exit_code,
                                   vm::RunLimits limits) {
  ir::verify_or_throw(module);
  vm::Interpreter interp(kernel, module, pid);
  interp.set_tracer(&tracker);
  interp.set_limits(limits);
  long rc = interp.run(entry, std::move(args));
  if (exit_code) *exit_code = rc;
  return make_report(module.name(), tracker);
}

}  // namespace pa::chronopriv
