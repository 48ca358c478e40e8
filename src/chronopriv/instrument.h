// The ChronoPriv "pass": prepares a module for measured execution and runs
// it under an EpochTracker.
//
// The paper's ChronoPriv is an LLVM pass that inserts per-basic-block
// counting code; in this reproduction the VM does the counting natively. It
// reports each stretch (the straight-line runs of one frame joined by the
// br/condbr it takes, ending at the next syscall, priv_* op, call, callind,
// ret, exit or unreachable) to the tracker once, with its length, and the
// tracker adds that length to the privilege state in force. Privilege state
// changes only at a stretch's last instruction, so this yields the paper's
// block-granular measurement without mutating the module.
// This file also exposes the static per-block counts (what the inserted
// counters would have added) so tests can cross-check dynamic totals.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chronopriv/report.h"
#include "ir/module.h"
#include "os/kernel.h"
#include "vm/interpreter.h"

namespace pa::chronopriv {

/// Static countable-instruction size of every block, keyed by
/// (function, block index). Mirrors what the instrumentation pass computes
/// when choosing counter increments; excludes `unreachable`.
std::map<std::pair<std::string, int>, int> static_block_counts(
    const ir::Module& module);

/// Execute `module` as process `pid` under an EpochTracker and produce the
/// dynamic report. `args` are the program's argv-style inputs; `limits`
/// bounds the run (instruction budget, cancel flag).
ChronoReport run_instrumented(os::Kernel& kernel, const ir::Module& module,
                              os::Pid pid,
                              std::vector<ir::RtValue> args = {},
                              const std::string& entry = "main",
                              long* exit_code = nullptr,
                              vm::RunLimits limits = {});

/// Variant driving a caller-supplied tracker, so the caller can configure
/// point capture or an epoch-change hook (filter enforcement) beforehand and
/// inspect epoch_points() afterwards.
ChronoReport run_instrumented_with(os::Kernel& kernel,
                                   const ir::Module& module, os::Pid pid,
                                   EpochTracker& tracker,
                                   std::vector<ir::RtValue> args = {},
                                   const std::string& entry = "main",
                                   long* exit_code = nullptr,
                                   vm::RunLimits limits = {});

}  // namespace pa::chronopriv
