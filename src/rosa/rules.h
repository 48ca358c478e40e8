// ROSA transition rules: the syscall semantics, written against the SAME
// access-decision library (os/access.h) the SimOS kernel uses.
//
// A rule application takes a state and one not-yet-consumed message,
// instantiates any wildcard arguments from the state's object/user/group
// pools, and — if the modelled syscall would succeed — yields the successor
// state. Failing calls yield no transition (an attacker gains nothing from
// issuing a call that returns EPERM).
#pragma once

#include <string>
#include <vector>

#include "rosa/checker.h"
#include "rosa/message.h"
#include "rosa/state.h"

namespace pa::rosa {

/// A fully instantiated syscall (no wildcards left) — the machine-readable
/// form of one witness step. tests/witness_replay_test.cpp re-executes these
/// against the SimOS kernel to validate that ROSA's rules and the kernel
/// agree on entire traces, not just single calls.
struct Action {
  Sys sys = Sys::Open;
  int proc = 0;
  std::vector<int> args;
  caps::CapSet privs;

  std::string to_string() const;
  /// Append to_string()'s text to `out`.
  void append_to(std::string& out) const;
};

struct Transition {
  State next;          // successor (message bit already cleared by caller)
  Action action;       // concrete instantiated syscall (witness step)
};

/// How strong the modelled attacker is (§X's future-work direction: attacks
/// weakened by deployed defenses).
enum class AttackerModel {
  /// The paper's default (§III): code-reuse attacks may issue the program's
  /// syscalls in any order and corrupt any argument (wildcards range over
  /// the object/user/group pools).
  Full,
  /// A control-flow-integrity-protected program: syscalls can only occur in
  /// program order (the attacker may skip calls but never reorder them).
  /// Arguments are still corruptible (non-control-data attacks).
  CfiOrdered,
  /// A data-flow-protected program: the attacker cannot corrupt syscall
  /// arguments — wildcard arguments are unusable, only the concrete values
  /// the program passes can occur. Ordering is still attacker-chosen.
  FixedArgs,
};

std::string_view attacker_model_name(AttackerModel m);

/// All successful applications of `msg` to `state`. Does not touch
/// `msgs_remaining`; the search layer owns message consumption.
/// Under FixedArgs, wildcard arguments yield no instantiations. Access
/// decisions are delegated to `checker` (Linux DAC + capabilities by
/// default; src/privmodels/ has Solaris and Capsicum checkers).
std::vector<Transition> apply_message(
    const State& state, const Message& msg,
    AttackerModel model = AttackerModel::Full,
    const AccessChecker& checker = linux_checker());

/// As above, but filling a caller-owned vector (cleared first) so the
/// search hot loop can reuse one scratch buffer's capacity across every
/// (state, message) pair instead of allocating per call.
void apply_message(const State& state, const Message& msg, AttackerModel model,
                   const AccessChecker& checker, std::vector<Transition>& out);

/// Ports tried when a Bind message's port argument is a wildcard.
const std::vector<int>& wildcard_port_pool();

}  // namespace pa::rosa
