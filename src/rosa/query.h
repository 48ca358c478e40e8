// Goal-predicate builders: the "compromised system state" patterns of the
// paper's queries, expressed as reusable predicates on ROSA states.
//
// Every builder returns a keyed, declared Goal: the predicate the search
// evaluates, a stable cache identity (Goal::cache_key) the verdict cache
// (rosa/cache.h) fingerprints, the syscalls that can make it true
// (Goal::enabling), which the search's per-layer goal probe applies, and
// its abstract fact (Goal::fact), which the may-reach prover (rosa/prove.h)
// checks. The key encodes the builder and its arguments, so equal keys mean
// equal predicates and equal declarations by construction. The enabling
// declarations are exact for the rules in rosa/rules.cpp, and
// tests/rosa_goal_probe_test.cpp checks that no other syscall makes a false
// goal true; tests/rosa_prove_test.cpp checks that no proved goal is
// reachable.
#pragma once

#include "rosa/search.h"

namespace pa::rosa {

/// Process `proc` holds `file` open for reading (Fig. 4's pattern, and the
/// read-/dev/mem attack goal). Cache key: "rdfset:<proc>:<file>". Enabled
/// by {Open}: only open inserts into rdfset (creat opens nothing). Fact:
/// `proc` may hold `file` open for reading.
Goal goal_file_in_rdfset(int proc, int file);

/// Process `proc` holds `file` open for writing. Key: "wrfset:<proc>:<file>".
/// Enabled by {Open}, as for rdfset. Fact: may hold `file` open for writing.
Goal goal_file_in_wrfset(int proc, int file);

/// Some socket owned by `proc` is bound to a privileged port (< 1024).
/// Cache key: "privport:<proc>". Enabled by {Bind}: only bind sets a port
/// (sockets start unbound, and connect changes nothing). Fact: `proc` may
/// have bound a privileged port.
Goal goal_privileged_port_bound(int proc);

/// Process `victim` has been terminated. Cache key: "terminated:<victim>".
/// Enabled by {Kill}: only kill stops a process. Fact: `victim` may be dead.
Goal goal_proc_terminated(int victim);

/// Conjunction / disjunction combinators for composite goals. The composite
/// is keyed (cacheable) only when both operands are, and declares the union
/// of their enabling sets only when both declare one. goal_and's fact needs
/// both operands' facts and goal_or's either one; a composite with an
/// undeclared operand declares no fact.
Goal goal_and(Goal a, Goal b);
Goal goal_or(Goal a, Goal b);

}  // namespace pa::rosa
