// Goal-predicate builders: the "compromised system state" patterns of the
// paper's queries, expressed as reusable predicates on ROSA states.
//
// Every builder returns a keyed, declared Goal: the predicate the search
// evaluates, a stable cache identity (Goal::cache_key) the verdict cache
// (rosa/cache.h) fingerprints, and the syscalls that can make it true
// (Goal::enabling), which the search's per-layer goal probe applies. The
// key encodes the builder and its arguments, so equal keys mean equal
// predicates and equal declarations by construction. The declarations are
// exact for the rules in rosa/rules.cpp, and tests/rosa_goal_probe_test.cpp
// checks that no other syscall makes a false goal true.
#pragma once

#include "rosa/search.h"

namespace pa::rosa {

/// Process `proc` holds `file` open for reading (Fig. 4's pattern, and the
/// read-/dev/mem attack goal). Cache key: "rdfset:<proc>:<file>". Enabled
/// by {Open}: only open inserts into rdfset (creat opens nothing).
Goal goal_file_in_rdfset(int proc, int file);

/// Process `proc` holds `file` open for writing. Key: "wrfset:<proc>:<file>".
/// Enabled by {Open}, as for rdfset.
Goal goal_file_in_wrfset(int proc, int file);

/// Some socket owned by `proc` is bound to a privileged port (< 1024).
/// Cache key: "privport:<proc>". Enabled by {Bind}: only bind sets a port
/// (sockets start unbound, and connect changes nothing).
Goal goal_privileged_port_bound(int proc);

/// Process `victim` has been terminated. Cache key: "terminated:<victim>".
/// Enabled by {Kill}: only kill stops a process.
Goal goal_proc_terminated(int victim);

/// Conjunction / disjunction combinators for composite goals. The composite
/// is keyed (cacheable) only when both operands are, and declares the union
/// of their enabling sets only when both declare one.
Goal goal_and(Goal a, Goal b);
Goal goal_or(Goal a, Goal b);

}  // namespace pa::rosa
