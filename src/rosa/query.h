// Goal builders: the "compromised system state" patterns of the paper's
// queries, named. A goal is a (kind, proc, file) value (rosa::Goal); its
// predicate, cache key and enabling set are one switch on the kind each in
// rosa/query.cpp. The enabling sets are exact for the rules in
// rosa/rules.cpp: tests/rosa_goal_probe_test.cpp checks that no other
// syscall makes a false goal true, and tests/rosa_prove_test.cpp that no
// proved goal is reachable.
#pragma once

#include "rosa/search.h"

namespace pa::rosa {

/// Process `proc` holds `file` open for reading (Fig. 4's pattern, and the
/// read-/dev/mem attack goal). Cache key: "rdfset:<proc>:<file>". Enabled
/// by {Open}: only open inserts into rdfset (creat opens nothing).
inline Goal goal_file_in_rdfset(int proc, int file) {
  return {Goal::Kind::Rdfset, proc, file};
}

/// Process `proc` holds `file` open for writing. Key: "wrfset:<proc>:<file>".
/// Enabled by {Open}, as for rdfset.
inline Goal goal_file_in_wrfset(int proc, int file) {
  return {Goal::Kind::Wrfset, proc, file};
}

/// Some socket owned by `proc` is bound to a privileged port (< 1024).
/// Cache key: "privport:<proc>". Enabled by {Bind}: only bind sets a port
/// (sockets start unbound, and connect changes nothing).
inline Goal goal_privileged_port_bound(int proc) {
  return {Goal::Kind::PrivPort, proc, 0};
}

/// Process `victim` has been terminated. Cache key: "terminated:<victim>".
/// Enabled by {Kill}: only kill stops a process.
inline Goal goal_proc_terminated(int victim) {
  return {Goal::Kind::Terminated, victim, 0};
}

}  // namespace pa::rosa
