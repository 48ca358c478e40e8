#include "rosa/query.h"

#include "os/access.h"
#include "support/str.h"

namespace pa::rosa {
namespace {

// Every shipped builder inspects fdsets, sockets, or running flags — never
// a uid or gid — so all are identity-invariant, unlocking symmetry
// reduction (rosa/canon.h) for the queries they describe.
constexpr GoalInfo kIdentityInvariant{/*identity_invariant=*/true};

}  // namespace

Goal goal_file_in_rdfset(int proc, int file) {
  return Goal(
             [proc, file](const State& st) {
               const ProcObj* p = st.find_proc(proc);
               return p && p->rdfset.contains(file);
             },
             str::cat("rdfset:", proc, ":", file))
      .with_info(kIdentityInvariant);
}

Goal goal_file_in_wrfset(int proc, int file) {
  return Goal(
             [proc, file](const State& st) {
               const ProcObj* p = st.find_proc(proc);
               return p && p->wrfset.contains(file);
             },
             str::cat("wrfset:", proc, ":", file))
      .with_info(kIdentityInvariant);
}

Goal goal_privileged_port_bound(int proc) {
  return Goal(
             [proc](const State& st) {
               for (const SockObj& s : st.socks)
                 if (s.owner_proc == proc && s.port != -1 &&
                     s.port <= os::kPrivilegedPortMax)
                   return true;
               return false;
             },
             str::cat("privport:", proc))
      .with_info(kIdentityInvariant);
}

Goal goal_proc_terminated(int victim) {
  return Goal(
             [victim](const State& st) {
               const ProcObj* p = st.find_proc(victim);
               return p && !p->running;
             },
             str::cat("terminated:", victim))
      .with_info(kIdentityInvariant);
}

namespace {

/// Composite key, or "" (uncacheable) when either operand is unkeyed.
std::string compose_key(std::string_view op, const Goal& a, const Goal& b) {
  if (a.cache_key().empty() || b.cache_key().empty()) return {};
  return str::cat(op, "(", a.cache_key(), ",", b.cache_key(), ")");
}

/// Composite annotations: invariance needs both operands invariant.
GoalInfo compose_info(const Goal& a, const Goal& b) {
  return GoalInfo{a.info().identity_invariant && b.info().identity_invariant};
}

}  // namespace

Goal goal_and(Goal a, Goal b) {
  std::string key = compose_key("and", a, b);
  GoalInfo info = compose_info(a, b);
  return Goal(
             [a = std::move(a), b = std::move(b)](const State& st) {
               return a(st) && b(st);
             },
             std::move(key))
      .with_info(std::move(info));
}

Goal goal_or(Goal a, Goal b) {
  std::string key = compose_key("or", a, b);
  GoalInfo info = compose_info(a, b);
  return Goal(
             [a = std::move(a), b = std::move(b)](const State& st) {
               return a(st) || b(st);
             },
             std::move(key))
      .with_info(std::move(info));
}

}  // namespace pa::rosa
