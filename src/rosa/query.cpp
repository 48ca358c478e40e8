#include "rosa/query.h"

#include "os/access.h"
#include "support/str.h"

namespace pa::rosa {

Goal goal_file_in_rdfset(int proc, int file) {
  return Goal(
      [proc, file](const State& st) {
        const ProcObj* p = st.find_proc(proc);
        return p && p->rdfset.contains(file);
      },
      str::cat("rdfset:", proc, ":", file), sys_bit(Sys::Open),
      GoalFact{GoalFact::Kind::Rdfset, proc, file, nullptr});
}

Goal goal_file_in_wrfset(int proc, int file) {
  return Goal(
      [proc, file](const State& st) {
        const ProcObj* p = st.find_proc(proc);
        return p && p->wrfset.contains(file);
      },
      str::cat("wrfset:", proc, ":", file), sys_bit(Sys::Open),
      GoalFact{GoalFact::Kind::Wrfset, proc, file, nullptr});
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
      str::cat("privport:", proc), sys_bit(Sys::Bind),
      GoalFact{GoalFact::Kind::PrivPort, proc, 0, nullptr});
}

Goal goal_proc_terminated(int victim) {
  return Goal(
      [victim](const State& st) {
        const ProcObj* p = st.find_proc(victim);
        return p && !p->running;
      },
      str::cat("terminated:", victim), sys_bit(Sys::Kill),
      GoalFact{GoalFact::Kind::Terminated, victim, 0, nullptr});
}

namespace {

/// Composite key, or "" (uncacheable) when either operand is unkeyed.
std::string compose_key(std::string_view op, const Goal& a, const Goal& b) {
  if (a.cache_key().empty() || b.cache_key().empty()) return {};
  return str::cat(op, "(", a.cache_key(), ",", b.cache_key(), ")");
}

/// Composite enabling set: the union when both operands declare one (a
/// message outside both keeps both operands false, so it keeps their AND
/// and their OR false), else undeclared.
SysSet compose_enabling(const Goal& a, const Goal& b) {
  if (!a.enabling() || !b.enabling()) return 0;
  return a.enabling() | b.enabling();
}

/// Composite fact: `kind` over both operands' facts when both declare one,
/// else undeclared (never proved).
GoalFact compose_fact(GoalFact::Kind kind, const Goal& a, const Goal& b) {
  if (!a.fact().declared() || !b.fact().declared()) return {};
  return GoalFact{kind, 0, 0,
                  std::make_shared<const std::array<GoalFact, 2>>(
                      std::array<GoalFact, 2>{a.fact(), b.fact()})};
}

}  // namespace

Goal goal_and(Goal a, Goal b) {
  std::string key = compose_key("and", a, b);
  const SysSet enabling = compose_enabling(a, b);
  GoalFact fact = compose_fact(GoalFact::Kind::And, a, b);
  return Goal(
      [a = std::move(a), b = std::move(b)](const State& st) {
        return a(st) && b(st);
      },
      std::move(key), enabling, std::move(fact));
}

Goal goal_or(Goal a, Goal b) {
  std::string key = compose_key("or", a, b);
  const SysSet enabling = compose_enabling(a, b);
  GoalFact fact = compose_fact(GoalFact::Kind::Or, a, b);
  return Goal(
      [a = std::move(a), b = std::move(b)](const State& st) {
        return a(st) || b(st);
      },
      std::move(key), enabling, std::move(fact));
}

}  // namespace pa::rosa
