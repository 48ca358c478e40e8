// PrivIR instructions. A basic block is a run of non-terminator instructions
// followed by exactly one terminator (br / condbr / ret / exit / unreachable).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/value.h"

namespace pa::ir {

enum class Opcode {
  // Data movement / arithmetic / comparison.
  Mov, Add, Sub, Mul, Div,
  CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
  And, Or, Not,
  // Control flow (terminators except Call).
  Br, CondBr, Ret, Exit, Unreachable,
  // Calls: Call has a symbolic callee; CallInd takes the callee from a
  // register holding a FuncRef (targets over-approximated by the call graph).
  Call, CallInd,
  // Take a function's address (marks it address-taken for the call graph).
  FuncAddr,
  // OS interaction: name identifies a SimOS syscall.
  Syscall,
  // libpriv wrappers; the operand is a capability-set immediate.
  PrivRaise, PrivLower, PrivRemove,
  Nop,
};

std::string_view opcode_name(Opcode op);
std::optional<Opcode> parse_opcode(std::string_view s);
bool is_terminator(Opcode op);

/// `a op b` on PrivIR integers, or why it faults at runtime.
struct IntResult {
  std::int64_t value = 0;
  const char* fault = nullptr;  // null unless the operation faults
};

/// PrivIR integer semantics, for the binary operators on ints (arithmetic,
/// comparisons, and/or): int64 two's complement. add, sub and mul wrap; div
/// truncates toward zero and faults on a zero divisor ("division by zero")
/// and on INT64_MIN / -1 ("division overflow"). The VM and constant folding
/// both evaluate through this one function. Always inlined: it sits on the
/// VM's hottest path, where GCC would otherwise leave it out of line.
[[gnu::always_inline]] inline IntResult int_binop(Opcode op, std::int64_t a,
                                                  std::int64_t b) {
  const auto ua = static_cast<std::uint64_t>(a);
  const auto ub = static_cast<std::uint64_t>(b);
  switch (op) {
    case Opcode::Add: return {static_cast<std::int64_t>(ua + ub)};
    case Opcode::Sub: return {static_cast<std::int64_t>(ua - ub)};
    case Opcode::Mul: return {static_cast<std::int64_t>(ua * ub)};
    case Opcode::Div:
      if (b == 0) return {0, "division by zero"};
      if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
        return {0, "division overflow"};
      return {a / b};
    case Opcode::CmpEq: return {a == b};
    case Opcode::CmpNe: return {a != b};
    case Opcode::CmpLt: return {a < b};
    case Opcode::CmpLe: return {a <= b};
    case Opcode::CmpGt: return {a > b};
    case Opcode::CmpGe: return {a >= b};
    case Opcode::And: return {(a != 0) && (b != 0)};
    case Opcode::Or: return {(a != 0) || (b != 0)};
    default: return {0, "not an integer binary operator"};
  }
}

/// Marker for "no destination register".
inline constexpr int kNoReg = -1;

struct Instruction {
  Opcode op = Opcode::Nop;
  int dest = kNoReg;
  std::vector<Operand> operands;

  /// Call: callee function name. Syscall: syscall name.
  std::string symbol;

  /// Br: {target}. CondBr: {if-true, if-false}. Labels are resolved to block
  /// indices by Function::resolve_labels().
  std::vector<std::string> target_labels;
  std::vector<int> targets;

  bool is_term() const { return is_terminator(op); }

  std::string to_string() const;
};

}  // namespace pa::ir
