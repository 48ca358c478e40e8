// Seeded random PrivIR modules: up to three functions, branches, calls,
// priv_* operations and syscalls (random_module), and counted loops
// (random_loop_module). fuzz_test checks that they survive print/parse and
// simplify; vm_run_diff_test runs them on both interpreters.
#pragma once

#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "ir/builder.h"

namespace pa {

inline ir::Module random_module(std::mt19937& rng) {
  using caps::Capability;
  using B = ir::IRBuilder;
  ir::Module m("fuzz");
  ir::IRBuilder b(m);
  auto coin = [&] { return rng() % 2 == 0; };

  int nfuncs = 1 + static_cast<int>(rng() % 3);
  for (int fi = nfuncs - 1; fi >= 1; --fi) {
    b.begin_function("fn" + std::to_string(fi), 0);
    b.nop(static_cast<int>(rng() % 4));
    if (coin()) b.priv_raise({Capability::Setuid});
    if (coin()) b.syscall("getuid", {});
    if (coin()) b.priv_lower({Capability::Setuid});
    b.ret(B::i(static_cast<int>(rng() % 100)));
    b.end_function();
  }

  b.begin_function("main", 0);
  int r = b.mov(B::i(static_cast<std::int64_t>(rng() % 1000)));
  int blocks = 1 + static_cast<int>(rng() % 4);
  for (int bi = 0; bi < blocks; ++bi) {
    std::string next = "blk" + std::to_string(bi);
    if (coin()) {
      int c = b.cmp_lt(B::r(r), B::i(static_cast<int>(rng() % 2000)));
      std::string other = "alt" + std::to_string(bi);
      b.condbr(B::r(c), next, other);
      b.at(other);
      if (m.has_function("fn1") && coin()) b.call("fn1", {});
      b.ret(B::i(1));
      b.at(next);
    } else {
      b.br(next);
      b.at(next);
    }
    r = b.add(B::r(r), B::i(static_cast<int>(rng() % 10)));
    if (coin())
      b.syscall("open",
                {B::s("/f" + std::to_string(rng() % 3)), B::i(1)});
  }
  if (coin()) b.exit(B::i(0));
  else b.ret(B::r(r));
  b.end_function();
  m.recompute_address_taken();
  return m;
}

/// Seeded random counted loops, for the interpreter's cycle summaries
/// (DESIGN.md decision 18). `main` runs one to three loops, some nested one
/// deep, and returns the sum of their final registers. A loop runs a chosen
/// trip count (0, 1, 2 or many) with a unit, non-unit or negative step:
/// its condbr compares the counter, or a register that follows it, with an
/// immediate or a register holding the bound, through any of the six
/// comparisons, and exits on either side. The cycle spans two to four
/// blocks and may carry a second induction register, a comparison that
/// flips partway, or one shape the summaries must step instead: a mul, div,
/// and or or on the cycle, a string moved through it, a syscall, or a
/// register that wraps past INT64_MAX or INT64_MIN.
inline ir::Module random_loop_module(std::mt19937& rng) {
  using B = ir::IRBuilder;
  ir::Module m("loops");
  ir::IRBuilder b(m);
  auto pick = [&](std::int64_t n) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(n));
  };
  int labels = 0;
  auto label = [&](const char* what) {
    return std::string(what) + std::to_string(labels++);
  };

  b.begin_function("main", 0);
  const int acc = b.mov(B::i(0));
  auto accumulate = [&](int reg) {
    b.mov_to(acc, B::r(b.add(B::r(acc), B::r(reg))));
  };
  auto loop = [&](auto& self, int depth) -> void {
    const std::int64_t trips_choice = pick(8);  // 0, 1 and 2 one time in 8
    const std::int64_t trips =
        trips_choice < 3 ? trips_choice : 3 + pick(depth > 0 ? 10 : 150);
    const std::int64_t magnitude = pick(2) == 0 ? 1 : 2 + pick(8);
    const bool up = pick(3) != 0;
    const std::int64_t step = up ? magnitude : -magnitude;
    const std::int64_t first = pick(201) - 100;
    // The loop runs while `counter kind bound` holds: kind 0 is < (> when
    // stepping down), 1 is <= (>=), 2 is !=.
    const std::int64_t kind = pick(3);
    const std::int64_t last = first + trips * step;  // the exit value
    std::int64_t bound = last;
    if (kind == 0) bound = up ? last - pick(magnitude) : last + pick(magnitude);
    if (kind == 1)
      bound = up ? last - 1 - pick(magnitude) : last + 1 + pick(magnitude);
    const int feature = static_cast<int>(pick(12));  // 0-5: a special shape

    const int i = b.mov(B::i(first));
    const int bound_reg = b.mov(B::i(bound));
    const bool bound_in_reg = pick(2) == 0;
    const int second = b.mov(B::i(pick(1000)));
    const std::int64_t second_step = pick(21) - 10;
    const int prev = b.mov(B::i(first - step * pick(2)));
    const int flips = b.mov(B::i(0));
    const std::int64_t flip_at = first + pick(trips + 1) * step;
    const int name = b.mov(B::s("text"));
    const std::int64_t wrap_step = feature == 5 ? 1 + pick(5) : 0;
    const bool wrap_up = pick(2) == 0;
    const std::int64_t wrap_from =
        wrap_up ? std::numeric_limits<std::int64_t>::max() - pick(2 * trips + 2)
                : std::numeric_limits<std::int64_t>::min() + pick(2 * trips + 2);
    const int wrap = b.mov(B::i(wrap_from));
    const std::string head = label("head"), body = label("body"),
                      mid = label("mid"), latch = label("latch"),
                      done = label("done");
    b.br(head);

    // The head tests `i` itself, or `i + shift` against `bound + shift`.
    b.at(head);
    b.nop(static_cast<int>(pick(3)));
    int tested = i;
    std::int64_t shift = 0;
    if (pick(3) == 0) {
      shift = pick(41) - 20;
      tested = b.add(B::r(i), B::i(shift));
    }
    const ir::Operand limit =
        bound_in_reg && shift == 0 ? B::r(bound_reg) : B::i(bound + shift);
    // The continue predicate as one of four equivalent comparisons: the
    // operands either way round, the body on either side of the condbr.
    using ir::Opcode;
    const Opcode cont[3][2] = {{Opcode::CmpLt, Opcode::CmpGt},
                               {Opcode::CmpLe, Opcode::CmpGe},
                               {Opcode::CmpNe, Opcode::CmpNe}};
    const Opcode negated[3][2] = {{Opcode::CmpGe, Opcode::CmpLe},
                                  {Opcode::CmpGt, Opcode::CmpLt},
                                  {Opcode::CmpEq, Opcode::CmpEq}};
    auto mirrored = [](Opcode op) {
      switch (op) {
        case Opcode::CmpLt: return Opcode::CmpGt;
        case Opcode::CmpGt: return Opcode::CmpLt;
        case Opcode::CmpLe: return Opcode::CmpGe;
        case Opcode::CmpGe: return Opcode::CmpLe;
        default: return op;
      }
    };
    const bool body_on_true = pick(2) == 0;
    const bool swapped = pick(2) == 0;
    Opcode op = (body_on_true ? cont : negated)[kind][up ? 0 : 1];
    const int cond = swapped ? b.binop(mirrored(op), limit, B::r(tested))
                             : b.binop(op, B::r(tested), limit);
    if (body_on_true) b.condbr(B::r(cond), body, done);
    else b.condbr(B::r(cond), done, body);

    b.at(body);
    b.nop(static_cast<int>(pick(4)));
    // `prev` lags the counter by one step, so it is read before the cycle
    // writes it; a comparison on it flips partway.
    b.mov_to(flips, B::r(b.add(B::r(flips),
                               B::r(b.cmp_lt(B::r(prev), B::i(flip_at))))));
    b.mov_to(prev, B::r(i));
    if (pick(2) == 0)
      b.mov_to(second, B::r(b.add(B::r(second), B::i(second_step))));
    switch (feature) {
      case 0: {
        const Opcode ops[4] = {Opcode::Mul, Opcode::Div, Opcode::And,
                               Opcode::Or};
        b.mov_to(flips, B::r(b.binop(ops[pick(4)], B::r(i), B::i(3))));
        break;
      }
      case 1:
        b.mov_to(name, B::r(name));
        break;
      case 2:
        b.syscall("getpid");
        break;
      case 3:
        if (depth == 0) self(self, depth + 1);
        break;
      case 5:
        b.mov_to(wrap, B::r(b.add(B::r(wrap),
                                  B::i(wrap_up ? wrap_step : -wrap_step))));
        b.mov_to(flips, B::r(b.add(B::r(flips),
                                   B::r(b.cmp_lt(B::r(wrap), B::i(0))))));
        break;
      default:
        break;
    }
    if (pick(2) == 0) {
      b.br(mid);
      b.at(mid);
      b.nop(static_cast<int>(pick(3)));
    }
    if (pick(2) == 0) {
      b.br(latch);
      b.at(latch);
    }
    // The counter's update, emit_loop's way: next = i + step; i = next.
    const int next = pick(2) == 0 ? b.add(B::r(i), B::i(step))
                                  : b.sub(B::r(i), B::i(-step));
    b.mov_to(i, B::r(next));
    b.br(head);

    b.at(done);
    for (int reg : {i, second, prev, flips, wrap}) accumulate(reg);
  };
  const std::int64_t loops = 1 + pick(3);
  for (std::int64_t n = 0; n < loops; ++n) loop(loop, 0);
  b.ret(B::r(acc));
  b.end_function();
  m.recompute_address_taken();
  return m;
}

}  // namespace pa
