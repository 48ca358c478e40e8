// Seeded random PrivIR modules: up to three functions, branches, calls,
// priv_* operations and syscalls. fuzz_test checks that they survive
// print/parse and simplify; vm_run_diff_test runs them on both
// interpreters.
#pragma once

#include <cstdint>
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

}  // namespace pa
