// Standard cleanup transformations over PrivIR.
//
// AutoPriv's edge-splitting leaves trivial forwarding blocks behind and the
// liveness-driven removes can strand unreachable code; these passes restore
// a tidy CFG. They are also exercised independently as general compiler
// infrastructure (tests/ir_transforms_test.cpp).
#pragma once

#include "ir/module.h"

namespace pa::ir {

struct TransformCounts {
  int removed_blocks = 0;
  int folded_instructions = 0;
  int merged_blocks = 0;

  int total() const {
    return removed_blocks + folded_instructions + merged_blocks;
  }
};

/// Delete blocks unreachable from the entry block. Terminator targets are
/// re-resolved afterwards.
TransformCounts remove_unreachable_blocks(Function& f);

/// Fold constant arithmetic/comparisons and `condbr` on constants (the
/// latter becomes an unconditional `br`, possibly exposing unreachable
/// blocks). Only operates on integer immediates, by ir::int_binop's rule;
/// a division that would fault is left to fault when it runs.
TransformCounts fold_constants(Function& f);

/// Merge a block into its unique predecessor when the predecessor ends in
/// an unconditional branch to it and no other block targets it.
TransformCounts merge_straightline_blocks(Function& f);

/// Run all of the above to a fixpoint.
TransformCounts simplify(Function& f);
TransformCounts simplify(Module& m);

}  // namespace pa::ir
