#include "ir/transforms.h"

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

namespace pa::ir {
namespace {

std::set<int> reachable_blocks(const Function& f) {
  std::set<int> seen{0};
  std::vector<int> work{0};
  while (!work.empty()) {
    int b = work.back();
    work.pop_back();
    for (int s : f.block(b).successors())
      if (seen.insert(s).second) work.push_back(s);
  }
  return seen;
}

std::optional<std::int64_t> const_int(const Operand& op) {
  if (op.kind() == Operand::Kind::Int) return op.int_value();
  return std::nullopt;
}

}  // namespace

TransformCounts remove_unreachable_blocks(Function& f) {
  TransformCounts counts;
  if (f.blocks().empty()) return counts;
  std::set<int> live = reachable_blocks(f);
  if (live.size() == f.blocks().size()) return counts;

  std::vector<BasicBlock> kept;
  kept.reserve(live.size());
  for (std::size_t b = 0; b < f.blocks().size(); ++b) {
    if (live.contains(static_cast<int>(b)))
      kept.push_back(std::move(f.blocks()[b]));
    else
      ++counts.removed_blocks;
  }
  f.blocks() = std::move(kept);
  f.resolve_labels();
  return counts;
}

TransformCounts fold_constants(Function& f) {
  TransformCounts counts;
  for (BasicBlock& bb : f.blocks()) {
    for (Instruction& inst : bb.instructions) {
      switch (inst.op) {
        case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
        case Opcode::Div: case Opcode::CmpEq: case Opcode::CmpNe:
        case Opcode::CmpLt: case Opcode::CmpLe: case Opcode::CmpGt:
        case Opcode::CmpGe: case Opcode::And: case Opcode::Or: {
          auto a = const_int(inst.operands[0]);
          auto b = const_int(inst.operands[1]);
          if (!a || !b) break;
          // A faulting division stays, to fault when it runs.
          const IntResult r = int_binop(inst.op, *a, *b);
          if (r.fault) break;
          inst.op = Opcode::Mov;
          inst.operands = {Operand::imm(r.value)};
          ++counts.folded_instructions;
          break;
        }
        case Opcode::Not: {
          if (auto a = const_int(inst.operands[0])) {
            inst.op = Opcode::Mov;
            inst.operands = {Operand::imm(*a == 0)};
            ++counts.folded_instructions;
          }
          break;
        }
        case Opcode::CondBr: {
          if (auto c = const_int(inst.operands[0])) {
            const std::string target = inst.target_labels[*c != 0 ? 0 : 1];
            inst.op = Opcode::Br;
            inst.operands.clear();
            inst.target_labels = {target};
            ++counts.folded_instructions;
          }
          break;
        }
        default:
          break;
      }
    }
  }
  if (counts.folded_instructions) f.resolve_labels();
  return counts;
}

TransformCounts merge_straightline_blocks(Function& f) {
  TransformCounts counts;
  bool changed = true;
  while (changed) {
    changed = false;
    // Count predecessors.
    std::vector<int> pred_count(f.blocks().size(), 0);
    std::vector<int> unique_pred(f.blocks().size(), -1);
    for (std::size_t b = 0; b < f.blocks().size(); ++b) {
      for (int s : f.block(static_cast<int>(b)).successors()) {
        ++pred_count[static_cast<std::size_t>(s)];
        unique_pred[static_cast<std::size_t>(s)] = static_cast<int>(b);
      }
    }
    for (std::size_t b = 1; b < f.blocks().size(); ++b) {
      if (pred_count[b] != 1) continue;
      const int pred = unique_pred[b];
      BasicBlock& pb = f.block(pred);
      const Instruction* term = pb.terminator();
      if (!term || term->op != Opcode::Br ||
          term->targets[0] != static_cast<int>(b))
        continue;
      // Splice: drop the br, append the successor's instructions.
      BasicBlock& sb = f.block(static_cast<int>(b));
      pb.instructions.pop_back();
      for (Instruction& inst : sb.instructions)
        pb.instructions.push_back(std::move(inst));
      // The successor becomes unreachable; delete it.
      f.blocks().erase(f.blocks().begin() + static_cast<long>(b));
      f.resolve_labels();
      ++counts.merged_blocks;
      changed = true;
      break;  // indices shifted; restart the scan
    }
  }
  return counts;
}

TransformCounts simplify(Function& f) {
  TransformCounts total;
  for (;;) {
    TransformCounts round;
    auto acc = [&round](TransformCounts c) {
      round.removed_blocks += c.removed_blocks;
      round.folded_instructions += c.folded_instructions;
      round.merged_blocks += c.merged_blocks;
    };
    acc(fold_constants(f));
    acc(remove_unreachable_blocks(f));
    acc(merge_straightline_blocks(f));
    total.removed_blocks += round.removed_blocks;
    total.folded_instructions += round.folded_instructions;
    total.merged_blocks += round.merged_blocks;
    if (round.total() == 0) break;
  }
  return total;
}

TransformCounts simplify(Module& m) {
  TransformCounts total;
  for (Function& f : m.functions()) {
    TransformCounts c = simplify(f);
    total.removed_blocks += c.removed_blocks;
    total.folded_instructions += c.folded_instructions;
    total.merged_blocks += c.merged_blocks;
  }
  m.recompute_address_taken();
  return total;
}

}  // namespace pa::ir
