#include "vm/interpreter.h"

#include <algorithm>

#include "support/error.h"
#include "support/str.h"
#include "vm/syscall_bridge.h"

namespace pa::vm {
namespace {

/// Instructions after which the privilege state, the credentials, the
/// pending signals or the current frame may differ: a run ends at each.
bool ends_run(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::Syscall:
    case ir::Opcode::PrivRaise:
    case ir::Opcode::PrivLower:
    case ir::Opcode::PrivRemove:
    case ir::Opcode::Call:
    case ir::Opcode::CallInd:
      return true;
    default:
      return ir::is_terminator(op);
  }
}

}  // namespace

Interpreter::Interpreter(os::Kernel& kernel, const ir::Module& module,
                         os::Pid pid)
    : kernel_(&kernel),
      module_(&module),
      pid_(pid),
      proc_(&kernel.process(pid)) {
  frame_size_.reserve(module.functions().size());
  run_len_.reserve(module.functions().size());
  for (const ir::Function& fn : module.functions()) {
    frame_size_.push_back(fn.num_registers());
    auto& blocks = run_len_.emplace_back();
    blocks.reserve(fn.blocks().size());
    for (const ir::BasicBlock& bb : fn.blocks()) {
      auto& len = blocks.emplace_back(bb.instructions.size());
      std::uint32_t run = 0;
      for (std::size_t ip = len.size(); ip-- > 0;) {
        run = ends_run(bb.instructions[ip].op) ? 1 : run + 1;
        len[ip] = run;
      }
    }
  }
}

ir::RtValue Interpreter::eval(const Frame& frame,
                              const ir::Operand& op) const {
  switch (op.kind()) {
    case ir::Operand::Kind::Reg:
      return frame.regs[static_cast<std::size_t>(op.reg_index())];
    case ir::Operand::Kind::Int:
      return op.int_value();
    case ir::Operand::Kind::Str:
      return op.str_value();
    case ir::Operand::Kind::Func:
      return ir::FuncRef{op.str_value()};
    case ir::Operand::Kind::Caps:
      return static_cast<std::int64_t>(op.caps_value().raw());
  }
  PA_UNREACHABLE("operand kind");
}

std::int64_t Interpreter::eval_int(const Frame& frame,
                                   const ir::Operand& op) const {
  switch (op.kind()) {
    case ir::Operand::Kind::Reg:
      return ir::rt_as_int(
          frame.regs[static_cast<std::size_t>(op.reg_index())]);
    case ir::Operand::Kind::Int:
      return op.int_value();
    default:
      return ir::rt_as_int(eval(frame, op));
  }
}

void Interpreter::push_frame(const std::string& fname,
                             std::vector<ir::RtValue> args,
                             int dest_in_caller) {
  const ir::Function& fn = module_->function(fname);
  PA_CHECK(static_cast<int>(args.size()) == fn.num_params(),
           str::cat("call to @", fname, " with ", args.size(),
                    " args, expected ", fn.num_params()));
  Frame frame;
  frame.fn = &fn;
  frame.index = static_cast<std::size_t>(&fn - module_->functions().data());
  frame.dest_in_caller = dest_in_caller;
  frame.regs.resize(static_cast<std::size_t>(frame_size_[frame.index]),
                    std::int64_t{0});
  for (std::size_t i = 0; i < args.size(); ++i) frame.regs[i] = std::move(args[i]);
  stack_.push_back(std::move(frame));
}

void Interpreter::deliver_pending_signal() {
  if (proc_->pending_signals.empty()) return;
  int signo = proc_->pending_signals.front();
  proc_->pending_signals.erase(proc_->pending_signals.begin());
  auto it = proc_->signal_handlers.find(signo);
  if (it == proc_->signal_handlers.end()) return;
  // Handler runs like a call with the signal number; its return value is
  // discarded.
  push_frame(it->second, {std::int64_t{signo}}, ir::kNoReg);
}

void Interpreter::start(const std::string& entry,
                        std::vector<ir::RtValue> args) {
  stack_.clear();
  exited_ = false;
  exit_code_ = 0;
  push_frame(entry, std::move(args), ir::kNoReg);
}

bool Interpreter::finished() const {
  return stack_.empty() || exited_ || !proc_->alive();
}

long Interpreter::run(const std::string& entry,
                      std::vector<ir::RtValue> args) {
  start(entry, std::move(args));
  run_turn(UINT64_MAX);
  return exit_code_;
}

bool Interpreter::run_turn(std::uint64_t quantum) {
  while (!finished()) {
    if (quantum == 0) return true;
    Frame& frame = stack_.back();
    const ir::BasicBlock& bb = frame.fn->block(frame.block);
    PA_CHECK(frame.ip < bb.instructions.size(),
             str::cat("fell off block ", bb.label, " in @", frame.fn->name()));
    if (executed_ >= limits_.max_instructions) {
      ++executed_;
      fail(str::cat("instruction budget exhausted (",
                    limits_.max_instructions, ")"));
    }
    // Cut the run at the turn's quantum and at the budget. A pending signal
    // is delivered after the next instruction, so it cuts the run to one.
    std::uint64_t n = std::min<std::uint64_t>(
        {run_len_[frame.index][static_cast<std::size_t>(frame.block)]
                 [frame.ip],
         quantum, limits_.max_instructions - executed_});
    if (!proc_->pending_signals.empty()) n = 1;
    executed_ += n;
    quantum -= n;
    if (tracer_) tracer_->on_run(*proc_, *frame.fn, frame.block, frame.ip, n);

    // A tracer's hook may have killed us.
    if (!proc_->alive()) {
      exit_code_ = proc_->exit_code;
      return false;
    }

    // Every instruction but the run's last is straight-line.
    const ir::Instruction* inst = &bb.instructions[frame.ip];
    frame.ip += n - 1;
    for (std::uint64_t i = 0; i + 1 < n; ++i) compute(frame, inst[i]);
    execute(frame, inst[n - 1]);

    if (!exited_) deliver_pending_signal();
  }
  // The program has finished: mark its process zombie (once).
  if (proc_->alive()) kernel_->sys_exit(pid_, static_cast<int>(exit_code_));
  return false;
}

void Interpreter::compute(Frame& frame, const ir::Instruction& inst) {
  switch (inst.op) {
    case ir::Opcode::Mov:
      frame.regs[static_cast<std::size_t>(inst.dest)] =
          eval(frame, inst.operands[0]);
      break;
    case ir::Opcode::CmpEq:
    case ir::Opcode::CmpNe: {
      // Equality works on ints and strings alike; the rest on ints only.
      const bool eq =
          eval(frame, inst.operands[0]) == eval(frame, inst.operands[1]);
      frame.regs[static_cast<std::size_t>(inst.dest)] =
          std::int64_t{(inst.op == ir::Opcode::CmpEq) == eq};
      break;
    }
    case ir::Opcode::Add: case ir::Opcode::Sub: case ir::Opcode::Mul:
    case ir::Opcode::Div: case ir::Opcode::CmpLt: case ir::Opcode::CmpLe:
    case ir::Opcode::CmpGt: case ir::Opcode::CmpGe: case ir::Opcode::And:
    case ir::Opcode::Or: {
      const std::int64_t a = eval_int(frame, inst.operands[0]);
      const std::int64_t b = eval_int(frame, inst.operands[1]);
      std::int64_t out = 0;
      switch (inst.op) {
        case ir::Opcode::Add: out = a + b; break;
        case ir::Opcode::Sub: out = a - b; break;
        case ir::Opcode::Mul: out = a * b; break;
        case ir::Opcode::Div:
          PA_CHECK(b != 0, "division by zero");
          out = a / b;
          break;
        case ir::Opcode::CmpLt: out = a < b; break;
        case ir::Opcode::CmpLe: out = a <= b; break;
        case ir::Opcode::CmpGt: out = a > b; break;
        case ir::Opcode::CmpGe: out = a >= b; break;
        case ir::Opcode::And: out = (a != 0) && (b != 0); break;
        case ir::Opcode::Or: out = (a != 0) || (b != 0); break;
        default: PA_UNREACHABLE("binop");
      }
      frame.regs[static_cast<std::size_t>(inst.dest)] = out;
      break;
    }
    case ir::Opcode::Not:
      frame.regs[static_cast<std::size_t>(inst.dest)] =
          std::int64_t{eval_int(frame, inst.operands[0]) == 0};
      break;
    case ir::Opcode::FuncAddr:
      frame.regs[static_cast<std::size_t>(inst.dest)] =
          ir::FuncRef{inst.operands[0].str_value()};
      break;
    case ir::Opcode::Nop:
      break;
    default:
      PA_UNREACHABLE("run-ending instruction inside a run");
  }
}

void Interpreter::execute(Frame& frame, const ir::Instruction& inst) {
  switch (inst.op) {
    case ir::Opcode::Br:
      frame.block = inst.targets[0];
      frame.ip = 0;
      break;
    case ir::Opcode::CondBr:
      frame.block =
          inst.targets[eval_int(frame, inst.operands[0]) != 0 ? 0 : 1];
      frame.ip = 0;
      break;
    case ir::Opcode::Ret: {
      ir::RtValue rv = inst.operands.empty()
                           ? ir::RtValue{std::int64_t{0}}
                           : eval(frame, inst.operands[0]);
      const int dest = frame.dest_in_caller;
      stack_.pop_back();
      if (stack_.empty()) {
        exit_code_ = ir::rt_as_int(rv);
      } else if (dest != ir::kNoReg) {
        stack_.back().regs[static_cast<std::size_t>(dest)] = std::move(rv);
      }
      break;
    }
    case ir::Opcode::Exit:
      exit_code_ = eval_int(frame, inst.operands[0]);
      exited_ = true;
      break;
    case ir::Opcode::Unreachable:
      fail(str::cat("executed unreachable in @", frame.fn->name()));
    case ir::Opcode::Call: {
      std::vector<ir::RtValue> call_args;
      call_args.reserve(inst.operands.size());
      for (const ir::Operand& op : inst.operands)
        call_args.push_back(eval(frame, op));
      ++frame.ip;  // return lands after the call
      push_frame(inst.symbol, std::move(call_args), inst.dest);
      break;
    }
    case ir::Opcode::CallInd: {
      const ir::RtValue cv = eval(frame, inst.operands[0]);
      const auto* fr = std::get_if<ir::FuncRef>(&cv);
      PA_CHECK(fr != nullptr, "callind through non-function value");
      std::vector<ir::RtValue> call_args;
      for (std::size_t i = 1; i < inst.operands.size(); ++i)
        call_args.push_back(eval(frame, inst.operands[i]));
      ++frame.ip;
      push_frame(fr->name, std::move(call_args), inst.dest);
      break;
    }
    case ir::Opcode::Syscall: {
      std::vector<ir::RtValue> sys_args;
      sys_args.reserve(inst.operands.size());
      for (const ir::Operand& op : inst.operands)
        sys_args.push_back(eval(frame, op));
      std::int64_t r =
          dispatch_syscall(*kernel_, pid_, inst.symbol, sys_args);
      if (inst.dest != ir::kNoReg)
        frame.regs[static_cast<std::size_t>(inst.dest)] = r;
      ++frame.ip;
      break;
    }
    case ir::Opcode::PrivRaise: {
      os::SysResult r =
          kernel_->priv_raise(pid_, inst.operands[0].caps_value());
      PA_CHECK(r.ok(),
               str::cat("priv_raise of non-permitted capability in @",
                        frame.fn->name(), " (",
                        inst.operands[0].caps_value().to_string(), ")"));
      ++frame.ip;
      break;
    }
    case ir::Opcode::PrivLower:
      kernel_->priv_lower(pid_, inst.operands[0].caps_value());
      ++frame.ip;
      break;
    case ir::Opcode::PrivRemove:
      kernel_->priv_remove(pid_, inst.operands[0].caps_value());
      ++frame.ip;
      break;
    default:  // a run cut short ends on a straight-line instruction
      compute(frame, inst);
      ++frame.ip;
      break;
  }
}

}  // namespace pa::vm
