#include "reference_interpreter.h"

#include "support/error.h"
#include "support/str.h"
#include "vm/syscall_bridge.h"

namespace pa::vm::reference {

Interpreter::Interpreter(os::Kernel& kernel, const ir::Module& module,
                         os::Pid pid)
    : kernel_(&kernel), module_(&module), pid_(pid) {}

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

void Interpreter::push_frame(const std::string& fname,
                             std::vector<ir::RtValue> args,
                             int dest_in_caller) {
  const ir::Function& fn = module_->function(fname);
  PA_CHECK(static_cast<int>(args.size()) == fn.num_params(),
           str::cat("call to @", fname, " with ", args.size(),
                    " args, expected ", fn.num_params()));
  Frame frame;
  frame.fn = &fn;
  frame.dest_in_caller = dest_in_caller;
  frame.regs.resize(static_cast<std::size_t>(fn.num_registers()),
                    std::int64_t{0});
  for (std::size_t i = 0; i < args.size(); ++i) frame.regs[i] = std::move(args[i]);
  stack_.push_back(std::move(frame));
}

void Interpreter::deliver_pending_signal() {
  os::Process& p = kernel_->process(pid_);
  if (p.pending_signals.empty()) return;
  int signo = p.pending_signals.front();
  p.pending_signals.erase(p.pending_signals.begin());
  auto it = p.signal_handlers.find(signo);
  if (it == p.signal_handlers.end()) return;
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
  return stack_.empty() || exited_ || !kernel_->process(pid_).alive();
}

long Interpreter::run(const std::string& entry,
                      std::vector<ir::RtValue> args) {
  start(entry, std::move(args));
  while (step()) {
  }
  return exit_code_;
}

bool Interpreter::step() {
  if (finished()) {
    if (kernel_->process(pid_).alive())
      kernel_->sys_exit(pid_, static_cast<int>(exit_code_));
    return false;
  }
  {
    Frame& frame = stack_.back();
    const ir::BasicBlock& bb = frame.fn->block(frame.block);
    PA_CHECK(frame.ip < bb.instructions.size(),
             str::cat("fell off block ", bb.label, " in @", frame.fn->name()));
    const ir::Instruction& inst = bb.instructions[frame.ip];

    if (++executed_ > limits_.max_instructions)
      fail(str::cat("instruction budget exhausted (",
                    limits_.max_instructions, ")"));
    if (tracer_)
      tracer_->on_run(kernel_->process(pid_), *frame.fn, frame.block,
                      frame.ip, 1);

    // The kernel may have killed us (signal from another process).
    if (!kernel_->process(pid_).alive()) {
      exit_code_ = kernel_->process(pid_).exit_code;
      return false;
    }

    switch (inst.op) {
      case ir::Opcode::Mov:
        frame.regs[static_cast<std::size_t>(inst.dest)] =
            eval(frame, inst.operands[0]);
        ++frame.ip;
        break;
      case ir::Opcode::Add: case ir::Opcode::Sub: case ir::Opcode::Mul:
      case ir::Opcode::Div: case ir::Opcode::CmpEq: case ir::Opcode::CmpNe:
      case ir::Opcode::CmpLt: case ir::Opcode::CmpLe: case ir::Opcode::CmpGt:
      case ir::Opcode::CmpGe: case ir::Opcode::And: case ir::Opcode::Or: {
        // Comparisons work on both ints and strings; arithmetic on ints.
        const ir::RtValue av = eval(frame, inst.operands[0]);
        const ir::RtValue bv = eval(frame, inst.operands[1]);
        std::int64_t out = 0;
        if (inst.op == ir::Opcode::CmpEq || inst.op == ir::Opcode::CmpNe) {
          const bool eq = av == bv;
          out = (inst.op == ir::Opcode::CmpEq) ? eq : !eq;
        } else {
          // PrivIR integers are int64 two's complement: add, sub and mul
          // wrap, and div faults where the quotient has no int64 value.
          const std::int64_t a = ir::rt_as_int(av);
          const std::int64_t b = ir::rt_as_int(bv);
          const auto ua = static_cast<std::uint64_t>(a);
          const auto ub = static_cast<std::uint64_t>(b);
          switch (inst.op) {
            case ir::Opcode::Add:
              out = static_cast<std::int64_t>(ua + ub);
              break;
            case ir::Opcode::Sub:
              out = static_cast<std::int64_t>(ua - ub);
              break;
            case ir::Opcode::Mul:
              out = static_cast<std::int64_t>(ua * ub);
              break;
            case ir::Opcode::Div:
              PA_CHECK(b != 0, "division by zero");
              PA_CHECK(a != INT64_MIN || b != -1, "division overflow");
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
        }
        frame.regs[static_cast<std::size_t>(inst.dest)] = out;
        ++frame.ip;
        break;
      }
      case ir::Opcode::Not:
        frame.regs[static_cast<std::size_t>(inst.dest)] =
            static_cast<std::int64_t>(
                ir::rt_as_int(eval(frame, inst.operands[0])) == 0);
        ++frame.ip;
        break;
      case ir::Opcode::Br:
        frame.block = inst.targets[0];
        frame.ip = 0;
        break;
      case ir::Opcode::CondBr: {
        const bool taken = ir::rt_as_int(eval(frame, inst.operands[0])) != 0;
        frame.block = inst.targets[taken ? 0 : 1];
        frame.ip = 0;
        break;
      }
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
        exit_code_ = ir::rt_as_int(eval(frame, inst.operands[0]));
        exited_ = true;
        break;
      case ir::Opcode::Unreachable:
        fail(str::cat("executed unreachable in @", frame.fn->name()));
      case ir::Opcode::Call: {
        std::vector<ir::RtValue> call_args;
        call_args.reserve(inst.operands.size());
        for (const ir::Operand& op : inst.operands)
          call_args.push_back(eval(frame, op));
        const std::string callee = inst.symbol;
        const int dest = inst.dest;
        ++frame.ip;  // return lands after the call
        push_frame(callee, std::move(call_args), dest);
        break;
      }
      case ir::Opcode::CallInd: {
        const ir::RtValue cv = eval(frame, inst.operands[0]);
        const auto* fr = std::get_if<ir::FuncRef>(&cv);
        PA_CHECK(fr != nullptr, "callind through non-function value");
        std::vector<ir::RtValue> call_args;
        for (std::size_t i = 1; i < inst.operands.size(); ++i)
          call_args.push_back(eval(frame, inst.operands[i]));
        const std::string callee = fr->name;
        const int dest = inst.dest;
        ++frame.ip;
        push_frame(callee, std::move(call_args), dest);
        break;
      }
      case ir::Opcode::FuncAddr:
        frame.regs[static_cast<std::size_t>(inst.dest)] =
            ir::FuncRef{inst.operands[0].str_value()};
        ++frame.ip;
        break;
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
      case ir::Opcode::Nop:
        ++frame.ip;
        break;
    }

    if (!exited_) deliver_pending_signal();
  }
  if (finished()) {
    if (kernel_->process(pid_).alive())
      kernel_->sys_exit(pid_, static_cast<int>(exit_code_));
    return false;
  }
  return true;
}

Interpreter& Scheduler::add(const ir::Module& module, os::Pid pid,
                            const std::string& entry,
                            std::vector<ir::RtValue> args) {
  tasks_.push_back(std::make_unique<Interpreter>(*kernel_, module, pid));
  tasks_.back()->start(entry, std::move(args));
  return *tasks_.back();
}

bool Scheduler::step_round(std::uint64_t quantum) {
  bool any_alive = false;
  for (auto& interp : tasks_) {
    if (interp->finished()) {
      // Let the interpreter finalize (zombie marking) exactly once.
      interp->step();
      continue;
    }
    for (std::uint64_t i = 0; i < quantum; ++i)
      if (!interp->step()) break;
    any_alive |= !interp->finished();
  }
  return any_alive;
}

std::uint64_t Scheduler::run_all(std::uint64_t quantum) {
  while (step_round(quantum)) {
  }
  std::uint64_t total = 0;
  for (auto& interp : tasks_) total += interp->executed();
  return total;
}

}  // namespace pa::vm::reference
