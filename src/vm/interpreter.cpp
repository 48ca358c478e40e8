#include "vm/interpreter.h"

#include <algorithm>

#include "support/error.h"
#include "support/str.h"
#include "vm/syscall_bridge.h"

namespace pa::vm {
namespace {

/// run() drives run_turn in turns of this many instructions and checks the
/// cancel flag between them.
constexpr std::uint64_t kCancelTurn = std::uint64_t{1} << 16;

/// Instructions after which the privilege state, the credentials, the
/// pending signals or the current frame may differ, or control moves: a run
/// ends at each.
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
    : kernel_(&kernel), pid_(pid), proc_(&kernel.process(pid)) {
  for (const ir::Function& fn : module.functions()) intern(fn.name());
  funcs_.reserve(module.functions().size());
  for (const ir::Function& fn : module.functions()) {
    Code& code = funcs_.emplace_back();
    code.fn = &fn;
    code.frame_size = fn.num_registers();
    code.first_stamp = static_cast<std::uint32_t>(stamps_.size());
    stamps_.resize(stamps_.size() + fn.blocks().size());
    code.block_begin.reserve(fn.blocks().size() + 1);
    for (const ir::BasicBlock& bb : fn.blocks()) {
      const std::size_t begin = code_.size();
      code.block_begin.push_back(static_cast<std::uint32_t>(begin));
      for (const ir::Instruction& inst : bb.instructions) {
        Op op;
        op.opcode = inst.op;
        op.dest = inst.dest;
        op.first_arg = static_cast<std::uint32_t>(args_.size());
        op.num_args = static_cast<std::uint32_t>(inst.operands.size());
        for (const ir::Operand& o : inst.operands) args_.push_back(decode(o));
        for (std::size_t t = 0; t < 2 && t < inst.targets.size(); ++t)
          op.targets[t] = inst.targets[t];
        if (inst.op == ir::Opcode::Call) op.callee = intern(inst.symbol);
        // A funcaddr of a name is a mov of that function value; one of
        // anything else keeps its opcode and faults as it did on the IR.
        if (inst.op == ir::Opcode::FuncAddr && !inst.operands.empty() &&
            (inst.operands[0].kind() == ir::Operand::Kind::Str ||
             inst.operands[0].kind() == ir::Operand::Kind::Func)) {
          op.opcode = ir::Opcode::Mov;
          args_[op.first_arg].constant.kind = Kind::Func;
        }
        op.inst = &inst;
        code_.push_back(op);
      }
      // Each op's run length and next effectful op, from the block's end.
      std::uint32_t run = 0;
      std::uint32_t next = static_cast<std::uint32_t>(bb.instructions.size());
      for (std::size_t ip = bb.instructions.size(); ip-- > 0;) {
        Op& op = code_[begin + ip];
        run = ends_run(op.opcode) ? 1 : run + 1;
        op.run_len = run;
        if (op.opcode != ir::Opcode::Nop) next = static_cast<std::uint32_t>(ip);
        op.next_effect = next;
      }
    }
    code.block_begin.push_back(static_cast<std::uint32_t>(code_.size()));
  }
}

std::int64_t Interpreter::intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it == ids_.end()) {
    it = ids_.emplace(std::string(name),
                      static_cast<std::int64_t>(names_.size())).first;
    names_.emplace_back(name);
  }
  return it->second;
}

Interpreter::Arg Interpreter::decode(const ir::Operand& op) {
  switch (op.kind()) {
    case ir::Operand::Kind::Reg:
      return {op.reg_index(), {}};
    case ir::Operand::Kind::Int:
      return {-1, {op.int_value(), Kind::Int}};
    case ir::Operand::Kind::Str:
      return {-1, {intern(op.str_value()), Kind::Str}};
    case ir::Operand::Kind::Func:
      return {-1, {intern(op.str_value()), Kind::Func}};
    case ir::Operand::Kind::Caps:
      return {-1, {static_cast<std::int64_t>(op.caps_value().raw()),
                   Kind::Int}};
  }
  PA_UNREACHABLE("operand kind");
}

Interpreter::Value Interpreter::from_rt(const ir::RtValue& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return {*i, Kind::Int};
  if (const auto* s = std::get_if<std::string>(&v))
    return {intern(*s), Kind::Str};
  return {intern(std::get<ir::FuncRef>(v).name), Kind::Func};
}

ir::RtValue Interpreter::to_rt(const Value& v) const {
  switch (v.kind) {
    case Kind::Int:
      return v.v;
    case Kind::Str:
      return names_[static_cast<std::size_t>(v.v)];
    case Kind::Func:
      return ir::FuncRef{names_[static_cast<std::size_t>(v.v)]};
  }
  PA_UNREACHABLE("value kind");
}

const Interpreter::Value& Interpreter::load(const Value* regs,
                                            const Arg& arg) {
  return arg.reg >= 0 ? regs[arg.reg] : arg.constant;
}

std::int64_t Interpreter::as_int(const Value& v) {
  if (v.kind != Kind::Int) fail("runtime value is not an integer");
  return v.v;
}

Interpreter::Value* Interpreter::push_frame(std::int64_t callee,
                                            std::size_t nargs,
                                            int dest_in_caller) {
  // Function i's name has id i, so only an id below the function count
  // names a function.
  const auto fn = static_cast<std::size_t>(callee);
  const std::string& name = names_[fn];
  PA_CHECK(fn < funcs_.size(), str::cat("no function @", name));
  const Code& code = funcs_[fn];
  PA_CHECK(static_cast<int>(nargs) == code.fn->num_params(),
           str::cat("call to @", name, " with ", nargs, " args, expected ",
                    code.fn->num_params()));
  Frame frame;
  frame.fn = fn;
  frame.base = regs_.size();
  frame.dest_in_caller = dest_in_caller;
  stack_.push_back(frame);
  regs_.resize(frame.base + static_cast<std::size_t>(code.frame_size));
  return regs_.data() + frame.base;
}

void Interpreter::deliver_pending_signal() {
  int signo = proc_->pending_signals.front();
  proc_->pending_signals.erase(proc_->pending_signals.begin());
  auto it = proc_->signal_handlers.find(signo);
  if (it == proc_->signal_handlers.end()) return;
  // Handler runs like a call with the signal number; its return value is
  // discarded.
  Value* regs = push_frame(intern(it->second), 1, ir::kNoReg);
  regs[0] = {signo, Kind::Int};
}

void Interpreter::start(const std::string& entry,
                        std::vector<ir::RtValue> args) {
  stack_.clear();
  regs_.clear();
  exited_ = false;
  exit_code_ = 0;
  Value* regs = push_frame(intern(entry), args.size(), ir::kNoReg);
  for (std::size_t i = 0; i < args.size(); ++i) regs[i] = from_rt(args[i]);
}

bool Interpreter::finished() const {
  return stack_.empty() || exited_ || !proc_->alive();
}

long Interpreter::run(const std::string& entry,
                      std::vector<ir::RtValue> args) {
  start(entry, std::move(args));
  // A turn boundary only splits a stretch, which changes no observable.
  while (run_turn(kCancelTurn))
    if (limits_.cancel && limits_.cancel->load(std::memory_order_relaxed))
      fail("cancelled");
  return exit_code_;
}

[[gnu::always_inline]] inline void Interpreter::compute(Value* regs,
                                                       const Op& op) const {
  const Arg* a = args_.data() + op.first_arg;
  switch (op.opcode) {
    case ir::Opcode::Mov:
      regs[op.dest] = load(regs, a[0]);
      break;
    case ir::Opcode::CmpEq:
    case ir::Opcode::CmpNe:
      // Equality works on every kind; the rest on ints only.
      regs[op.dest] = {(op.opcode == ir::Opcode::CmpEq) ==
                           (load(regs, a[0]) == load(regs, a[1])),
                       Kind::Int};
      break;
    case ir::Opcode::Add: case ir::Opcode::Sub: case ir::Opcode::Mul:
    case ir::Opcode::Div: case ir::Opcode::CmpLt: case ir::Opcode::CmpLe:
    case ir::Opcode::CmpGt: case ir::Opcode::CmpGe: case ir::Opcode::And:
    case ir::Opcode::Or: {
      const ir::IntResult r = ir::int_binop(
          op.opcode, as_int(load(regs, a[0])), as_int(load(regs, a[1])));
      if (r.fault) fail(r.fault);
      regs[op.dest] = {r.value, Kind::Int};
      break;
    }
    case ir::Opcode::Not:
      regs[op.dest] = {as_int(load(regs, a[0])) == 0, Kind::Int};
      break;
    case ir::Opcode::FuncAddr:  // left undecoded only if its operand is no name
      (void)op.inst->operands.at(0).str_value();  // throws, as on the IR
      PA_UNREACHABLE("funcaddr of a non-name");
    case ir::Opcode::Nop:
      break;
    default:
      PA_UNREACHABLE("run-ending instruction inside a run");
  }
}

bool Interpreter::run_turn(std::uint64_t quantum) {
  while (!finished()) {
    if (quantum == 0) return true;
    Frame& frame = stack_.back();
    const Code& code = funcs_[frame.fn];
    const auto block = static_cast<std::size_t>(frame.block);
    PA_CHECK(frame.block >= 0 && block + 1 < code.block_begin.size(),
             str::cat("bad block index ", frame.block, " in @",
                      code.fn->name()));
    PA_CHECK(frame.ip < code.block_begin[block + 1] - code.block_begin[block],
             str::cat("fell off block ", code.fn->block(frame.block).label,
                      " in @", code.fn->name()));
    if (executed_ >= limits_.max_instructions) {
      ++executed_;
      fail(str::cat("instruction budget exhausted (",
                    limits_.max_instructions, ")"));
    }
    // Cut the stretch at the turn's quantum and at the budget. A pending
    // signal is delivered after the next instruction, so it cuts the
    // stretch to one.
    const std::uint64_t avail =
        proc_->pending_signals.empty()
            ? std::min(quantum, limits_.max_instructions - executed_)
            : 1;
    const Stretch s = run_stretch(frame, code, avail);
    executed_ += s.n;
    quantum -= s.n;
    if (tracer_) tracer_->on_run(*proc_, s);

    // A tracer's hook may have killed us.
    if (!proc_->alive()) {
      exit_code_ = proc_->exit_code;
      return false;
    }

    frame.block = s.last_block;
    frame.ip = s.last_ip;
    execute(frame, code_[code.block_begin[static_cast<std::size_t>(
                             s.last_block)] + s.last_ip]);

    if (!exited_ && !proc_->pending_signals.empty()) deliver_pending_signal();
  }
  // The program has finished: mark its process zombie (once).
  if (proc_->alive()) kernel_->sys_exit(pid_, static_cast<int>(exit_code_));
  return false;
}

Stretch Interpreter::run_stretch(const Frame& frame, const Code& code,
                                 std::uint64_t avail) {
  Stretch s{code.fn, frame.block, frame.ip, 0, frame.block, frame.ip, {}};
  ++stretch_id_;
  entered_.clear();
  Value* regs = regs_.data() + frame.base;
  const Op* ops = code_.data() + code.block_begin[static_cast<std::size_t>(
                                     frame.block)];
  std::size_t ip = frame.ip;
  try {
    for (;;) {
      // One straight-line run: every op but its last is straight-line, and
      // only the effectful ones among them are dispatched.
      const Op& head = ops[ip];
      const std::uint64_t len =
          std::min<std::uint64_t>(head.run_len, avail - s.n);
      s.n += len;
      s.last_ip = ip + len - 1;
      for (std::size_t i = head.next_effect; i < s.last_ip;
           i = ops[i + 1].next_effect)
        compute(regs, ops[i]);
      if (s.n == avail) break;
      // The run ended at its run-ending op. A branch to a valid, non-empty
      // block is taken here; any other op ends the stretch, as does a
      // branch that execute() must take so the next stretch start faults.
      const Op& op = ops[s.last_ip];
      if (op.opcode != ir::Opcode::Br && op.opcode != ir::Opcode::CondBr)
        break;
      const int target =
          op.targets[op.opcode == ir::Opcode::Br ||
                             as_int(load(regs, args_[op.first_arg])) != 0
                         ? 0
                         : 1];
      const auto t = static_cast<std::size_t>(target);
      if (target < 0 || t + 1 >= code.block_begin.size() ||
          code.block_begin[t] == code.block_begin[t + 1])
        break;
      ops = code_.data() + code.block_begin[t];
      ip = 0;
      s.last_block = target;
      std::uint64_t& stamp = stamps_[code.first_stamp + t];
      if (stamp != stretch_id_) {
        stamp = stretch_id_;
        entered_.push_back(target);
      }
    }
  } catch (...) {
    // The fault ends the stretch at the faulting run's last op: charge and
    // report it, as if the fault had come from that op's effects.
    s.entered = entered_;
    executed_ += s.n;
    if (tracer_) tracer_->on_run(*proc_, s);
    throw;
  }
  s.entered = entered_;
  return s;
}

void Interpreter::execute(Frame& frame, const Op& op) {
  const Arg* a = args_.data() + op.first_arg;
  Value* regs = regs_.data() + frame.base;
  switch (op.opcode) {
    case ir::Opcode::Br:
      frame.block = op.targets[0];
      frame.ip = 0;
      break;
    case ir::Opcode::CondBr:
      frame.block = op.targets[as_int(load(regs, a[0])) != 0 ? 0 : 1];
      frame.ip = 0;
      break;
    case ir::Opcode::Ret: {
      const Value rv = op.num_args == 0 ? Value{} : load(regs, a[0]);
      const int dest = frame.dest_in_caller;
      regs_.resize(frame.base);
      stack_.pop_back();
      if (stack_.empty()) {
        exit_code_ = as_int(rv);
      } else if (dest != ir::kNoReg) {
        regs_[stack_.back().base + static_cast<std::size_t>(dest)] = rv;
      }
      break;
    }
    case ir::Opcode::Exit:
      exit_code_ = as_int(load(regs, a[0]));
      exited_ = true;
      break;
    case ir::Opcode::Unreachable:
      fail(str::cat("executed unreachable in @", funcs_[frame.fn].fn->name()));
    case ir::Opcode::Call:
    case ir::Opcode::CallInd: {
      const bool direct = op.opcode == ir::Opcode::Call;
      std::int64_t callee = op.callee;
      if (!direct) {
        const Value& cv = load(regs, a[0]);
        PA_CHECK(cv.kind == Kind::Func, "callind through non-function value");
        callee = cv.v;
      }
      const std::size_t first = direct ? 0 : 1;
      const std::size_t caller = frame.base;
      ++frame.ip;  // return lands after the call
      // The push may move the register file: reload the caller's after it.
      Value* callee_regs = push_frame(callee, op.num_args - first, op.dest);
      regs = regs_.data() + caller;
      for (std::size_t i = first; i < op.num_args; ++i)
        callee_regs[i - first] = load(regs, a[i]);
      break;
    }
    case ir::Opcode::Syscall: {
      std::vector<ir::RtValue> sys_args;
      sys_args.reserve(op.num_args);
      for (std::size_t i = 0; i < op.num_args; ++i)
        sys_args.push_back(to_rt(load(regs, a[i])));
      const std::int64_t r =
          dispatch_syscall(*kernel_, pid_, op.inst->symbol, sys_args);
      if (op.dest != ir::kNoReg) regs[op.dest] = {r, Kind::Int};
      ++frame.ip;
      break;
    }
    case ir::Opcode::PrivRaise: {
      const caps::CapSet caps = op.inst->operands[0].caps_value();
      os::SysResult r = kernel_->priv_raise(pid_, caps);
      PA_CHECK(r.ok(), str::cat("priv_raise of non-permitted capability in @",
                                funcs_[frame.fn].fn->name(), " (",
                                caps.to_string(), ")"));
      ++frame.ip;
      break;
    }
    case ir::Opcode::PrivLower:
      kernel_->priv_lower(pid_, op.inst->operands[0].caps_value());
      ++frame.ip;
      break;
    case ir::Opcode::PrivRemove:
      kernel_->priv_remove(pid_, op.inst->operands[0].caps_value());
      ++frame.ip;
      break;
    default:  // a run cut short ends on a straight-line instruction
      compute(regs, op);
      ++frame.ip;
      break;
  }
}

}  // namespace pa::vm
