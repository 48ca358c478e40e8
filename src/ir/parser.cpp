#include "ir/parser.h"

#include <cctype>
#include <charconv>

#include "support/error.h"
#include "support/str.h"

namespace pa::ir {
namespace {

/// Cursor over one line of input.
class Cursor {
 public:
  Cursor(std::string_view s, int line) : s_(s), line_(line) {}

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) err(str::cat("expected '", c, "'"));
  }

  /// [A-Za-z0-9_.] word.
  std::string word() {
    skip_ws();
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '_' || s_[pos_] == '.'))
      ++pos_;
    if (pos_ == start) err("expected identifier");
    return std::string(s_.substr(start, pos_ - start));
  }

  std::int64_t integer() {
    skip_ws();
    std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    if (pos_ == start || (pos_ == start + 1 && !std::isdigit(
                              static_cast<unsigned char>(s_[start]))))
      err("expected integer");
    // from_chars takes a '-' sign but not a '+'; the scan above bounds the
    // digits, so only the range can fail.
    const char* first = s_.data() + start + (s_[start] == '+' ? 1 : 0);
    std::int64_t v = 0;
    if (std::from_chars(first, s_.data() + pos_, v).ec != std::errc{}) {
      pos_ = start;
      err("integer literal out of range");
    }
    return v;
  }

  std::string quoted() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          default: err(str::cat("bad escape \\", e));
        }
      } else {
        out += c;
      }
    }
    if (pos_ >= s_.size()) err("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[noreturn]] void err(std::string message) {
    throw ParseError(line_,
                     str::cat("parse error at line ", line_, ": ", message,
                              " near `", s_.substr(pos_), "`"));
  }

  int line() const { return line_; }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
  int line_;
};

Operand parse_operand(Cursor& c) {
  switch (c.peek()) {
    case '%': {
      c.expect('%');
      return Operand::reg(static_cast<int>(c.integer()));
    }
    case '"':
      return Operand::str(c.quoted());
    case '@': {
      c.expect('@');
      return Operand::func(c.word());
    }
    case '{': {
      c.expect('{');
      std::string names;
      while (c.peek() != '}' && c.peek() != '\0') {
        if (!names.empty()) names += ' ';
        if (c.peek() == ',') {
          c.expect(',');
          names += ',';
          continue;
        }
        if (c.peek() == '(') {  // "(empty)"
          c.expect('(');
          names += '(' + c.word();
          c.expect(')');
          names += ')';
          continue;
        }
        names += c.word();
      }
      c.expect('}');
      // Remove the spaces we inserted between words around commas.
      std::string squashed;
      for (char ch : names)
        if (ch != ' ') squashed += ch;
      auto set = caps::CapSet::parse(squashed);
      if (!set) c.err(str::cat("bad capability set {", squashed, "}"));
      return Operand::capset(*set);
    }
    default:
      return Operand::imm(c.integer());
  }
}

std::vector<Operand> parse_arg_list(Cursor& c) {
  std::vector<Operand> args;
  c.expect('(');
  if (c.peek() != ')') {
    args.push_back(parse_operand(c));
    while (c.consume(',')) args.push_back(parse_operand(c));
  }
  c.expect(')');
  return args;
}

Instruction parse_instruction(Cursor& c) {
  Instruction inst;
  if (c.peek() == '%') {
    c.expect('%');
    inst.dest = static_cast<int>(c.integer());
    c.expect('=');
  }
  std::string op_word = c.word();
  auto op = parse_opcode(op_word);
  if (!op) c.err(str::cat("unknown opcode '", op_word, "'"));
  inst.op = *op;

  switch (inst.op) {
    case Opcode::Call:
      c.expect('@');
      inst.symbol = c.word();
      inst.operands = parse_arg_list(c);
      break;
    case Opcode::CallInd: {
      Operand callee = parse_operand(c);
      if (callee.kind() != Operand::Kind::Reg)
        c.err("callind callee must be a register");
      std::vector<Operand> args = parse_arg_list(c);
      inst.operands.push_back(callee);
      for (Operand& a : args) inst.operands.push_back(std::move(a));
      break;
    }
    case Opcode::Syscall:
      inst.symbol = c.word();
      inst.operands = parse_arg_list(c);
      break;
    case Opcode::Br:
      inst.target_labels.push_back(c.word());
      break;
    case Opcode::CondBr:
      inst.operands.push_back(parse_operand(c));
      c.expect(',');
      inst.target_labels.push_back(c.word());
      c.expect(',');
      inst.target_labels.push_back(c.word());
      break;
    case Opcode::Ret:
      if (!c.at_end()) inst.operands.push_back(parse_operand(c));
      break;
    case Opcode::Unreachable:
    case Opcode::Nop:
      break;
    default: {
      if (!c.at_end()) {
        inst.operands.push_back(parse_operand(c));
        while (c.consume(',')) inst.operands.push_back(parse_operand(c));
      }
      break;
    }
  }
  if (!c.at_end()) c.err("trailing tokens after instruction");
  return inst;
}

}  // namespace

ParseError::ParseError(int line, std::string message)
    : Error(std::move(message)), line_(line) {}

Module parse(std::string_view text, std::string module_name) {
  Module module(std::move(module_name));
  Function* fn = nullptr;
  int cur_block = -1;

  int line_no = 0;
  for (std::string& raw : str::split(text, '\n', /*keep_empty=*/true)) {
    ++line_no;
    if (auto pos = raw.find(';'); pos != std::string::npos) raw.resize(pos);
    std::string_view line = str::trim(raw);
    if (line.empty()) continue;

    Cursor c(line, line_no);
    if (line.front() == '}') {
      if (!fn) c.err("'}' outside a function");
      fn = nullptr;
      cur_block = -1;
      continue;
    }
    if (str::starts_with(line, "func")) {
      std::string kw = c.word();
      if (kw != "func") c.err("expected 'func'");
      c.expect('@');
      std::string name = c.word();
      c.expect('(');
      int nparams = static_cast<int>(c.integer());
      c.expect(')');
      c.expect('{');
      fn = &module.add_function(std::move(name), nparams);
      cur_block = -1;
      continue;
    }
    if (line.back() == ':' && line.find(' ') == std::string_view::npos &&
        line.find('=') == std::string_view::npos) {
      if (!fn) c.err("label outside a function");
      cur_block = fn->add_block(std::string(line.substr(0, line.size() - 1)));
      continue;
    }
    if (!fn) c.err("instruction outside a function");
    if (cur_block < 0) c.err("instruction before first label");
    fn->block(cur_block).instructions.push_back(parse_instruction(c));
  }
  if (fn)
    throw ParseError(line_no,
                     str::cat("parse error at line ", line_no,
                              ": unterminated function at end of input"));

  module.resolve_labels();
  module.recompute_address_taken();
  return module;
}

std::optional<Module> try_parse(std::string_view text, std::string* error,
                                std::string module_name) {
  try {
    return parse(text, std::move(module_name));
  } catch (const Error& e) {
    if (error) *error = e.what();
    return std::nullopt;
  }
}

}  // namespace pa::ir
