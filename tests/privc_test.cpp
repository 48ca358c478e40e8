// Tests for the PrivC frontend: lexing, parsing, code generation, execution
// semantics, and end-to-end use through the loader and pipeline.
#include <gtest/gtest.h>

#include "privanalyzer/loader.h"
#include "privanalyzer/pipeline.h"
#include "privc/codegen.h"
#include "privc/parser.h"
#include "support/error.h"
#include "vm/interpreter.h"

namespace pa::privc {
namespace {

long run_main(const ir::Module& m, std::vector<ir::RtValue> args = {},
              caps::CapSet permitted = {}, os::Kernel* kernel = nullptr) {
  os::Kernel local;
  os::Kernel& k = kernel ? *kernel : local;
  os::Pid p = k.spawn("p", caps::Credentials::of_user(1000, 1000), permitted);
  vm::Interpreter interp(k, m, p);
  return interp.run("main", std::move(args));
}

TEST(LexerTest, TokensAndLines) {
  auto toks = lex("fn main() {\n  var x = 42; // comment\n}");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::KwFn);
  EXPECT_EQ(toks[1].kind, Tok::Ident);
  EXPECT_EQ(toks[1].text, "main");
  EXPECT_EQ(toks.back().kind, Tok::Eof);
  // Line numbers advance.
  bool saw_line2 = false;
  for (const Token& t : toks) saw_line2 |= t.line == 2 && t.kind == Tok::KwVar;
  EXPECT_TRUE(saw_line2);
}

TEST(LexerTest, CapabilityNamesAreTokens) {
  auto toks = lex("CapSetuid CAP_CHOWN notacap");
  EXPECT_EQ(toks[0].kind, Tok::CapName);
  EXPECT_EQ(toks[1].kind, Tok::CapName);
  EXPECT_EQ(toks[2].kind, Tok::Ident);
}

TEST(LexerTest, OctalAndStringLiterals) {
  auto toks = lex("0644 644 \"a b\\n\"");
  EXPECT_EQ(toks[0].number, 0644);
  EXPECT_EQ(toks[1].number, 644);
  EXPECT_EQ(toks[2].text, "a b\n");
}

TEST(LexerTest, Errors) {
  EXPECT_THROW(lex("fn main() { @ }"), Error);
  EXPECT_THROW(lex("\"unterminated"), Error);
  // A literal with a leading 0 is octal, and every literal fits int64.
  EXPECT_THROW(lex("var x = 0778;"), Error);
  EXPECT_THROW(lex("var x = 9223372036854775808;"), Error);
  try {
    lex("fn main() {\n  var x = 09;\n}");
    ADD_FAILURE() << "09 lexed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "line 2: invalid digit '9' in octal literal"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParserTest, Structure) {
  Program p = parse(R"(
fn helper(a, b) { return a + b; }
fn main() {
  var x = helper(1, 2);
  if (x == 3) { exit(0); } else { exit(1); }
}
)");
  ASSERT_EQ(p.functions.size(), 2u);
  EXPECT_EQ(p.functions[0].name, "helper");
  EXPECT_EQ(p.functions[0].params.size(), 2u);
  ASSERT_EQ(p.functions[1].body.size(), 2u);
  EXPECT_EQ(p.functions[1].body[1]->kind, StmtKind::If);
  EXPECT_FALSE(p.functions[1].body[1]->else_body.empty());
}

TEST(ParserTest, PrecedenceShape) {
  Program p = parse("fn main() { var x = 1 + 2 * 3 < 10 && 1; }");
  const Expr& e = *p.functions[0].body[0]->expr;
  ASSERT_EQ(e.kind, ExprKind::Binary);
  EXPECT_EQ(e.op, Tok::AndAnd);           // && binds loosest
  EXPECT_EQ(e.lhs->op, Tok::Lt);          // then comparison
  EXPECT_EQ(e.lhs->lhs->op, Tok::Plus);   // then +
  EXPECT_EQ(e.lhs->lhs->rhs->op, Tok::Star);  // * tightest
}

TEST(ParserTest, Errors) {
  EXPECT_THROW(parse("fn main( { }"), Error);
  EXPECT_THROW(parse("fn main() { var = 1; }"), Error);
  EXPECT_THROW(parse("fn main() { if 1 { } }"), Error);
  EXPECT_THROW(parse("fn main() { with_priv (notacap) { } }"), Error);
}

TEST(CodegenTest, ArithmeticSemantics) {
  ir::Module m = compile_source(R"(
fn main() {
  var x = 2 + 3 * 4;         // 14
  var y = (2 + 3) * 4;       // 20
  var z = -x + y / 2;        // -14 + 10 = -4
  return x + y + z;          // 30
}
)", "t");
  EXPECT_EQ(run_main(m), 30);
}

TEST(CodegenTest, ControlFlowSemantics) {
  ir::Module m = compile_source(R"(
fn collatz_steps(n) {
  var steps = 0;
  while (n != 1) {
    var half = n / 2;
    if (half * 2 == n) { n = half; } else { n = 3 * n + 1; }
    steps = steps + 1;
  }
  return steps;
}
fn main() { return collatz_steps(6); }
)", "t");
  EXPECT_EQ(run_main(m), 8);  // 6 3 10 5 16 8 4 2 1
}

TEST(CodegenTest, EarlyReturnAndDeadCode) {
  ir::Module m = compile_source(R"(
fn main() {
  if (1) { return 7; }
  return 8;
}
)", "t");
  EXPECT_EQ(run_main(m), 7);
}

TEST(CodegenTest, LogicalAndComparison) {
  ir::Module m = compile_source(R"(
fn main() {
  var a = 1 && 0;
  var b = 1 || 0;
  var c = !0;
  var d = 5 >= 5;
  return a * 1000 + b * 100 + c * 10 + d;
}
)", "t");
  EXPECT_EQ(run_main(m), 111);
}

TEST(CodegenTest, SyscallsAndPrivileges) {
  ir::Module m = compile_source(R"(
fn main() {
  var fd = open("/etc/shadow", 1);
  if (fd >= 0) { exit(2); }        // must be denied unprivileged
  with_priv (CapDacReadSearch) {
    fd = open("/etc/shadow", 1);
  }
  if (fd < 0) { exit(3); }
  priv_remove(CapDacReadSearch);
  exit(0);
}
)", "t");
  os::Kernel k;
  k.vfs().add_file("/etc/shadow", os::FileMeta{0, 42, os::Mode(0640)}, "s");
  EXPECT_EQ(run_main(m, {}, {caps::Capability::DacReadSearch}, &k), 0);
}

TEST(CodegenTest, IndirectCallsViaFuncref) {
  ir::Module m = compile_source(R"(
fn double(x) { return x + x; }
fn main() {
  var f = funcref(double);
  return f(21);
}
)", "t");
  EXPECT_EQ(run_main(m), 42);
  // The callee is address-taken (visible to AutoPriv's call graph).
  EXPECT_TRUE(m.function("double").address_taken());
}

TEST(CodegenTest, CallsToFunctionsDefinedLater) {
  ir::Module m = compile_source(R"(
fn main() { return helper(3) + is_even(10) * 10; }
fn helper(x) { return x * 2; }
fn is_even(n) { if (n == 0) { return 1; } return is_odd(n - 1); }
fn is_odd(n) { if (n == 0) { return 0; } return is_even(n - 1); }
)", "t");
  EXPECT_EQ(run_main(m), 16);
}

TEST(CodegenTest, Errors) {
  EXPECT_THROW(compile_source("fn main() { return y; }", "t"), Error);
  EXPECT_THROW(compile_source("fn main() { y = 1; }", "t"), Error);
  EXPECT_THROW(compile_source("fn main() { frobnicate(); }", "t"), Error);
  EXPECT_THROW(compile_source("fn f(a) {} fn main() { f(); }", "t"), Error);
  EXPECT_THROW(compile_source("fn main() { var x = 1; var x = 2; }", "t"),
               Error);
  EXPECT_THROW(compile_source("fn f() {} fn f() {}", "t"), Error);
  EXPECT_THROW(
      compile_source("fn main() { with_priv (CapSetuid) { return 1; } }",
                     "t"),
      Error);
}

TEST(LoaderTest, PrivcProgramThroughPipeline) {
  const char* src = R"(
// !name: pcdemo
// !permitted: CapDacReadSearch
// !uid: 1000
// !gid: 1000
fn read_secret() {
  with_priv (CapDacReadSearch) {
    var fd = open("/etc/shadow", 1);
    read(fd, 64);
    close(fd);
  }
  return 0;
}
fn main() {
  read_secret();
  var i = 0;
  while (i < 50) { i = i + 1; }
  exit(0);
}
)";
  programs::ProgramSpec spec = privanalyzer::load_privc_program(src);
  EXPECT_EQ(spec.name, "pcdemo");
  privanalyzer::ProgramAnalysis a = privanalyzer::analyze_program(spec);
  EXPECT_EQ(a.exit_code, 0);
  ASSERT_EQ(a.chrono.rows.size(), 2u);
  // Epoch 1 holds the capability briefly; the loop runs with nothing.
  EXPECT_EQ(a.chrono.rows[0].key.permitted,
            caps::CapSet{caps::Capability::DacReadSearch});
  EXPECT_TRUE(a.chrono.rows[1].key.permitted.empty());
  EXPECT_GT(a.chrono.rows[1].fraction, 0.7);
  // And the verdicts follow: epoch 1 readable-devmem, epoch 2 safe.
  EXPECT_EQ(a.verdicts[0].verdicts[0], attacks::CellVerdict::Vulnerable);
  EXPECT_EQ(a.verdicts[1].verdicts[0], attacks::CellVerdict::Safe);
}

}  // namespace
}  // namespace pa::privc
