// Printer/parser round-trip tests for the PrivIR text format.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "programs/world.h"

namespace pa::ir {
namespace {

using B = IRBuilder;
using caps::Capability;

/// print -> parse -> print must be a fixpoint.
void expect_roundtrip(const Module& m) {
  std::string once = print(m);
  Module parsed = parse(once, m.name());
  EXPECT_TRUE(verify(parsed).empty()) << once;
  std::string twice = print(parsed);
  EXPECT_EQ(once, twice);
}

TEST(RoundTripTest, MinimalFunction) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.ret(B::i(0));
  b.end_function();
  expect_roundtrip(m);
}

TEST(RoundTripTest, EveryOperandKind) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("callee", 2);
  b.ret(B::r(0));
  b.end_function();
  b.begin_function("main", 0);
  int x = b.mov(B::i(-42));
  int s = b.mov(B::s("path with \"quotes\" and \\slash\\ and\nnewline"));
  int fp = b.funcaddr("callee");
  b.call("callee", {B::r(x), B::r(s)});
  b.callind(B::r(fp), {B::i(1), B::s("a")});
  b.syscall("open", {B::s("/etc/shadow"), B::i(1)});
  b.priv_raise({Capability::Setuid, Capability::Chown});
  b.priv_lower({Capability::Setuid});
  b.priv_remove(caps::CapSet::full());
  b.ret(B::i(0));
  b.end_function();
  expect_roundtrip(m);
}

TEST(RoundTripTest, ControlFlow) {
  Module m("t");
  IRBuilder b(m);
  b.begin_function("main", 1);
  int c = b.cmp_lt(B::r(0), B::i(10));
  b.condbr(B::r(c), "less", "more");
  b.at("less");
  b.br("join");
  b.at("more");
  b.br("join");
  b.at("join");
  b.exit(B::i(0));
  b.end_function();
  expect_roundtrip(m);
}

TEST(RoundTripTest, AllProgramModels) {
  // The five evaluation programs plus refactored variants must survive the
  // text format.
  expect_roundtrip(programs::make_passwd().module);
  expect_roundtrip(programs::make_su().module);
  expect_roundtrip(programs::make_ping().module);
  expect_roundtrip(programs::make_thttpd().module);
  expect_roundtrip(programs::make_sshd().module);
  expect_roundtrip(programs::make_passwd_refactored().module);
  expect_roundtrip(programs::make_su_refactored().module);
}

TEST(ParserTest, CommentsAndBlankLines) {
  Module m = parse(R"(
; leading comment
func @main(0) {
entry:            ; trailing comment
  nop
  ret 0
}
)");
  EXPECT_TRUE(verify(m).empty());
  EXPECT_EQ(m.function("main").block(0).instructions.size(), 2u);
}

TEST(ParserTest, EmptyCapsSet) {
  Module m = parse(R"(
func @main(0) {
entry:
  priv_remove {(empty)}
  priv_remove {}
  ret 0
}
)");
  const auto& insts = m.function("main").block(0).instructions;
  EXPECT_TRUE(insts[0].operands[0].caps_value().empty());
  EXPECT_TRUE(insts[1].operands[0].caps_value().empty());
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  std::string err;
  EXPECT_FALSE(try_parse("func @main(0) {\nentry:\n  bogus_op 1\n}\n", &err));
  EXPECT_NE(err.find("line 3"), std::string::npos);
  EXPECT_NE(err.find("bogus_op"), std::string::npos);
  EXPECT_FALSE(try_parse(
      "func @main(0) {\nentry:\n  %0 = mov 9223372036854775808\n  ret 0\n}\n",
      &err));
  EXPECT_NE(err.find("line 3: integer literal out of range"),
            std::string::npos);
}

TEST(ParserTest, RejectsInstructionOutsideFunction) {
  std::string err;
  EXPECT_FALSE(try_parse("  nop\n", &err));
}

TEST(ParserTest, RejectsUnterminatedFunction) {
  std::string err;
  EXPECT_FALSE(try_parse("func @main(0) {\nentry:\n  ret 0\n", &err));
  EXPECT_NE(err.find("unterminated"), std::string::npos);
}

TEST(ParserTest, RejectsUnknownLabel) {
  std::string err;
  EXPECT_FALSE(
      try_parse("func @main(0) {\nentry:\n  br nowhere\n}\n", &err));
}

TEST(ParserTest, ParsesAddressTaken) {
  Module m = parse(R"(
func @h(0) {
entry:
  ret 0
}
func @main(0) {
entry:
  %0 = funcaddr @h
  %1 = callind %0()
  ret 0
}
)");
  EXPECT_TRUE(m.function("h").address_taken());
}

}  // namespace
}  // namespace pa::ir
