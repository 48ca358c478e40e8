// Tests for the VM function profiler.
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "programs/world.h"
#include "vm/profiler.h"

namespace pa {
namespace {

using ir::IRBuilder;
using B = IRBuilder;

TEST(ProfilerTest, AttributesInstructionsToFunctions) {
  ir::Module m("t");
  IRBuilder b(m);
  b.begin_function("helper", 0);
  b.nop(9);
  b.ret(B::i(0));  // 10 instructions per call
  b.end_function();
  b.begin_function("main", 0);
  b.call("helper", {});
  b.call("helper", {});
  b.ret(B::i(0));  // 3 instructions in main
  b.end_function();

  os::Kernel k;
  os::Pid p = k.spawn("p", caps::Credentials::of_user(1000, 1000), {});
  vm::FunctionProfiler prof;
  vm::Interpreter interp(k, m, p);
  interp.set_tracer(&prof);
  interp.run("main");

  auto entries = prof.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].function, "helper");
  EXPECT_EQ(entries[0].instructions, 20u);
  EXPECT_EQ(entries[1].function, "main");
  EXPECT_EQ(entries[1].instructions, 3u);
  EXPECT_EQ(prof.total(), 23u);
  EXPECT_NEAR(entries[0].fraction + entries[1].fraction, 1.0, 1e-9);
  EXPECT_NE(prof.to_string().find("@helper"), std::string::npos);
}

TEST(ProfilerTest, MultiTracerFansOut) {
  ir::Module m("t");
  IRBuilder b(m);
  b.begin_function("main", 0);
  b.nop(4);
  b.ret(B::i(0));
  b.end_function();

  os::Kernel k;
  os::Pid p = k.spawn("p", caps::Credentials::of_user(1000, 1000), {});
  vm::FunctionProfiler prof1, prof2;
  vm::MultiTracer multi({&prof1, &prof2});
  vm::Interpreter interp(k, m, p);
  interp.set_tracer(&multi);
  interp.run("main");
  EXPECT_EQ(prof1.total(), 5u);
  EXPECT_EQ(prof2.total(), 5u);
}

TEST(ProfilerTest, ProgramModelsSpendTimeWhereExpected) {
  // sshd's dynamic instructions overwhelmingly belong to @main (the
  // connection loop); the handler never runs, the dispatch is tiny.
  programs::ProgramSpec spec = programs::make_ping();
  os::Kernel k = programs::make_standard_world();
  os::Pid pid = programs::spawn_program(k, spec);
  vm::FunctionProfiler prof;
  vm::Interpreter interp(k, spec.module, pid);
  interp.set_tracer(&prof);
  interp.run("main", spec.args);
  auto entries = prof.entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].function, "main");
  EXPECT_GT(entries[0].fraction, 0.99);
}

TEST(ProfilerTest, ResetClears) {
  vm::FunctionProfiler prof;
  ir::Function f("x", 0);
  os::Kernel k;
  os::Pid p = k.spawn("p", caps::Credentials::of_user(1000, 1000), {});
  prof.on_instruction(k.process(p), f);
  prof.reset();
  EXPECT_EQ(prof.total(), 0u);
  EXPECT_TRUE(prof.entries().empty());
}

}  // namespace
}  // namespace pa
