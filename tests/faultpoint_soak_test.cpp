// The fault-injection harness (support/faultpoint.h) and the soak test the
// robustness layer is built around: arm every registered fault point, one at
// a time, run the full load -> AutoPriv -> ChronoPriv -> ROSA pipeline, and
// require that it never crashes, never hangs, and always surfaces a
// structured diagnostic on the failed ProgramAnalysis.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "privanalyzer/pipeline.h"
#include "support/faultpoint.h"
#include "support/thread_pool.h"

namespace pa {
namespace {

using support::FaultInjected;
namespace fp = support::faultpoint;

class FaultPointTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::disarm_all(); }
  void TearDown() override { fp::disarm_all(); }
};

TEST_F(FaultPointTest, InertWhenUnarmed) {
  EXPECT_NO_THROW(fp::hit("rosa.search"));
  EXPECT_NO_THROW(fp::hit("never.registered"));
}

TEST_F(FaultPointTest, FiresOnceThenDisarms) {
  fp::arm("test.point");
  EXPECT_TRUE(fp::armed("test.point"));
  EXPECT_THROW(fp::hit("test.point"), FaultInjected);
  EXPECT_FALSE(fp::armed("test.point"));
  EXPECT_NO_THROW(fp::hit("test.point"));
}

TEST_F(FaultPointTest, FiresOnNthHitDeterministically) {
  fp::arm("test.nth", 3);
  EXPECT_NO_THROW(fp::hit("test.nth"));
  EXPECT_NO_THROW(fp::hit("test.nth"));
  EXPECT_THROW(fp::hit("test.nth"), FaultInjected);
}

TEST_F(FaultPointTest, CarriesStructuredDiagnostic) {
  fp::arm("rosa.search");
  try {
    fp::hit("rosa.search");
    FAIL() << "armed point did not fire";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.point(), "rosa.search");
    EXPECT_EQ(e.diagnostic().stage, support::Stage::Rosa);
    EXPECT_EQ(e.diagnostic().code, support::DiagCode::FaultInjected);
    EXPECT_NE(std::string(e.what()).find("rosa.search"), std::string::npos);
  }
}

TEST_F(FaultPointTest, RegistryListsEveryCompiledInPoint) {
  std::vector<std::string> points = fp::registered_points();
  for (const char* expected :
       {"loader.load_program", "verifier.verify", "world.make",
        "thread_pool.task", "rosa.search", "rosa.prove", "rosa.cache_load",
        "rosa.cache_store", "daemon.accept", "daemon.read", "daemon.write"})
    EXPECT_NE(std::find(points.begin(), points.end(), expected), points.end())
        << expected;
}

TEST_F(FaultPointTest, ArmsFromEnvironment) {
  ASSERT_EQ(setenv("PA_FAULTPOINTS", "test.env:2, test.other", 1), 0);
  EXPECT_EQ(fp::arm_from_env(), 2);
  EXPECT_TRUE(fp::armed("test.env"));
  EXPECT_TRUE(fp::armed("test.other"));
  EXPECT_NO_THROW(fp::hit("test.env"));  // armed for the 2nd hit
  EXPECT_THROW(fp::hit("test.env"), FaultInjected);
  EXPECT_THROW(fp::hit("test.other"), FaultInjected);
  unsetenv("PA_FAULTPOINTS");
}

TEST_F(FaultPointTest, RejectsMalformedEnvCounts) {
  ASSERT_EQ(setenv("PA_FAULTPOINTS", "test.bad:banana", 1), 0);
  EXPECT_THROW(fp::arm_from_env(), Error);
  unsetenv("PA_FAULTPOINTS");
}

// --- The soak test ---------------------------------------------------------

// The open keeps cells for the search: with setuid alone every cell would
// be proved (rosa.prove), and rosa.search would never fire. Under CapSetuid
// an open makes reading and writing /dev/mem reachable.
const char* kProgram = R"(
; !name: soakdemo
; !permitted: CapSetuid
; !args: 3, 4
func @main(2) {
entry:
  %3 = syscall setuid(1000)
  %4 = syscall open("/etc/passwd", 1)
  %2 = add %0, %1
  ret %2
}
)";

std::string write_soak_program() {
  std::string path = ::testing::TempDir() + "/soakdemo.pir";
  std::ofstream out(path);
  out << kProgram;
  return path;
}

TEST_F(FaultPointTest, SoakEveryPointIsolatedAndDiagnosed) {
  const std::string path = write_soak_program();
  privanalyzer::PipelineOptions opts;
  opts.rosa_limits.max_states = 10'000;
  // A persistent cache file makes the pipeline reach rosa.cache_load (a
  // missing file is a clean cold start, so the unarmed runs stay warning-free).
  // Remove any leftover from a previous run first: a warm cache would satisfy
  // the whole query matrix without ever reaching the armed rosa.search point.
  opts.rosa_cache_file = ::testing::TempDir() + "/soakdemo.rosa-cache";
  std::remove(opts.rosa_cache_file.c_str());

  for (const std::string& point : fp::registered_points()) {
    SCOPED_TRACE(point);
    // The daemon.* points sit on privanalyzerd's socket paths, and the
    // thread pool runs only privanalyzerd's workers, so the one-shot
    // pipeline reaches neither; tests/daemon_soak_test.cpp arms them under
    // live client connections instead, and ThreadPoolTaskFaultSurfacesOnCaller
    // below keeps the pool's capture-and-rethrow path.
    if (point.starts_with("daemon.") || point == "thread_pool.task") continue;
    fp::arm(point);
    privanalyzer::ProgramAnalysis a =
        privanalyzer::try_analyze_file(path, opts);
    if (point == "rosa.cache_store") {
      // Recoverable by design: one injected fault costs one persistent-file
      // I/O attempt, the bounded-backoff retry succeeds, and the analysis
      // completes clean (the point still fired — single-shot disarm).
      EXPECT_EQ(a.status, privanalyzer::AnalysisStatus::Ok);
      EXPECT_TRUE(a.diagnostics.empty());
      EXPECT_FALSE(fp::armed(point)) << "point never reached by the pipeline";
      // Drop the retried save's cache file so later iterations stay cold.
      std::remove(opts.rosa_cache_file.c_str());
      fp::disarm_all();
      continue;
    }
    // No crash (we are here), no hang (ctest would time out), and the
    // failure surfaced as a structured diagnostic naming the point.
    EXPECT_EQ(a.status, privanalyzer::AnalysisStatus::Failed);
    ASSERT_FALSE(a.diagnostics.empty());
    EXPECT_EQ(a.diagnostics[0].code, support::DiagCode::FaultInjected);
    EXPECT_NE(a.diagnostics[0].message.find(point), std::string::npos);
    // The armed point actually fired (single-shot arming disarms on fire).
    EXPECT_FALSE(fp::armed(point)) << "point never reached by the pipeline";
    fp::disarm_all();
  }

  // Sanity: with nothing armed the same pipeline succeeds.
  privanalyzer::ProgramAnalysis clean =
      privanalyzer::try_analyze_file(path, opts);
  EXPECT_EQ(clean.status, privanalyzer::AnalysisStatus::Ok);
  EXPECT_TRUE(clean.diagnostics.empty());
  EXPECT_EQ(clean.exit_code, 7);
}

// A worker-thread fault must be captured by the pool and surface on the
// caller, exactly like a task's own exception — never std::terminate.
TEST_F(FaultPointTest, ThreadPoolTaskFaultSurfacesOnCaller) {
  fp::arm("thread_pool.task");
  support::ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  EXPECT_THROW(pool.wait_idle(), FaultInjected);
  // The pool stays usable afterwards.
  int ran = 0;
  std::mutex mu;
  for (int i = 0; i < 4; ++i)
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ++ran;
    });
  pool.wait_idle();
  EXPECT_EQ(ran, 4);
}

}  // namespace
}  // namespace pa
