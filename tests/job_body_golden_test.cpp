// The daemon's job bodies, byte for byte: daemon::render_job_result for the
// Table-II builtins at JobRequest defaults, the two refactored programs with
// filters = report, and one failed job that carries a diagnostic, against
// tests/golden/job_bodies.txt. Each body must also survive the Result
// frame's PAD1 escaping unchanged (ResultMsg::to_frame -> from_frame), and
// a failed job's status line carries its Result frame's exit code.
//
// The golden holds one `=== <label>` line per job followed by its body.
// Regenerate it only for a deliberate change of the body format, from
// `pa_client submit` per job or a small program that prints
// render_all()'s bodies in the same format.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "daemon/job.h"
#include "daemon/proto.h"
#include "privanalyzer/pipeline.h"
#include "programs/world.h"

namespace pa::daemon {
namespace {

using Bodies = std::vector<std::pair<std::string, std::string>>;

constexpr std::string_view kHeader = "=== ";

std::string builtin_body(const std::string& name) {
  JobRequest req;
  req.kind = "builtin";
  req.source = name;
  return run_job(req, nullptr, nullptr, 0).body;
}

std::string refactored_body(const programs::ProgramSpec& spec) {
  JobRequest req;
  req.filters = "report";
  return render_job_result(privanalyzer::try_analyze_program(
      spec, make_pipeline_options(req, nullptr, nullptr, 0)));
}

Bodies render_all() {
  Bodies out;
  for (const char* name : {"passwd", "su", "ping", "thttpd", "sshd"})
    out.emplace_back(std::string("builtin:") + name, builtin_body(name));
  out.emplace_back("passwdRef filters=report",
                   refactored_body(programs::make_passwd_refactored()));
  out.emplace_back("suRef filters=report",
                   refactored_body(programs::make_su_refactored()));
  out.emplace_back("builtin:nosuch", builtin_body("nosuch"));
  return out;
}

Bodies load_golden() {
  const std::string path =
      std::string(PA_SOURCE_DIR) + "/tests/golden/job_bodies.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  Bodies out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(kHeader, 0) == 0) {
      out.emplace_back(line.substr(kHeader.size()), "");
      continue;
    }
    EXPECT_FALSE(out.empty()) << "body line before any header: " << line;
    if (!out.empty()) out.back().second += line + "\n";
  }
  return out;
}

TEST(JobBodyGoldenTest, BodiesMatchTheGoldenByteForByte) {
  const Bodies got = render_all();
  const Bodies want = load_golden();
  ASSERT_EQ(got.size(), want.size()) << "golden file out of shape";
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    // Every body ends its last line, so the golden's line split is exact.
    ASSERT_FALSE(got[i].second.empty()) << got[i].first;
    EXPECT_EQ(got[i].second.back(), '\n') << got[i].first;
    EXPECT_EQ(got[i].second, want[i].second) << got[i].first;
  }
}

// A job whose program faults mid-run (INT64_MIN / -1) fails inside the
// pipeline rather than before it, and its body's status line carries the
// exit code its Result frame does, as builtin:nosuch's does in the golden.
TEST(JobBodyGoldenTest, AJobThatFaultsMidRunReportsItsFramesExitCode) {
  JobRequest req;
  req.kind = "pir";
  req.source =
      "; !name: overflow\nfunc @main(0) {\nentry:\n"
      "  %0 = div -9223372036854775808, -1\n  ret %0\n}\n";
  const JobOutcome out = run_job(req, nullptr, nullptr, 0);
  EXPECT_EQ(out.state, JobState::Failed);
  EXPECT_EQ(out.exit_code, privanalyzer::kExitAllFailed);
  const std::string head = "program overflow\nstatus failed exit 1\n";
  EXPECT_EQ(out.body.substr(0, head.size()), head) << out.body;
}

TEST(JobBodyGoldenTest, BodiesSurviveTheResultFrame) {
  for (const auto& [label, body] : load_golden()) {
    const ResultMsg back =
        ResultMsg::from_frame(ResultMsg{7, "done", 0, body}.to_frame());
    EXPECT_EQ(back.body, body) << label;
    EXPECT_EQ(back.job_id, 7u);
    EXPECT_EQ(back.state, "done");
  }
}

}  // namespace
}  // namespace pa::daemon
