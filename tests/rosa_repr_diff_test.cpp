// Differential test for the state-representation refactor: the full
// Table-III query matrix (5 programs x epochs x 4 attacks, 96 queries) must
// produce bit-identical fingerprints, verdicts, work counters, witnesses,
// and vulnerable-fractions to the goldens captured from the seed build
// (tests/golden/rosa_table3_seed.txt), uncached and cached. The searches
// run with SearchLimits::check_hashes, so every incrementally maintained
// digest is cross-checked against a from-scratch State::full_hash() along
// the way.
//
// The golden's counter columns record the search loop's goal probe. Its
// fingerprint, verdict and witness columns are vouched for independently:
// each must equal what the probe-free reference loop
// (tests/reference_search.h) returns for that query.
//
// The golden matrix machinery (build_matrix, table3_limits, render_line,
// load_golden) is shared with the other differential suites via
// rosa_test_util.h.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "reference_search.h"
#include "rosa/cache.h"
#include "rosa_test_util.h"
#include "support/str.h"

namespace pa {
namespace {

using rosa_test::Golden;
using rosa_test::Matrix;

void expect_matches_golden(bool cached) {
  const Golden golden = rosa_test::load_golden();
  ASSERT_EQ(golden.qlines.size(), 96u) << "golden file out of shape";
  const Matrix m = rosa_test::build_matrix();
  ASSERT_EQ(m.queries.size(), golden.qlines.size());

  const rosa::SearchLimits limits = rosa_test::table3_limits();
  rosa::QueryCache cache;
  std::vector<rosa::SearchResult> results =
      rosa::run_queries(m.queries, limits, cached ? &cache : nullptr);
  for (std::size_t i = 0; i < m.queries.size(); ++i)
    EXPECT_EQ(rosa_test::render_line(m.queries[i], results[i], limits),
              golden.qlines[i])
        << m.labels[i] << " (cached=" << cached << ")";
}

TEST(ReprDiffTest, SerialUncachedMatchesSeedGoldens) {
  expect_matches_golden(false);
}

TEST(ReprDiffTest, SerialCachedMatchesSeedGoldens) {
  expect_matches_golden(true);
}

/// A golden q-line without its counter columns: fingerprint, verdict,
/// witness length and witness.
std::string verdict_columns(const std::string& qline) {
  const std::vector<std::string> f = str::split(qline, ' ');
  std::string out = str::cat(f[1], " ", f[2]);
  for (std::size_t i = 7; i < f.size(); ++i) out += " " + f[i];
  return out;
}

TEST(ReprDiffTest, GoldenVerdictsMatchTheProbeFreeReference) {
  const Golden golden = rosa_test::load_golden();
  const Matrix m = rosa_test::build_matrix();
  ASSERT_EQ(m.queries.size(), golden.qlines.size());
  const rosa::SearchLimits limits = rosa_test::table3_limits();
  for (std::size_t i = 0; i < m.queries.size(); ++i)
    EXPECT_EQ(verdict_columns(rosa_test::render_line(
                  m.queries[i], rosa::reference::search(m.queries[i], limits),
                  limits)),
              verdict_columns(golden.qlines[i]))
        << m.labels[i];
}

TEST(ReprDiffTest, VulnerableFractionsMatchSeedGoldens) {
  const Golden golden = rosa_test::load_golden();
  ASSERT_EQ(golden.fractions.size(), 5u) << "golden file out of shape";

  privanalyzer::PipelineOptions full;
  full.rosa_limits = rosa_test::table3_limits();
  std::vector<privanalyzer::ProgramAnalysis> analyses =
      privanalyzer::analyze_baseline(full);
  ASSERT_EQ(analyses.size(), golden.fractions.size());
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const privanalyzer::ProgramAnalysis& a = analyses[i];
    std::string line = str::cat("f ", a.program);
    for (std::size_t atk = 0; atk < 4; ++atk)
      line += str::cat(" ", str::fixed(a.vulnerable_fraction(atk), 6));
    EXPECT_EQ(line, golden.fractions[i]);
  }
}

}  // namespace
}  // namespace pa
