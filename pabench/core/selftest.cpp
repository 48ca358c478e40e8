// Self-tests for the benchmark's own helpers: tail-percentile selection,
// ratio-with-base, calibration arithmetic, span self time, and the
// expected-file parser. Build and run:
//
//   cmake -S pabench -B .bench_build
//   cmake --build .bench_build -j4 --target pabench_selftest
//   .bench_build/pabench_selftest
//
// Exits 0 when every check passes, 1 otherwise (each failure is printed).
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/expected.h"
#include "core/reference.h"
#include "core/spans.h"
#include "core/stats.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(near(pabench::percentile(v, 50), 50));
  CHECK(near(pabench::percentile(v, 90), 90));
  CHECK(near(pabench::percentile(v, 100), 100));
  CHECK(near(pabench::median({3, 1, 2}), 2));
  CHECK(near(pabench::median({}), 0));
}

void test_tail_selection() {
  using pabench::samples_beyond;
  using pabench::tail_percentile;
  CHECK(samples_beyond(1000, 99.9) == 1);
  CHECK(samples_beyond(1000, 99.0) == 10);
  CHECK(samples_beyond(10000, 99.9) == 10);
  // The highest percentile with at least ten samples beyond it.
  CHECK(tail_percentile(10000) == 99.9);
  CHECK(tail_percentile(9999) == 99.0);
  CHECK(tail_percentile(1000) == 99.0);
  CHECK(tail_percentile(999) == 95.0);
  CHECK(tail_percentile(200) == 95.0);
  CHECK(tail_percentile(100) == 90.0);
  CHECK(tail_percentile(99) == 75.0);
  CHECK(tail_percentile(40) == 75.0);
  CHECK(tail_percentile(39) == 50.0);
  CHECK(tail_percentile(20) == 50.0);
  CHECK(!tail_percentile(19).has_value());
  CHECK(!tail_percentile(0).has_value());
  // A workload keeps its fixed percentile while the rule holds, and steps
  // down the ladder (or to the maximum) when a short run cannot support it.
  CHECK(pabench::reported_tail_percentile(400, 95.0) == 95.0);
  CHECK(pabench::reported_tail_percentile(5000, 95.0) == 95.0);
  CHECK(pabench::reported_tail_percentile(150, 95.0) == 90.0);
  CHECK(pabench::reported_tail_percentile(5, 95.0) == 100.0);
}

void test_ratio_with_base() {
  pabench::Ratio r = pabench::ratio_with_base(3, 4);
  CHECK(near(r.value, 0.75));
  CHECK(r.num == 3 && r.base == 4);
  r = pabench::ratio_with_base(0, 0);
  CHECK(near(r.value, 0.0));
  CHECK(r.base == 0);
  CHECK(near(pabench::ratio_with_base(7, 7).value, 1.0));
}

void test_calibration() {
  using pabench::calibrate;
  using pabench::kReferenceNominalMs;
  // At nominal reference speed an op reads as measured; when the reference
  // around it takes twice as long, the op is halved.
  CHECK(near(calibrate(100, kReferenceNominalMs, kReferenceNominalMs), 100));
  CHECK(near(calibrate(100, 2 * kReferenceNominalMs,
                          2 * kReferenceNominalMs),
             50));
  // The two sides are averaged.
  CHECK(near(calibrate(90, kReferenceNominalMs, 2 * kReferenceNominalMs),
             60));
  // A missing reference leaves the latency as measured.
  CHECK(near(calibrate(7, 0, kReferenceNominalMs), 7));
  CHECK(near(calibrate(7, kReferenceNominalMs, -1), 7));
  // The reference itself does work.
  CHECK(pabench::time_reference_ms() > 0);
}

void test_self_time() {
  using pabench::Span;
  // root [0,100] with nested child a [10,40] (grandchild [15,25]) and
  // child b [60,70]: root self = 100 - 30 - 10, a self = 30 - 10.
  std::vector<Span> nested = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"a.inner", 15, 25, 1, 1},
      {"b", 60, 70, 0, 1},
  };
  std::vector<std::int64_t> self = pabench::self_times(nested);
  CHECK(self[0] == 60);
  CHECK(self[1] == 20);
  CHECK(self[2] == 10);
  CHECK(self[3] == 10);

  // Overlapping children count their union once: [10,50] and [30,80] cover
  // 70; a child sticking out of the parent is clipped to [90,100].
  std::vector<Span> overlapping = {
      {"job", 0, 100, -1, 7},
      {"submit", 10, 50, 0, 7},
      {"queue_wait", 30, 80, 0, 7},
      {"late", 90, 120, 0, 7},
  };
  self = pabench::self_times(overlapping);
  CHECK(self[0] == 100 - 70 - 10);
  CHECK(self[1] == 40);

  // A child identical to its parent leaves zero self time.
  std::vector<Span> full = {{"p", 5, 9, -1, 0}, {"c", 5, 9, 0, 0}};
  CHECK(pabench::self_times(full)[0] == 0);
}

const char* kGood =
    "# comment\n"
    "program passwd exit 0\n"
    "epoch passwd_priv1 2609 VVxV   # trailing comment\n"
    "epoch passwd_priv2 40 xxxx\n"
    "vulnerable 100.00 99.94 0.00 63.11\n"
    "\n"
    "program ping exit 0\n"
    "epoch ping_priv1 14000 xxTx\n"
    "vulnerable 0 0 0 0\n";

void test_expected_parse() {
  pabench::ExpectedFile f = pabench::parse_expected(kGood);
  CHECK(f.size() == 2);
  const pabench::ExpectedProgram& p = f.at("passwd");
  CHECK(p.exit_code == 0);
  CHECK(p.epochs.size() == 2);
  CHECK(p.epochs[0].instructions == 2609);
  CHECK(p.epochs[0].verdicts == "VVxV");
  CHECK(near(p.vulnerable_pct[3], 63.11));

  pabench::ProgramOutcome got;
  got.exit_code = 0;
  got.epochs = p.epochs;
  got.vulnerable_fraction = {1.0, 0.99941, 0.0, 0.631149};
  CHECK(pabench::check_outcome(p, got).empty());
  got.vulnerable_fraction[3] = 0.631151;  // rounds to 63.12%
  CHECK(!pabench::check_outcome(p, got).empty());
  got.vulnerable_fraction[3] = 0.6311;
  got.epochs[1].verdicts = "Vxxx";
  CHECK(!pabench::check_outcome(p, got).empty());
  got.epochs[1].verdicts = "xxxx";
  got.exit_code = 1;
  CHECK(!pabench::check_outcome(p, got).empty());
}

bool rejects(const char* text) {
  try {
    pabench::parse_expected(text);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

void test_expected_rejects_malformed() {
  CHECK(rejects(""));
  CHECK(rejects("bogus line\n"));
  CHECK(rejects("epoch e 1 VVVV\n"));                       // no program yet
  CHECK(rejects("program p exit\n"));                       // missing code
  CHECK(rejects("program p exit x\nepoch e 1 VVVV\nvulnerable 0 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVV\nvulnerable 0 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVvV\nvulnerable 0 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e -4 VVVV\nvulnerable 0 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e 1.5 VVVV\nvulnerable 0 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 101\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 1.234\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\n"));     // no vulnerable
  CHECK(rejects("program p exit 0\nvulnerable 0 0 0 0\n"));  // no epoch
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 0\n"
                "vulnerable 0 0 0 0\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 0\n"
                "epoch f 1 VVVV\n"));
  CHECK(rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 0\n"
                "program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 0\n"));
  CHECK(!rejects("program p exit 0\nepoch e 1 VVVV\nvulnerable 0 0 0 0"));
}

void test_filtered_monotone() {
  pabench::ProgramOutcome base, filt;
  base.epochs = {{"e1", 10, "VVxV"}, {"e2", 10, "xxxx"}};
  base.vulnerable_fraction = {0.5, 0.5, 0.0, 0.5};
  filt.epochs = {{"e1", 10, "VxxV"}, {"e2", 10, "xxxx"}};
  filt.vulnerable_fraction = {0.5, 0.0, 0.0, 0.5};
  CHECK(pabench::check_filtered_monotone(base, filt).empty());
  filt.epochs[1].verdicts = "xxVx";
  CHECK(!pabench::check_filtered_monotone(base, filt).empty());
  filt.epochs[1].verdicts = "xxxx";
  filt.vulnerable_fraction[0] = 0.6;
  CHECK(!pabench::check_filtered_monotone(base, filt).empty());
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_selection();
  test_ratio_with_base();
  test_calibration();
  test_self_time();
  test_expected_parse();
  test_expected_rejects_malformed();
  test_filtered_monotone();
  if (g_failures) {
    std::printf("%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("pabench self-test: all checks passed\n");
  return 0;
}
