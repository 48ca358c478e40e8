// Tests for the support utilities (error handling, string helpers) and the
// new epoch timeline / multi-process ROSA behaviours.
#include <gtest/gtest.h>

#include <cfloat>
#include <climits>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string_view>
#include <vector>

#include "chronopriv/epoch.h"
#include "rosa/query.h"
#include "support/error.h"
#include "support/str.h"

namespace pa {
namespace {

TEST(ErrorTest, FailThrowsWithMessage) {
  try {
    fail("boom");
    FAIL() << "fail() returned";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(ErrorTest, CheckMacroCarriesLocation) {
  try {
    PA_CHECK(1 == 2, "math broke");
    FAIL() << "check passed";
  } catch (const Error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("math broke"), std::string::npos);
  }
}

TEST(StrTest, Split) {
  EXPECT_EQ(str::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(str::split("a,,c", ','), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(str::split("a,,c", ',', /*keep_empty=*/true),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_TRUE(str::split("", ',').empty());
  EXPECT_EQ(str::split(",", ',', true), (std::vector<std::string>{"", ""}));
}

TEST(StrTest, TrimAndStartsWith) {
  EXPECT_EQ(str::trim("  x  "), "x");
  EXPECT_EQ(str::trim("\t\n"), "");
  EXPECT_EQ(str::trim(""), "");
  EXPECT_TRUE(str::starts_with("hello", "he"));
  EXPECT_FALSE(str::starts_with("he", "hello"));
}

TEST(StrTest, JoinAndCat) {
  EXPECT_EQ(str::join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(str::join({}, ", "), "");
  EXPECT_EQ(str::cat("x=", 42, ", y=", 3.0), "x=42, y=3");
}

// str::cat and str::fixed against the stream rendering they replaced: cat
// was every argument through one default ostringstream, fixed was
// std::fixed << std::setprecision(d).

template <typename... Args>
std::string streamed(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

std::string streamed_fixed(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

template <typename T>
void expect_integers_stream_alike(const char* type) {
  using L = std::numeric_limits<T>;
  std::vector<T> values = {T(0), T(1), L::min(), L::max()};
  if constexpr (L::is_signed) values.push_back(T(-1));
  for (T v : values) {
    EXPECT_EQ(str::cat(v), streamed(v)) << type << " " << +v;
    EXPECT_EQ(str::cat("[", v, "]"), streamed("[", v, "]")) << type << " " << +v;
  }
}

enum Unscoped { kUnscopedZero, kUnscopedSeven = 7 };

struct Streamable {
  int x;
  int y;
};

std::ostream& operator<<(std::ostream& os, const Streamable& p) {
  return os << '<' << p.x << ';' << p.y << '>';
}

std::vector<double> double_corpus() {
  return {0.1,
          1e-7,
          1e21,
          -0.0,
          0.0,
          std::numeric_limits<double>::denorm_min(),
          DBL_MAX,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          // Exact binary ties at some precision, and ordinary fractions.
          0.125,
          2.5,
          -1.5,
          0.9894,
          1.0 / 3.0,
          123456.789};
}

TEST(StrCatDiffTest, IntegersMatchTheStream) {
  expect_integers_stream_alike<bool>("bool");
  expect_integers_stream_alike<char>("char");
  expect_integers_stream_alike<signed char>("signed char");
  expect_integers_stream_alike<unsigned char>("unsigned char");
  expect_integers_stream_alike<std::uint8_t>("uint8_t");
  expect_integers_stream_alike<std::int8_t>("int8_t");
  expect_integers_stream_alike<short>("short");
  expect_integers_stream_alike<unsigned short>("unsigned short");
  expect_integers_stream_alike<int>("int");
  expect_integers_stream_alike<unsigned>("unsigned");
  expect_integers_stream_alike<long>("long");
  expect_integers_stream_alike<unsigned long>("unsigned long");
  expect_integers_stream_alike<long long>("long long");
  expect_integers_stream_alike<unsigned long long>("unsigned long long");
  expect_integers_stream_alike<std::size_t>("size_t");
  expect_integers_stream_alike<std::ptrdiff_t>("ptrdiff_t");
}

TEST(StrCatDiffTest, StringsCharsAndOthersMatchTheStream) {
  const char* c_string = "c-string";
  char buffer[] = "buffer";
  const std::string std_string = "std::string";
  const std::string_view with_nul("a\0b", 3);
  EXPECT_EQ(str::cat(c_string, buffer, std_string, with_nul, "literal", 'c'),
            streamed(c_string, buffer, std_string, with_nul, "literal", 'c'));
  EXPECT_EQ(str::cat(with_nul), std::string("a\0b", 3));
  EXPECT_EQ(str::cat(std::string(), std::string_view(), ""), "");
  EXPECT_EQ(str::cat(), "");

  EXPECT_EQ(str::cat(kUnscopedZero, kUnscopedSeven),
            streamed(kUnscopedZero, kUnscopedSeven));
  EXPECT_EQ(str::cat(Streamable{3, -4}), "<3;-4>");
  EXPECT_EQ(str::cat("p=", Streamable{0, 1}, ' ', 2),
            streamed("p=", Streamable{0, 1}, ' ', 2));

  for (double v : double_corpus()) {
    EXPECT_EQ(str::cat(v), streamed(v)) << streamed(v);
    EXPECT_EQ(str::cat(static_cast<float>(v)), streamed(static_cast<float>(v)));
    EXPECT_EQ(str::cat("v=", v, ";", 1, true), streamed("v=", v, ";", 1, true));
  }
  EXPECT_EQ(str::cat("x=", 42, ", y=", 3.0), "x=42, y=3");
}

TEST(StrCatTest, NullCStringAppendsNothing) {
  const char* null = nullptr;
  EXPECT_EQ(str::cat("a", null, "b", 7), "ab7");
  std::string out = "kept";
  str::append(out, null);
  EXPECT_EQ(out, "kept");
}

TEST(StrCatTest, AppendExtendsInPlace) {
  std::string out = "epoch ";
  str::append(out, "e1", ' ', 42u, " fraction=", str::fixed(0.5, 6), '\n');
  EXPECT_EQ(out, "epoch e1 42 fraction=0.500000\n");
}

TEST(StrFixedDiffTest, FixedMatchesTheStreamAtEveryPrecision) {
  std::vector<double> values = double_corpus();
  values.push_back(1e300);  // too long for the fast path's buffer
  std::mt19937_64 rng(25);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 2000; ++i) values.push_back(unit(rng));
  for (double v : values)
    for (int d = 0; d <= 9; ++d)
      EXPECT_EQ(str::fixed(v, d), streamed_fixed(v, d))
          << "d=" << d << " v=" << std::hexfloat << v;
  EXPECT_EQ(str::fixed(0.5, -1), streamed_fixed(0.5, -1));
  EXPECT_EQ(str::fixed(1.0 / 3.0, 40), streamed_fixed(1.0 / 3.0, 40));
}

TEST(StrFixedDiffTest, PercentIsFixedTwoOfTheHundredfold) {
  std::vector<double> values = double_corpus();
  values.push_back(1e300);
  for (double v : values)
    EXPECT_EQ(str::percent(v), streamed_fixed(v * 100.0, 2) + "%")
        << std::hexfloat << v;
}

TEST(StrTest, WithCommas) {
  EXPECT_EQ(str::with_commas(0), "0");
  EXPECT_EQ(str::with_commas(999), "999");
  EXPECT_EQ(str::with_commas(1000), "1,000");
  EXPECT_EQ(str::with_commas(62374249), "62,374,249");
  EXPECT_EQ(str::with_commas(-1234567), "-1,234,567");
  EXPECT_EQ(str::with_commas(LLONG_MIN), "-9,223,372,036,854,775,808");
  EXPECT_EQ(str::with_commas(LLONG_MAX), "9,223,372,036,854,775,807");
  EXPECT_EQ(str::with_commas(-1), "-1");
}

TEST(StrTest, PercentAndFixed) {
  EXPECT_EQ(str::percent(0.9894), "98.94%");
  EXPECT_EQ(str::percent(0.0), "0.00%");
  EXPECT_EQ(str::fixed(3.14159, 3), "3.142");
}

TEST(StrTest, Padding) {
  EXPECT_EQ(str::pad_left("x", 3), "  x");
  EXPECT_EQ(str::pad_right("x", 3), "x  ");
  EXPECT_EQ(str::pad_left("long", 2), "long");
}

TEST(StrTest, ParseU64TakesDigitsOnlyWithinRange) {
  EXPECT_EQ(str::parse_u64("0"), 0u);
  EXPECT_EQ(str::parse_u64("007"), 7u);
  EXPECT_EQ(str::parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(str::parse_u64("4294967295", UINT32_MAX), UINT32_MAX);
  for (const char* bad :
       {"", "-1", "-0", "+5", " 5", "5 ", "12abc", "abc", "1.5", "1e3", "0x10",
        "18446744073709551616", "99999999999999999999999"})
    EXPECT_FALSE(str::parse_u64(bad)) << bad;
  EXPECT_FALSE(str::parse_u64("4294967296", UINT32_MAX));
}

TEST(StrTest, ParseSecondsTakesFiniteNonNegativeDecimals) {
  EXPECT_EQ(str::parse_seconds("0"), 0.0);
  EXPECT_EQ(str::parse_seconds("1.5"), 1.5);
  EXPECT_EQ(str::parse_seconds(".25"), 0.25);
  EXPECT_EQ(str::parse_seconds("2e3"), 2000.0);
  EXPECT_EQ(str::parse_seconds("1e300"), 1e300);
  EXPECT_EQ(str::parse_seconds("1.0000000000000001e-05"), 1e-05);
  for (const char* bad :
       {"", "-1", "-0", "+1", " 1", "1 ", "1s", "abc", "inf", "infinity",
        "nan", "0x10", "1e999", "1e", "."})
    EXPECT_FALSE(str::parse_seconds(bad)) << bad;
}

TEST(TimelineTest, SegmentsRecordOrderedRuns) {
  os::Kernel k;
  os::Pid p = k.spawn("p", caps::Credentials::of_user(1000, 1000),
                      {caps::Capability::Setuid});
  ir::Function dummy("d", 0);
  chronopriv::EpochTracker t;
  // 3 instrs in state A, 2 in B, 1 back in A.
  for (int i = 0; i < 3; ++i) t.on_instruction(k.process(p), dummy);
  k.process(p).creds.uid = {0, 0, 0};
  for (int i = 0; i < 2; ++i) t.on_instruction(k.process(p), dummy);
  k.process(p).creds.uid = {1000, 1000, 1000};
  t.on_instruction(k.process(p), dummy);

  // Aggregated rows merge the A-state (4 instructions in 2 rows total).
  ASSERT_EQ(t.epochs().size(), 2u);
  EXPECT_EQ(t.epochs()[0].instructions, 4u);

  // The timeline keeps all three runs in order.
  ASSERT_EQ(t.timeline().size(), 3u);
  EXPECT_EQ(t.timeline()[0].start, 0u);
  EXPECT_EQ(t.timeline()[0].length, 3u);
  EXPECT_EQ(t.timeline()[1].start, 3u);
  EXPECT_EQ(t.timeline()[1].length, 2u);
  EXPECT_EQ(t.timeline()[2].start, 5u);
  EXPECT_EQ(t.timeline()[2].length, 1u);
  EXPECT_EQ(t.timeline()[0].key, t.timeline()[2].key);
  // Segments tile the run exactly.
  std::uint64_t covered = 0;
  for (const auto& seg : t.timeline()) covered += seg.length;
  EXPECT_EQ(covered, t.total_instructions());
}

TEST(MultiProcessRosa, ColludingProcessesCooperate) {
  // The Object-Maude heritage: ROSA configurations can hold several
  // processes whose messages interleave. Process 1 holds CAP_CHOWN (but
  // cannot open); process 2 can open (but has no privileges). Only their
  // cooperation reaches the goal: 1 chowns the file to 2, then 2 opens it.
  rosa::State st;
  rosa::ProcObj p1;
  p1.id = 1;
  p1.uid = {500, 500, 500};
  p1.gid = {500, 500, 500};
  rosa::ProcObj p2;
  p2.id = 2;
  p2.uid = {600, 600, 600};
  p2.gid = {600, 600, 600};
  st.procs = {p1, p2};
  st.files.push_back(rosa::FileObj{3, {0, 0, os::Mode(0600)}});
  st.set_name(3, "loot");
  st.set_users({500, 600});
  st.set_groups({500, 600});
  st.normalize();

  rosa::Query q;
  q.initial = st;
  q.messages = {
      rosa::msg_chown(1, 3, 600, 600, {caps::Capability::Chown}),
      rosa::msg_open(2, 3, rosa::kAccRead, {}),
  };
  q.goal = rosa::goal_file_in_rdfset(2, 3);
  rosa::SearchResult r = rosa::search(q);
  ASSERT_EQ(r.verdict, rosa::Verdict::Reachable);
  ASSERT_EQ(r.witness.size(), 2u);
  EXPECT_EQ(r.witness[0].proc, 1);
  EXPECT_EQ(r.witness[1].proc, 2);

  // Either process alone fails.
  rosa::Query solo1 = q;
  solo1.messages = {q.messages[0]};
  EXPECT_EQ(rosa::search(solo1).verdict, rosa::Verdict::Unreachable);
  rosa::Query solo2 = q;
  solo2.messages = {q.messages[1]};
  EXPECT_EQ(rosa::search(solo2).verdict, rosa::Verdict::Unreachable);
}

}  // namespace
}  // namespace pa
