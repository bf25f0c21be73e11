// Unit tests for the util module: statistics, sample window, tables,
// option parsing and the deterministic RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/options.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace u = slipflow::util;

TEST(Stats, MeanOfConstants) {
  const std::vector<double> xs{3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(u::mean(xs), 3.0);
}

TEST(Stats, MeanSimple) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(u::mean(xs), 2.5);
}

TEST(Stats, MeanRequiresNonEmpty) {
  const std::vector<double> xs;
  EXPECT_THROW(u::mean(xs), slipflow::contract_error);
}

TEST(Stats, StddevOfConstantsIsZero) {
  const std::vector<double> xs{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(u::stddev(xs), 0.0);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> xs{2.0, 4.0};  // mean 3, var 1
  EXPECT_DOUBLE_EQ(u::stddev(xs), 1.0);
}

TEST(Stats, HarmonicMeanOfConstants) {
  const std::vector<double> xs{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(u::harmonic_mean(xs), 2.0);
}

TEST(Stats, HarmonicMeanKnownValue) {
  // HM(1, 2) = 2 / (1 + 1/2) = 4/3
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_NEAR(u::harmonic_mean(xs), 4.0 / 3.0, 1e-12);
}

TEST(Stats, HarmonicMeanIsSpikeResistant) {
  // This property is why the paper chose it for the load index: one huge
  // sample barely moves it, while the arithmetic mean jumps.
  std::vector<double> xs(9, 1.0);
  xs.push_back(100.0);  // load spike
  EXPECT_LT(u::harmonic_mean(xs), 1.2);
  EXPECT_GT(u::mean(xs), 10.0);
}

TEST(Stats, HarmonicMeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(u::harmonic_mean(xs), slipflow::contract_error);
}

TEST(Stats, HarmonicNeverExceedsArithmetic) {
  u::Rng rng(7);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<double> xs;
    for (int i = 0; i < 8; ++i) xs.push_back(rng.uniform(0.1, 10.0));
    EXPECT_LE(u::harmonic_mean(xs), u::mean(xs) + 1e-12);
  }
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0, 2.0};
  EXPECT_DOUBLE_EQ(u::min(xs), -1.0);
  EXPECT_DOUBLE_EQ(u::max(xs), 7.0);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(u::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(u::percentile(xs, 1.0), 4.0);
}

TEST(Stats, PercentileMedianInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(u::percentile(xs, 0.5), 2.5);
}

TEST(SampleWindow, FillsThenEvictsOldest) {
  u::SampleWindow w(3);
  EXPECT_TRUE(w.empty());
  w.push(1.0);
  w.push(2.0);
  EXPECT_FALSE(w.full());
  w.push(3.0);
  EXPECT_TRUE(w.full());
  w.push(4.0);
  EXPECT_EQ(w.samples(), (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(SampleWindow, SizeTracksCapacity) {
  u::SampleWindow w(5);
  for (int i = 0; i < 20; ++i) w.push(i);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_EQ(w.samples(), (std::vector<double>{15, 16, 17, 18, 19}));
}

TEST(SampleWindow, ClearEmpties) {
  u::SampleWindow w(2);
  w.push(1.0);
  w.clear();
  EXPECT_TRUE(w.empty());
  w.push(9.0);
  EXPECT_EQ(w.samples(), std::vector<double>{9.0});
}

TEST(SampleWindow, ZeroCapacityRejected) {
  EXPECT_THROW(u::SampleWindow w(0), slipflow::contract_error);
}

TEST(Table, PrintsAlignedRows) {
  u::Table t("demo");
  t.header({"name", "value"});
  t.row({std::string("alpha"), 1.5});
  t.row({std::string("b"), 10.0});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  u::Table t;
  t.header({"a"});
  t.row({std::string("x,y")});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a\n\"x,y\"\n");
}

TEST(Table, RowWidthMismatchRejected) {
  u::Table t;
  t.header({"a", "b"});
  EXPECT_THROW(t.row({1.0}), slipflow::contract_error);
}

TEST(Table, FormatNumberTrimsZeros) {
  EXPECT_EQ(u::format_number(1.5), "1.5");
  EXPECT_EQ(u::format_number(2.0), "2");
  EXPECT_EQ(u::format_number(0.25), "0.25");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--nodes=20", "--verbose", "positional"};
  const auto o = u::Options::parse(4, argv);
  EXPECT_EQ(o.get("nodes", 0LL), 20);
  EXPECT_TRUE(o.get("verbose", false));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "positional");
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const auto o = u::Options::parse(1, argv);
  EXPECT_EQ(o.get("nodes", 7LL), 7);
  EXPECT_DOUBLE_EQ(o.get("x", 2.5), 2.5);
  EXPECT_EQ(o.get("s", std::string("d")), "d");
  EXPECT_FALSE(o.has("nodes"));
}

TEST(Options, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  const auto o = u::Options::parse(2, argv);
  EXPECT_THROW(o.get("n", 1LL), slipflow::contract_error);
}

TEST(Options, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=off", "--c=1", "--d=no"};
  const auto o = u::Options::parse(5, argv);
  EXPECT_TRUE(o.get("a", false));
  EXPECT_FALSE(o.get("b", true));
  EXPECT_TRUE(o.get("c", false));
  EXPECT_FALSE(o.get("d", true));
}

TEST(Options, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  const auto o = u::Options::parse(3, argv);
  (void)o.get("used", 0LL);
  const auto unused = o.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Rng, DeterministicUnderSeed) {
  u::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  u::Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  u::Rng r(11);
  double s = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) s += r.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.02);
}

TEST(Rng, BelowRespectsBound) {
  u::Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(7), 7u);
}

TEST(Rng, BelowCoversAllResidues) {
  u::Rng r(9);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) seen[static_cast<std::size_t>(r.below(5))]++;
  for (int c : seen) EXPECT_GT(c, 100);
}

TEST(Require, MessageContainsExpression) {
  try {
    SLIPFLOW_REQUIRE_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const slipflow::contract_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("custom detail 42"), std::string::npos);
  }
}

// --- JSON parser (util/json.hpp): the campaign server's job-spec
// reader. Strict RFC 8259: every malformed input must throw json_error
// with a byte offset, and dump() must be canonical (sorted keys,
// deterministic number formatting) because the warm-state cache hashes
// it as the physics key.

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(u::json_parse("null").is_null());
  EXPECT_EQ(u::json_parse("true").as_bool(), true);
  EXPECT_EQ(u::json_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(u::json_parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(u::json_parse("\"hi\"").as_string(), "hi");
  EXPECT_DOUBLE_EQ(u::json_parse("  42 ").as_number(), 42.0);
}

TEST(Json, ParsesNestedStructures) {
  const u::JsonValue v =
      u::json_parse(R"({"a":[1,2,{"b":true}],"c":{"d":null},"e":"x"})");
  ASSERT_TRUE(v.is_object());
  const auto& a = v.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].as_number(), 1.0);
  EXPECT_TRUE(a[2].find("b")->as_bool());
  EXPECT_TRUE(v.find("c")->find("d")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, StringEscapesRoundTrip) {
  const u::JsonValue v = u::json_parse(R"("a\"b\\c\n\t\u0041\u00e9")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  // U+1F600 as a surrogate pair.
  EXPECT_EQ(u::json_parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, DumpIsCanonical) {
  // Same members, different order: identical canonical bytes — the
  // property the warm-cache key relies on.
  const std::string a = u::json_parse(R"({"b":1,"a":[true,null]})").dump();
  const std::string b = u::json_parse(R"({"a":[true , null], "b": 1.0})").dump();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, R"({"a":[true,null],"b":1})");
}

TEST(Json, ConvenienceGettersWithDefaults) {
  const u::JsonValue v = u::json_parse(R"({"n":3,"s":"x","b":true})");
  EXPECT_EQ(v.int_or("n", 7), 3);
  EXPECT_EQ(v.int_or("absent", 7), 7);
  EXPECT_EQ(v.string_or("s", "d"), "x");
  EXPECT_TRUE(v.bool_or("b", false));
  // Present-but-wrong-kind throws naming the key, instead of silently
  // returning the fallback.
  EXPECT_THROW((void)v.int_or("s", 0), u::json_error);
  EXPECT_THROW((void)v.string_or("n", ""), u::json_error);

  // A number beyond long long is refused as out of range before any
  // conversion (the cast itself would be undefined behaviour), and a
  // fraction as not an integer; each error names the member.
  const u::JsonValue w = u::json_parse(
      R"({"huge":1e300,"edge":9223372036854775808,"low":-1e19,"inf":1e999,)"
      R"("min":-9223372036854775808,"half":2.5})");
  for (const char* key : {"huge", "edge", "low", "inf"}) {
    try {
      (void)w.int_or(key, 0);
      ADD_FAILURE() << key << " was converted";
    } catch (const u::json_error& e) {
      const std::string msg = e.what();
      const std::string want =
          std::string("\"") + key + "\" is out of integer range";
      EXPECT_NE(msg.find(want), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(w.int_or("min", 0), std::numeric_limits<long long>::min());
  try {
    (void)w.int_or("half", 0);
    ADD_FAILURE() << "2.5 was converted";
  } catch (const u::json_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"half\" is not an integer"),
              std::string::npos)
        << e.what();
  }
}

TEST(Json, MalformedInputsThrowWithOffset) {
  const char* bad[] = {
      "",            // empty
      "{",           // unterminated object
      "[1,2",        // unterminated array
      "[1,]",        // trailing comma
      "{\"a\":}",    // missing value
      "{\"a\" 1}",   // missing colon
      "{a:1}",       // unquoted key
      "\"abc",       // unterminated string
      "01",          // leading zero
      "1.",          // bare decimal point
      "+1",          // explicit plus
      "nul",         // truncated literal
      "1 2",         // trailing garbage
      "{\"a\":1,\"a\":2}",  // duplicate key
      "\"\\x\"",     // bad escape
      "\"\t\"",      // raw control char in string
      "[1] extra",   // trailing token
  };
  for (const char* text : bad)
    EXPECT_THROW((void)u::json_parse(text), u::json_error) << text;
}

TEST(Json, DepthCapStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW((void)u::json_parse(deep, 64), u::json_error);
  // ... but 3 levels under a cap of 4 are fine.
  EXPECT_NO_THROW((void)u::json_parse("[[[1]]]", 4));
}

TEST(Json, HugeNumbersSaturateInsteadOfThrowing) {
  EXPECT_TRUE(std::isinf(u::json_parse("1e999").as_number()));
  EXPECT_TRUE(std::isinf(u::json_parse("-1e999").as_number()));
}

TEST(Json, ErrorCarriesByteOffset) {
  try {
    (void)u::json_parse("[1, x]");
    FAIL() << "should have thrown";
  } catch (const u::json_error& e) {
    EXPECT_EQ(e.offset(), 4u);
  }
}

TEST(Options, UnknownDiagnosticListsValidFlags) {
  const char* argv[] = {"prog", "--good=1", "--typo=2"};
  const auto opts = u::Options::parse(3, argv);
  (void)opts.get("good", 0LL);
  (void)opts.get("other", 0LL);
  const std::string diag = opts.unknown_diagnostic();
  EXPECT_NE(diag.find("--typo"), std::string::npos);
  EXPECT_NE(diag.find("valid flags"), std::string::npos);
  EXPECT_NE(diag.find("--good"), std::string::npos);
  EXPECT_NE(diag.find("--other"), std::string::npos);
}

TEST(Options, UnknownDiagnosticEmptyWhenClean) {
  const char* argv[] = {"prog", "--good=1"};
  const auto opts = u::Options::parse(2, argv);
  (void)opts.get("good", 0LL);
  EXPECT_TRUE(opts.unknown_diagnostic().empty());
}
