// Unit and property tests for the util module: RNG determinism and
// distribution sanity, statistics helpers, histogram edge handling,
// table/CSV emission, CLI parsing, CRC-32 chaining, the binary codec.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "util/cli.hpp"
#include "util/codec.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fastmod.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nmdt {
namespace {

TEST(FastMod32, EqualsRemainderForEveryDivisorShape) {
  // Channel counts (24, 64, 80), evaluation_config set counts (71, 284,
  // 1137), GV100's 3072 sets, and the extremes of the 32-bit range.
  Rng rng(5);
  std::vector<u32> divisors = {1, 2, 3, 24, 64, 71, 80, 284, 1137, 3072, 20480,
                               0x7fffffffu, 0x80000000u, 0xffffffffu};
  for (int i = 0; i < 16; ++i) divisors.push_back(static_cast<u32>(rng.below(0xffffffffu)) + 1);
  for (u32 d : divisors) {
    const FastMod32 mod(d);
    std::vector<u32> values = {0, 1, d - 1, d, d + 1, 2 * d - 1, 0xfffffffeu, 0xffffffffu};
    for (int i = 0; i < 2000; ++i) values.push_back(static_cast<u32>(rng()));
    for (u32 a : values) ASSERT_EQ(mod(a), a % d) << a << " % " << d;
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const u64 first = a();
  a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(5);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, BelowRejectsZero) { EXPECT_THROW(Rng(1).below(0), FormatError); }

TEST(Rng, RangeInclusive) {
  Rng rng(6);
  std::set<i64> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasApproximatelyUnitVariance) {
  Rng rng(8);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(mean(xs), 0.0, 0.05);
  double var = 0.0;
  for (double x : xs) var += x * x;
  EXPECT_NEAR(var / static_cast<double>(xs.size()), 1.0, 0.1);
}

TEST(Rng, ChanceProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Zipf, UniformExponentIsFlat) {
  Rng rng(10);
  ZipfSampler z(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[z(rng)];
  for (int c : counts) EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
}

TEST(Zipf, HeavyTailFavorsSmallIndices) {
  Rng rng(11);
  ZipfSampler z(1000, 1.2);
  i64 first_decile = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    if (z(rng) < 100) ++first_decile;
  }
  // Under zipf(1.2) the first 10% of ranks receives far more than 10% of
  // the mass.
  EXPECT_GT(static_cast<double>(first_decile) / samples, 0.5);
}

TEST(Zipf, SamplesInRange) {
  Rng rng(12);
  ZipfSampler z(17, 0.8);
  for (int i = 0; i < 5000; ++i) {
    const i64 s = z(rng);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 17);
  }
}

TEST(Zipf, RejectsEmptyDomain) { EXPECT_THROW(ZipfSampler(0, 1.0), FormatError); }

TEST(Stats, Mean) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, GeomeanOfPowers) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(geomean(xs), FormatError);
}

TEST(Stats, MedianOddEven) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> xs{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 20.0);
}

TEST(Stats, FractionAbove) {
  const std::vector<double> xs{0.5, 1.5, 2.5, 3.5};
  EXPECT_DOUBLE_EQ(fraction_above(xs, 1.0), 0.75);
  EXPECT_DOUBLE_EQ(fraction_above(xs, 10.0), 0.0);
}

TEST(Table, PrintAligned) {
  Table t({"name", "value"});
  t.begin_row().cell("alpha").cell(1.5, 1);
  t.begin_row().cell("b").cell(i64{42});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a"});
  t.begin_row().cell("x,y\"z");
  const std::string path = testing::TempDir() + "/nmdt_table_test.csv";
  t.write_csv(path);
  std::ifstream is(path);
  std::string header, row;
  std::getline(is, header);
  std::getline(is, row);
  EXPECT_EQ(header, "a");
  EXPECT_EQ(row, "\"x,y\"\"z\"");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_bytes(1536.0), "1.5 KiB");
  EXPECT_EQ(format_sci(0.000123).substr(0, 4), "1.23");
}

TEST(Crc32, ChainingEqualsTheDigestOfTheConcatenation) {
  // crc32(b, crc32(a)) == crc32(a||b) at every split point, the empty
  // pieces included: multi-buffer digests need no scratch copy.
  const std::string s = "123456789";
  const u32 whole = crc32(s.data(), s.size());
  EXPECT_EQ(whole, 0xCBF43926u);  // the IEEE 802.3 check value
  for (usize cut = 0; cut <= s.size(); ++cut) {
    const u32 head = crc32(s.data(), cut);
    EXPECT_EQ(crc32(s.data() + cut, s.size() - cut, head), whole) << "cut " << cut;
  }
  EXPECT_EQ(crc32(s.data(), 0), 0u);             // empty digest
  EXPECT_EQ(crc32(s.data(), 0, whole), whole);   // an empty piece is a no-op
  // Three pieces, chained left to right.
  EXPECT_EQ(crc32(s.data() + 6, 3, crc32(s.data() + 2, 4, crc32(s.data(), 2))), whole);
}

/// The bytewise table loop crc32 used before slice-by-8.
u32 bytewise_crc32(const u8* p, usize len, u32 seed) {
  u32 table[256];
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  u32 c = seed ^ 0xFFFFFFFFu;
  for (usize i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SliceBy8MatchesBytewise) {
  // Every length 0..257 from every start offset 0..7 (so the 8-byte
  // loads see each alignment and the byte tail every length), chained
  // from random seeds.
  Rng rng(32);
  std::vector<u8> buf(8 + 257);
  for (u8& b : buf) b = static_cast<u8>(rng.below(256));
  for (usize offset = 0; offset < 8; ++offset) {
    for (usize len = 0; len <= 257; ++len) {
      const u32 seed = static_cast<u32>(rng());
      ASSERT_EQ(crc32(buf.data() + offset, len, seed),
                bytewise_crc32(buf.data() + offset, len, seed))
          << "offset " << offset << " len " << len << " seed " << seed;
    }
  }
}

/// Small caps, so each test can reach them.
constexpr CodecRules kTinyRules{"tiny", 8, 16, codec_throw<FormatError>};

TEST(Codec, FieldsRoundTripAndTheReaderInsistsOnEveryByte) {
  FieldWriter w(kTinyRules);
  w.put_u8(7);
  w.put_u32(0xdeadbeef);
  w.put_u64(u64{1} << 40);
  w.put_i64(-3);
  w.put_f64(2.5);
  w.put_str("12345678");  // exactly at the string cap
  const u8 raw[3] = {1, 2, 3};
  w.bytes(raw, sizeof(raw));
  EXPECT_EQ(w.out.size(), 1u + 4 + 8 + 8 + 8 + 4 + 8 + 3);

  FieldReader r(w.out, kTinyRules);
  EXPECT_EQ(r.get_u8("u8"), 7);
  EXPECT_EQ(r.get_u32("u32"), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64("u64"), u64{1} << 40);
  EXPECT_EQ(r.get_i64("i64"), -3);
  EXPECT_EQ(r.get_f64("f64"), 2.5);
  EXPECT_EQ(r.get_str("str"), "12345678");
  EXPECT_THROW(r.expect_done("fields"), FormatError);  // raw bytes left
  u8 back[3] = {};
  r.bytes(back, sizeof(back), "raw");
  EXPECT_EQ(back[2], 3);
  r.expect_done("fields");
  EXPECT_THROW(r.get_u8("past the end"), FormatError);
}

TEST(Codec, WriterRefusesTheStringItsReaderRefuses) {
  FieldWriter w(kTinyRules);
  w.put_u8(1);
  try {
    w.put_str("123456789");
    FAIL() << "a string over the cap must not be written";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("9 bytes is over the 8-byte cap"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(w.out.size(), 1u);  // nothing of the refused string was written
  // The reader refuses the same length with the same typed error.
  w.put_u32(9);
  w.bytes("123456789", 9);
  FieldReader r(w.out, kTinyRules);
  (void)r.get_u8("head");
  EXPECT_THROW(r.get_str("str"), FormatError);
}

TEST(Codec, WriterRefusesTheFrameItsScannerRefuses) {
  const std::string at_cap(16, 'x');
  FieldWriter w(kTinyRules);
  w.put_frame(at_cap);
  const FrameScan ok = scan_frame(w.out, kTinyRules);
  ASSERT_EQ(ok.status, FrameScan::kComplete);
  EXPECT_EQ(ok.payload, at_cap);
  EXPECT_EQ(ok.size(), w.out.size());

  FieldWriter over(kTinyRules);
  try {
    over.put_frame(at_cap + "x");
    FAIL() << "a frame over the cap must not be written";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("17 bytes is over the 16-byte cap"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(over.out.empty());
  // The scanner reports the same length as over the cap from the
  // length word alone, without waiting for the payload.
  over.put_u32(17);
  const FrameScan big = scan_frame(over.out, kTinyRules);
  EXPECT_EQ(big.status, FrameScan::kOversized);
  EXPECT_EQ(big.len, 17u);
}

TEST(Codec, ScanFrameReportsPartialCorruptAndComplete) {
  FieldWriter w(kTinyRules);
  w.put_frame("hello");
  w.put_frame("");
  // Every strict prefix of the first frame is partial.
  for (usize cut = 0; cut < 4 + 5 + 4; ++cut) {
    EXPECT_EQ(scan_frame(std::string_view(w.out).substr(0, cut), kTinyRules).status,
              FrameScan::kPartial)
        << "cut at " << cut;
  }
  const FrameScan first = scan_frame(w.out, kTinyRules);
  ASSERT_EQ(first.status, FrameScan::kComplete);
  EXPECT_EQ(first.payload, "hello");
  const FrameScan second =
      scan_frame(std::string_view(w.out).substr(first.size()), kTinyRules);
  ASSERT_EQ(second.status, FrameScan::kComplete);
  EXPECT_TRUE(second.payload.empty());
  EXPECT_EQ(first.size() + second.size(), w.out.size());
  // A flipped payload or CRC byte is a mismatch, never a frame.
  for (usize i = 4; i < first.size(); ++i) {
    std::string bytes = w.out;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x01);
    EXPECT_EQ(scan_frame(bytes, kTinyRules).status, FrameScan::kCorrupt) << "flip at " << i;
  }
}

TEST(Cli, ParsesBothSyntaxes) {
  const char* argv[] = {"prog", "--n", "128", "--density=0.01", "--flag"};
  CliParser cli(5, argv);
  cli.declare("n", "");
  cli.declare("density", "");
  cli.declare("flag", "");
  cli.validate();
  EXPECT_EQ(cli.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("density", 0.0), 0.01);
  EXPECT_TRUE(cli.has("flag"));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus", "1"};
  CliParser cli(3, argv);
  cli.declare("n", "");
  EXPECT_THROW(cli.validate(), ParseError);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n", "abc"};
  CliParser cli(3, argv);
  EXPECT_THROW(cli.get_int("n", 0), ParseError);
  EXPECT_THROW(cli.get_double("n", 0.0), ParseError);
}

TEST(Cli, RejectsPositional) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(CliParser(2, argv), ParseError);
}

TEST(ExitCodes, PinsTheDocumentedErrorToExitCodeTable) {
  // The README exit-code table, pinned so scripts (and tier1.sh) can
  // rely on it: every typed error class maps to a distinct code, both
  // live objects and exceptions rebuilt from their wire descriptions.
  EXPECT_EQ(exit_code_for(ParseError("x")), 2);
  EXPECT_EQ(exit_code_for(FormatError("x")), 3);
  EXPECT_EQ(exit_code_for(ConfigError("x")), 4);
  EXPECT_EQ(exit_code_for(FaultError("x")), 5);
  EXPECT_EQ(exit_code_for(TimeoutError("x")), 6);
  EXPECT_EQ(exit_code_for(OverloadError("x")), 7);
  EXPECT_EQ(exit_code_for(WorkerError("x")), 8);
  EXPECT_EQ(exit_code_for(CancelledError("x")), 130);
  EXPECT_EQ(exit_code_for(std::runtime_error("x")), 1);
  EXPECT_EQ(exit_code_for(Error("x")), 1);  // untyped base stays generic
}

TEST(ExitCodes, DerivedClassesKeepTheirSlotAfterDescriptionRoundTrip) {
  // describe_exception → exception_from_description → exit_code_for
  // must agree with the original object's code (the journal replays
  // errors through this path).
  const OverloadError shed("queue full", 250);
  EXPECT_EQ(shed.retry_after_ms(), 250);
  try {
    std::rethrow_exception(exception_from_description(describe_exception(shed)));
    FAIL() << "expected a rethrow";
  } catch (const std::exception& e) {
    EXPECT_EQ(exit_code_for(e), 7);
  }
  try {
    std::rethrow_exception(
        exception_from_description(describe_exception(TimeoutError("late"))));
    FAIL() << "expected a rethrow";
  } catch (const std::exception& e) {
    EXPECT_EQ(exit_code_for(e), 6);
  }
  // WorkerError crosses the supervisor's result pipe as a description
  // and must land back in slot 8 (the quarantine → fail_fast path).
  try {
    std::rethrow_exception(exception_from_description(
        describe_exception(WorkerError("worker process killed by signal 9"))));
    FAIL() << "expected a rethrow";
  } catch (const WorkerError& e) {
    EXPECT_EQ(exit_code_for(e), 8);
  }
}

}  // namespace
}  // namespace nmdt
