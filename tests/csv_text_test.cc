#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/csv.h"

/// \file
/// The CSV text layer against its historical definition. Cells were once
/// written with snprintf ("%.0f" for integral values below 1e15, "%.17g"
/// otherwise) and read with strtod (rejecting ERANGE), and records were
/// split by a byte-at-a-time tokenizer that copied every field into a
/// std::string. The allocation-free replacements must agree with all three
/// byte for byte: the release bytes, the goldens and every error are part
/// of the contract. tests/data/golden_cells.txt pins the edge values
/// (the integral branch and its 1e15 cut-off, -0.0, NaN and infinities,
/// subnormals, round-half-even ties, decade carries); the sweeps below
/// compare against the libc functions directly.

namespace popp {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double FromBits(uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// The historical cell writer.
std::string SnprintfCell(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

/// The historical cell reader: true and `*out` on success.
bool StrtodCell(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

void ExpectCellMatchesLibc(double v) {
  const std::string want = SnprintfCell(v);
  char buf[kCsvCellMaxChars];
  const char* end = FormatCsvCell(v, buf);
  ASSERT_LE(static_cast<size_t>(end - buf), kCsvCellMaxChars);
  ASSERT_EQ(std::string(buf, static_cast<size_t>(end - buf)), want)
      << "bits " << std::hex << Bits(v);
}

/// Checks the `steps` doubles from `center` upwards and, negated, the
/// `steps` from `center` downwards.
void ExpectCellsAroundMatchLibc(double center, int steps) {
  double up = center, down = center;
  for (int i = 0; i < steps; ++i) {
    ExpectCellMatchesLibc(up);
    ExpectCellMatchesLibc(-down);
    up = std::nextafter(up, HUGE_VAL);
    down = std::nextafter(down, 0.0);
  }
}

void ExpectParseMatchesLibc(const std::string& text) {
  double want = 0;
  const bool want_ok = StrtodCell(text, &want);
  auto got = ParseCsvCell(text, 7);
  ASSERT_EQ(got.ok(), want_ok) << "'" << text << "'";
  if (want_ok) {
    ASSERT_EQ(Bits(got.value()), Bits(want)) << "'" << text << "'";
  } else {
    EXPECT_EQ(got.status().ToString(),
              "INVALID_ARGUMENT: line 7: cannot parse number '" +
                  std::string(text.c_str()) + "'");
  }
}

// ---------------------------------------------------------------- cells --

TEST(CsvCellGolden, EveryPinnedValueFormatsAndParsesAsCommitted) {
  std::ifstream in(std::string(POPP_TEST_DATA_DIR) + "/golden_cells.txt");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string bits_hex, text, back_hex;
    fields >> bits_hex >> text >> back_hex;
    const double v = FromBits(std::stoull(bits_hex, nullptr, 16));
    EXPECT_EQ(FormatCsvCell(v), text) << line;
    auto parsed = ParseCsvCell(text, 1);
    if (back_hex == "reject") {
      EXPECT_FALSE(parsed.ok()) << line;
    } else {
      ASSERT_TRUE(parsed.ok()) << line;
      EXPECT_EQ(Bits(parsed.value()), std::stoull(back_hex, nullptr, 16))
          << line;
    }
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

TEST(CsvCellGolden, SpecialValuesKeepTheirHistoricalSpelling) {
  EXPECT_EQ(FormatCsvCell(-0.0), "-0");
  EXPECT_EQ(FormatCsvCell(0.0), "0");
  EXPECT_EQ(FormatCsvCell(999999999999999.0), "999999999999999");
  EXPECT_EQ(FormatCsvCell(1e15), "1000000000000000");  // the %.17g side
  EXPECT_EQ(FormatCsvCell(1e17), "1e+17");
  EXPECT_EQ(FormatCsvCell(0.1), "0.10000000000000001");
  EXPECT_EQ(FormatCsvCell(1.5e-5), "1.5e-05");
  EXPECT_EQ(FormatCsvCell(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(FormatCsvCell(1000000000000000.25), "1000000000000000.2");
  EXPECT_EQ(FormatCsvCell(1000000000000000.75), "1000000000000000.8");
  EXPECT_EQ(FormatCsvCell(FromBits(0x7ff8000000000000ull)), "nan");
  EXPECT_EQ(FormatCsvCell(FromBits(0xfff8000000000000ull)), "-nan");
  EXPECT_EQ(FormatCsvCell(HUGE_VAL), "inf");
  EXPECT_EQ(FormatCsvCell(-HUGE_VAL), "-inf");
  EXPECT_EQ(FormatCsvCell(FromBits(1)), "4.9406564584124654e-324");
  // Subnormal cells are written but, as strtod flags them ERANGE, were
  // never read back; that stays so.
  EXPECT_FALSE(ParseCsvCell("4.9406564584124654e-324", 1).ok());
  auto negative_zero = ParseCsvCell("-0", 1);
  ASSERT_TRUE(negative_zero.ok());
  EXPECT_EQ(Bits(negative_zero.value()), Bits(-0.0));
}

TEST(CsvCellSweep, IntegralBranchMatchesPrintfExhaustively) {
  for (int64_t i = -(int64_t{1} << 17); i <= (int64_t{1} << 17); ++i) {
    ExpectCellMatchesLibc(static_cast<double>(i));
  }
  // Both sides of the cut-off and of 2^53.
  for (double center : {1e15, 9007199254740992.0}) {
    ExpectCellsAroundMatchLibc(center, 2000);
  }
}

TEST(CsvCellSweep, EveryExponentAndSignMatchesPrintf) {
  // All 2^12 sign/exponent combinations (so every subnormal, normal,
  // infinite and NaN class), each with mantissas at both ends and random
  // ones in between.
  std::mt19937_64 rng(20070415);
  for (uint64_t top = 0; top < (uint64_t{1} << 12); ++top) {
    const uint64_t high = top << 52;
    for (uint64_t mantissa : {uint64_t{0}, uint64_t{1},
                              (uint64_t{1} << 52) - 1, uint64_t{1} << 51}) {
      ExpectCellMatchesLibc(FromBits(high | mantissa));
    }
    for (int i = 0; i < 24; ++i) {
      ExpectCellMatchesLibc(FromBits(high | (rng() >> 12)));
    }
  }
}

TEST(CsvCellSweep, ReleaseLikeMagnitudesMatchPrintf) {
  // Encoded releases hold values of every decade around the inputs, so
  // sweep those densely, including exact halves (ties) near 2^50..2^53.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> decade(-8.0, 18.0);
  for (int i = 0; i < 200000; ++i) {
    const double v = std::pow(10.0, decade(rng)) * ((rng() & 1) ? -1 : 1);
    ExpectCellMatchesLibc(v);
    ExpectCellMatchesLibc(std::nextafter(v, 0.0));
  }
  for (int i = 0; i < 50000; ++i) {
    const double base = std::ldexp(1.0, 49 + static_cast<int>(rng() % 4));
    const double whole = std::floor(base + static_cast<double>(rng() >> 14));
    ExpectCellMatchesLibc(whole + 0.25 * static_cast<double>(rng() % 4));
  }
}

TEST(CsvCellSweep, NeighboursOfPowersOfTenMatchPrintf) {
  // Rounding to 17 digits could only carry into an 18th digit just below a
  // power of ten, so walk the doubles around each power the fixed-notation
  // path covers, and the cut-offs at 1e-4 and 1e17.
  for (int k = -5; k <= 18; ++k) {
    ExpectCellsAroundMatchLibc(std::pow(10.0, k), 64);
  }
}

TEST(CsvCellSweep, ParseMatchesStrtodOnFormattedCells) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100000; ++i) {
    ExpectParseMatchesLibc(FormatCsvCell(FromBits(rng())));
  }
  for (int64_t i = -1000; i <= 1000; ++i) {
    ExpectParseMatchesLibc(std::to_string(i));
  }
}

TEST(CsvCellSweep, ParseMatchesStrtodOnOddText) {
  for (const char* text :
       {"", "-", "+", ".", "-.", "1.", ".5", "-.5", "+1", " 1", "1 ", "1e",
        "1e+", "1e5", "1E5", "1e-5", "0e999", "0e-999", "00012", "-0",
        "-0.0", "0x10", "0X1p3", "1e400", "-1e400", "1e-400", "2e-324",
        "3e-324", "1e-310", "2.2250738585072014e-308", "nan", "NaN", "-nan",
        "nan(123)", "nan(", "inf", "-Inf", "infinity", "infinit",
        "1234567890123456", "123456789012345", "-123456789012345",
        "9007199254740993", "-9007199254740995", "18014398509481987",
        "9999999999999999999", "-9999999999999999999",
        "18446744073709551615", "18446744073709551616",
        "99999999999999999999", "0000000000000000000012", "1,5", "1..2",
        "--1", "1e5e5", "\t2"}) {
    ExpectParseMatchesLibc(text);
  }
  // A field with an embedded NUL byte: strtod stops at it, as before.
  auto parsed = ParseCsvCell(std::string("12\0x", 4), 1);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), 12.0);
  // Random text over the characters numbers are made of.
  const std::string alphabet = "0123456789-+.eEnaifxNI( ";
  std::mt19937_64 rng(3);
  for (int i = 0; i < 200000; ++i) {
    std::string text(rng() % 8, ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];
    ExpectParseMatchesLibc(text);
  }
}

// -------------------------------------------------------------- records --

/// The historical tokenizer: one std::string per field, every byte through
/// one switch. Kept here as the oracle of the view-based parser.
class ReferenceTokenizer {
 public:
  struct Record {
    std::vector<std::string> fields;
    size_t line = 0;
  };

  explicit ReferenceTokenizer(char delim) : delim_(delim) {}

  void Feed(const std::string& bytes) {
    for (char c : bytes) {
      if (cr_pending_) {
        cr_pending_ = false;
        if (c == '\n') {
          EndOfLine();
          continue;
        }
        field_ += '\r';
        if (state_ == kRecordStart || state_ == kFieldStart ||
            state_ == kQuoteQuote) {
          state_ = kUnquoted;
        }
      }
      switch (state_) {
        case kRecordStart:
        case kFieldStart:
          if (c == '"') {
            state_ = kQuoted;
          } else if (c == delim_) {
            EndField();
            state_ = kFieldStart;
          } else if (c == '\n') {
            EndOfLine();
          } else if (c == '\r') {
            cr_pending_ = true;
          } else {
            field_ += c;
            state_ = kUnquoted;
          }
          break;
        case kUnquoted:
          if (c == delim_) {
            EndField();
            state_ = kFieldStart;
          } else if (c == '\n') {
            EndOfLine();
          } else if (c == '\r') {
            cr_pending_ = true;
          } else {
            field_ += c;
          }
          break;
        case kQuoted:
          if (c == '"') {
            state_ = kQuoteQuote;
          } else {
            if (c == '\n') ++line_;
            field_ += c;
          }
          break;
        case kQuoteQuote:
          if (c == '"') {
            field_ += '"';
            state_ = kQuoted;
          } else if (c == delim_) {
            EndField();
            state_ = kFieldStart;
          } else if (c == '\n') {
            EndOfLine();
          } else if (c == '\r') {
            cr_pending_ = true;
          } else {
            field_ += c;
            state_ = kUnquoted;
          }
          break;
      }
    }
  }

  /// False on an unterminated quote (the records before it stay valid).
  bool Finish() {
    if (state_ == kQuoted) return false;
    cr_pending_ = false;
    if (state_ != kRecordStart) EndOfLine();
    return true;
  }

  std::vector<Record> records;
  size_t record_line() const { return record_line_; }

 private:
  enum State { kRecordStart, kFieldStart, kUnquoted, kQuoted, kQuoteQuote };

  void EndField() {
    fields_.push_back(field_);
    field_.clear();
  }
  void EndOfLine() {
    ++line_;
    if (state_ == kRecordStart) {
      record_line_ = line_;
      return;
    }
    EndField();
    records.push_back(Record{fields_, record_line_});
    fields_.clear();
    state_ = kRecordStart;
    record_line_ = line_;
  }

  char delim_;
  State state_ = kRecordStart;
  bool cr_pending_ = false;
  std::string field_;
  std::vector<std::string> fields_;
  size_t line_ = 1;
  size_t record_line_ = 1;
};

/// Runs the view-based parser over `text` split into windows of random
/// sizes, pulling records between windows the way CsvChunkReader does.
struct ParsedRecords {
  std::vector<ReferenceTokenizer::Record> records;
  std::string error;
};

ParsedRecords ParseInWindows(const std::string& text, char delim,
                             std::mt19937_64& rng, size_t max_window) {
  ParsedRecords out;
  CsvRecordParser parser(delim);
  CsvRecord record;
  auto drain = [&] {
    for (;;) {
      auto got = parser.Next(&record);
      if (!got.ok()) {
        out.error = got.status().ToString();
        return false;
      }
      if (!got.value()) return true;
      ReferenceTokenizer::Record copy;
      for (std::string_view field : record.fields) {
        copy.fields.emplace_back(field);
      }
      copy.line = record.line;
      out.records.push_back(std::move(copy));
    }
  };
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t take = std::min(text.size() - pos, 1 + rng() % max_window);
    parser.Feed(text.data() + pos, take);
    pos += take;
    if (!drain()) return out;
  }
  parser.Finish();
  drain();
  return out;
}

void ExpectSameRecords(const std::string& text, char delim,
                       std::mt19937_64& rng, size_t max_window) {
  ReferenceTokenizer reference(delim);
  reference.Feed(text);
  const bool reference_ok = reference.Finish();
  const ParsedRecords got = ParseInWindows(text, delim, rng, max_window);
  ASSERT_EQ(got.error.empty(), reference_ok) << "input: " << text;
  if (!reference_ok) {
    EXPECT_EQ(got.error, "INVALID_ARGUMENT: line " +
                             std::to_string(reference.record_line()) +
                             ": unterminated quoted field at end of input");
  }
  ASSERT_EQ(got.records.size(), reference.records.size()) << text;
  for (size_t i = 0; i < got.records.size(); ++i) {
    EXPECT_EQ(got.records[i].fields, reference.records[i].fields)
        << "record " << i << " of: " << text;
    EXPECT_EQ(got.records[i].line, reference.records[i].line)
        << "record " << i << " of: " << text;
  }
}

TEST(CsvRecordParserDiff, RandomInputsMatchTheHistoricalTokenizer) {
  // Short random texts over the bytes the tokenizer treats specially, fed
  // in windows from one byte up, so every state meets every seam.
  const std::string alphabet = "ab1,,\"\"\n\r;";
  std::mt19937_64 rng(20070415);
  for (int i = 0; i < 40000; ++i) {
    std::string text(rng() % 24, ' ');
    for (char& c : text) c = alphabet[rng() % alphabet.size()];
    // Mostly ',', but also delimiters that collide with data, quotes and
    // line ends, whose precedence the historical switch fixed.
    const char delim = ",,,,;a\"\n\r"[i % 9];
    ExpectSameRecords(text, delim, rng, 1 + rng() % 6);
    if (HasFailure()) return;
  }
}

TEST(CsvRecordParserDiff, QuotedFieldsAcrossManySeams) {
  std::mt19937_64 rng(5);
  const std::string text =
      "a,\"b,c\",d\r\n\"x\"\"y\"\"\",2,\"multi\nline\"\n\n\r\n"
      "\"\"\"\",lone\rcr,\"q\"tail\n1,2,3";
  for (size_t window = 1; window <= text.size(); ++window) {
    ExpectSameRecords(text, ',', rng, window);
  }
}

TEST(CsvRecordParserDiff, GeneratedDatasetTextMatches) {
  // Release-shaped text: long numeric lines with quoted class labels.
  std::mt19937_64 rng(9);
  std::string text = "a,\"b, quoted\",class\n";
  for (int r = 0; r < 2000; ++r) {
    text += FormatCsvCell(static_cast<double>(rng() % 100000) / 7) + "," +
            FormatCsvCell(static_cast<double>(rng() % 1000)) + "," +
            ((r % 3 == 0) ? "\"label \"\"q\"\"\"" : "plain") +
            ((r % 5 == 0) ? "\r\n" : "\n");
  }
  for (size_t window : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    ExpectSameRecords(text, ',', rng, window);
  }
}

TEST(CsvRecordParser, RecordViewsStayValidUntilTheNextFeed) {
  CsvRecordParser parser;
  const std::string text = "1,2,x\n3,4,\"y\"\"z\"\n5,6,";
  parser.Feed(text.data(), text.size());
  CsvRecord first, second;
  ASSERT_TRUE(parser.Next(&first).value());
  ASSERT_TRUE(parser.Next(&second).value());
  EXPECT_EQ(first.fields[2], "x");
  EXPECT_EQ(second.fields[2], "y\"z");
  CsvRecord third;
  EXPECT_FALSE(parser.Next(&third).value());  // "5,6," awaits more input
  parser.Feed("w\n", 2);
  ASSERT_TRUE(parser.Next(&third).value());
  EXPECT_EQ(third.fields.size(), 3u);
  EXPECT_EQ(third.fields[2], "w");
  EXPECT_EQ(third.line, 3u);
  parser.Finish();
  EXPECT_FALSE(parser.Next(&third).value());
}

// ---------------------------------------------------------------- bytes --

TEST(CsvText, AppendCsvEqualsToCsvStringAndAppends) {
  Dataset d({"plain", "with, comma"}, {"a\"b", "c"});
  d.AddRow({1, -0.0}, 0);
  d.AddRow({0.1, 1e300}, 1);
  d.AddRow({HUGE_VAL, 1e15}, 0);
  std::string out = "prefix|";
  AppendCsv(d, CsvOptions{}, &out);
  EXPECT_EQ(out,
            "prefix|plain,\"with, comma\",class\n"
            "1,-0,\"a\"\"b\"\n"
            "0.10000000000000001,1.0000000000000001e+300,c\n"
            "inf,1000000000000000,\"a\"\"b\"\n");
  EXPECT_EQ(out.substr(7), ToCsvString(d));
  CsvOptions no_header;
  no_header.has_header = false;
  no_header.delimiter = ';';
  EXPECT_EQ(ToCsvString(d, no_header),
            "1;-0;\"a\"\"b\"\n"
            "0.10000000000000001;1.0000000000000001e+300;c\n"
            "inf;1000000000000000;\"a\"\"b\"\n");
}

TEST(CsvText, RoundTripKeepsEveryReadableBitPattern) {
  // Anything the writer emits, except subnormals (rejected on read, as
  // always), reads back bit-identically — NaN up to its payload.
  std::mt19937_64 rng(13);
  Dataset d({"v"}, {"k"});
  for (int i = 0; i < 20000; ++i) {
    double v = FromBits(rng());
    if (std::fpclassify(v) == FP_SUBNORMAL || std::isnan(v)) v = 0.5;
    d.AddRow({v}, 0);
  }
  d.AddRow({-0.0}, 0);
  auto back = ParseCsv(ToCsvString(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  for (size_t r = 0; r < d.NumRows(); ++r) {
    ASSERT_EQ(Bits(back.value().Value(r, 0)), Bits(d.Value(r, 0))) << r;
  }
}

}  // namespace
}  // namespace popp
