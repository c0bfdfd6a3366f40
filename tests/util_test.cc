#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <set>

#include "util/crc64.h"
#include "util/decimal.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace popp {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IO_ERROR");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "INTERNAL");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OUT_OF_RANGE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FAILED_PRECONDITION");
}

TEST(ResultTest, HoldsValueOnSuccess) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatusOnFailure) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(3, 3), 3);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.UniformInt(0, 9));
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, Uniform01InHalfOpenUnit) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform(10.0, 20.0);
  EXPECT_NEAR(sum / n, 15.0, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  const int n = 40000;
  std::vector<double> xs(n);
  for (auto& x : xs) x = rng.Gaussian(3.0, 2.0);
  EXPECT_NEAR(Mean(xs), 3.0, 0.05);
  EXPECT_NEAR(SampleStdDev(xs), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(23);
  std::vector<int> empty;
  rng.Shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{9};
  rng.Shuffle(one);
  EXPECT_EQ(one, std::vector<int>{9});
}

TEST(RngTest, SampleIndicesDistinctSortedInRange) {
  Rng rng(29);
  for (int rep = 0; rep < 50; ++rep) {
    const auto s = rng.SampleIndices(100, 17);
    ASSERT_EQ(s.size(), 17u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    for (size_t i = 1; i < s.size(); ++i) EXPECT_NE(s[i - 1], s[i]);
    for (size_t x : s) EXPECT_LT(x, 100u);
  }
}

TEST(RngTest, SampleIndicesFullSet) {
  Rng rng(31);
  const auto s = rng.SampleIndices(5, 5);
  EXPECT_EQ(s, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, SampleIndicesZero) {
  Rng rng(31);
  EXPECT_TRUE(rng.SampleIndices(5, 0).empty());
  EXPECT_TRUE(rng.SampleIndices(0, 0).empty());
}

TEST(RngTest, SampleIndicesIsUniformish) {
  // Each of C(5,2)=10 pairs should appear with frequency ~1/10.
  Rng rng(37);
  std::map<std::pair<size_t, size_t>, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto s = rng.SampleIndices(5, 2);
    counts[{s[0], s[1]}]++;
  }
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [pair, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 0.1, 0.02);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng child = a.Fork();
  Rng b(41);
  b.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, IndexedForkDoesNotAdvanceParent) {
  Rng a(41);
  Rng b(41);
  a.Fork(0);
  a.Fork(1);
  a.Fork(12345);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, IndexedForkIsAPureFunctionOfStateAndIndex) {
  const Rng a(41);
  Rng first = a.Fork(7);
  Rng again = a.Fork(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(first.Next(), again.Next());
  }
}

TEST(RngTest, IndexedForkChildrenAreDistinct) {
  const Rng a(41);
  std::set<uint64_t> first_draws;
  for (uint64_t index = 0; index < 256; ++index) {
    Rng child = a.Fork(index);
    EXPECT_TRUE(first_draws.insert(child.Next()).second)
        << "index " << index << " collides";
  }
}

TEST(RngTest, IndexedForkDependsOnParentState) {
  Rng a(41);
  const Rng before = a;
  a.Next();
  const Rng after = a;
  Rng x = before.Fork(3);
  Rng y = after.Fork(3);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (x.Next() == y.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, IndexedForkChildLooksUniform) {
  // Children must be usable as full-quality streams, not just distinct.
  const Rng a(99);
  double sum = 0;
  constexpr int kChildren = 500;
  for (uint64_t index = 0; index < kChildren; ++index) {
    Rng child = a.Fork(index);
    sum += child.Uniform01();
  }
  EXPECT_NEAR(sum / kChildren, 0.5, 0.05);
}

// ----------------------------------------------------------------- stats --

TEST(StatsTest, MeanBasics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({4.0}), 4.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(StatsTest, StdDevBasics) {
  EXPECT_DOUBLE_EQ(SampleStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({5.0}), 0.0);
  EXPECT_NEAR(SampleStdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              2.1380899, 1e-6);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
}

TEST(StatsTest, QuantileEndpoints) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 30.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25), 20.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.75), 7.5);
}

TEST(StatsTest, MinMax) {
  std::vector<double> xs{3.0, -1.0, 9.0};
  EXPECT_DOUBLE_EQ(Min(xs), -1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 9.0);
}

TEST(StatsTest, SummarizeConsistent) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  const Summary s = Summarize(xs);
  EXPECT_EQ(s.n, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
}

TEST(StatsTest, SummarizeEmpty) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

// ----------------------------------------------------------------- table --

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xxxx", "1"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("a    | long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx | 1"), std::string::npos);
  EXPECT_NE(out.find("-----+---"), std::string::npos);
}

TEST(TableTest, TitleRendered) {
  TablePrinter t({"h"});
  const std::string out = t.ToString("My Title");
  EXPECT_EQ(out.rfind("=== My Title ===\n", 0), 0u);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
  EXPECT_EQ(TablePrinter::Pct(0.125, 1), "12.5%");
  EXPECT_EQ(TablePrinter::Pct(1.0, 0), "100%");
}

// ----------------------------------------------------------------- Crc64 --

/// Bit-at-a-time CRC-64/XZ: the obviously-correct reference the sliced
/// production implementation must match on every length and alignment.
uint64_t ReferenceCrc64(std::string_view bytes) {
  constexpr uint64_t kPoly = 0xC96C5795D7870F42ull;
  uint64_t state = ~0ull;
  for (const char c : bytes) {
    state ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1) ? kPoly : 0);
    }
  }
  return ~state;
}

TEST(Crc64Test, KnownVectors) {
  // The CRC-64/XZ check value from the catalogue of parametrised CRCs.
  EXPECT_EQ(Crc64("123456789"), 0x995DC9BBDF1939FAull);
  EXPECT_EQ(Crc64(""), 0ull);
}

std::string RandomBytes(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
  return bytes;
}

TEST(Crc64Test, MatchesBitwiseReferenceOnEveryLengthAndAlignment) {
  // Every (offset, length) window up to 1,100 bytes exercises the 8-byte
  // loop's head, body and tail in all alignments, and, past the folding
  // kernel's size threshold, every remainder mod 16 and mod 64 of its
  // four-lane loop, its 16-byte blocks and its tail.
  const std::string bytes = RandomBytes(7, 1100 + 15);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      const std::string_view window(bytes.data() + offset, length);
      ASSERT_EQ(Crc64(window), ReferenceCrc64(window))
          << "offset=" << offset << " length=" << length;
    }
  }
  // A body the size of a large frame, with an odd length.
  const std::string large = RandomBytes(9, (size_t{4} << 20) + 1001);
  EXPECT_EQ(Crc64(large), ReferenceCrc64(large));
}

TEST(Crc64Test, StreamingSplitsAgreeWithOneShot) {
  // Every split point, so both halves cross the folding threshold, land
  // on and beside 16- and 64-byte boundaries and cut the four-lane loop.
  const std::string bytes = RandomBytes(11, 1000);
  const uint64_t whole = Crc64(bytes);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    Crc64Stream stream;
    stream.Update(std::string_view(bytes).substr(0, split));
    stream.Update(std::string_view(bytes).substr(split));
    ASSERT_EQ(stream.value(), whole) << "split=" << split;
  }
  // 64 KiB feeds, as shard finalize hashes a file, end in a short one.
  const std::string large = RandomBytes(13, (size_t{4} << 20) + 1001);
  Crc64Stream stream;
  for (size_t at = 0; at < large.size(); at += size_t{64} << 10) {
    stream.Update(std::string_view(large).substr(at, size_t{64} << 10));
  }
  EXPECT_EQ(stream.bytes_fed(), large.size());
  EXPECT_EQ(stream.value(), ReferenceCrc64(large));
}

// ------------------------------------------------------------- decimal --

std::string Printf17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(Decimal17Test, MatchesPrintfOnIntegersAndEveryExponent) {
  // Integral values take the fixed-notation side of %g (csv cells never
  // send the small ones here, plan keys do).
  for (int64_t i = -5000; i <= 5000; ++i) {
    const double v = static_cast<double>(i);
    ASSERT_EQ(FormatDouble17(v), Printf17(v)) << i;
  }
  std::mt19937_64 rng(17);
  for (uint64_t top = 0; top < (uint64_t{1} << 12); ++top) {
    for (int i = 0; i < 8; ++i) {
      const uint64_t bits = (top << 52) | (rng() >> 12);
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      char buf[kDouble17MaxChars];
      const char* end = FormatDouble17(v, buf);
      ASSERT_LE(static_cast<size_t>(end - buf), kDouble17MaxChars);
      ASSERT_EQ(std::string(buf, static_cast<size_t>(end - buf)),
                Printf17(v))
          << std::hex << bits;
    }
  }
  EXPECT_EQ(FormatDouble17(-0.0), "-0");
  EXPECT_EQ(FormatDouble17(0.5), "0.5");
  EXPECT_EQ(FormatDouble17(1e-5), "1.0000000000000001e-05");
}

}  // namespace
}  // namespace popp
