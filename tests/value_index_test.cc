#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "data/value_index.h"
#include "util/rng.h"

namespace popp {
namespace {

/// Inserts `keys` in order, then checks the slots are 0, 1, 2, ... in
/// first-insertion order and that a second pass finds every key again.
void ExpectDenseSlots(const std::vector<uint64_t>& keys) {
  ValueIndex index;
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Insert(keys[i]), i) << "key " << keys[i];
  }
  ASSERT_EQ(index.size(), keys.size());
  EXPECT_EQ(index.keys(), keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(index.Insert(keys[i]), i) << "key " << keys[i];
  }
  EXPECT_EQ(index.size(), keys.size());
}

TEST(ValueIndexTest, SlotsAreDenseInInsertionOrder) {
  ValueIndex index;
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.Insert(42), 0u);
  EXPECT_EQ(index.Insert(7), 1u);
  EXPECT_EQ(index.Insert(42), 0u);
  EXPECT_EQ(index.Insert(1000), 2u);
  EXPECT_EQ(index.Insert(7), 1u);
  EXPECT_EQ(index.size(), 3u);
  EXPECT_EQ(index.keys(), (std::vector<uint64_t>{42, 7, 1000}));
}

TEST(ValueIndexTest, ZeroSignedZeroAndAllOnesAreDistinctKeys) {
  // The index takes keys verbatim: the bits of 0.0 and -0.0 are two keys.
  ASSERT_EQ(std::bit_cast<uint64_t>(-0.0), 0x8000000000000000ull);
  ExpectDenseSlots({0, 0x8000000000000000ull, ~0ull});
}

TEST(ValueIndexTest, KeysDifferingOnlyInLowOrHighBits) {
  std::vector<uint64_t> low;
  std::vector<uint64_t> high;
  for (uint64_t i = 0; i < 4096; ++i) {
    low.push_back(0x4000000000000000ull | i);
    high.push_back(i << 52);
  }
  ExpectDenseSlots(low);
  ExpectDenseSlots(high);
  // Doubles of small integers differ only in their top bits.
  std::vector<uint64_t> integers;
  for (int i = -2000; i <= 2000; ++i) {
    integers.push_back(std::bit_cast<uint64_t>(static_cast<double>(i)));
  }
  ExpectDenseSlots(integers);
}

TEST(ValueIndexTest, AMillionKeysSurviveRehashes) {
  Rng rng(91);
  std::vector<uint64_t> keys(1000000);
  for (size_t i = 0; i < keys.size(); ++i) {
    // Distinct by construction: the low half counts, the high half is noise.
    keys[i] = (rng.Next() << 32) ^ i;
  }
  ExpectDenseSlots(keys);
}

TEST(ValueIndexTest, TotalOrderKeyOrdersValuesByNumber) {
  const double ordered[] = {-std::numeric_limits<double>::infinity(),
                            -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0,
                            1e300, std::numeric_limits<double>::infinity()};
  for (size_t i = 1; i < std::size(ordered); ++i) {
    EXPECT_LT(TotalOrderKey(std::bit_cast<uint64_t>(ordered[i - 1])),
              TotalOrderKey(std::bit_cast<uint64_t>(ordered[i])))
        << ordered[i - 1] << " vs " << ordered[i];
  }
}

}  // namespace
}  // namespace popp
