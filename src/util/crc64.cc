#include "util/crc64.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#define POPP_CRC64_FOLD 1
#endif

namespace popp {
namespace {

/// Reflected ECMA-182 polynomial (0x42F0E1EBA9EA3693 bit-reversed).
constexpr uint64_t kPoly = 0xC96C5795D7870F42ull;

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table;
/// table[k][b] advances the contribution of a byte that sits k positions
/// deeper in the stream, so eight input bytes fold in a single step.
/// Produces bit-identical CRCs to the one-table loop (same polynomial,
/// same reflection) at roughly 6x the throughput. It is the whole CRC on
/// builds without the folding kernel below, and that kernel's reference,
/// final reduction and tail everywhere.
using SliceTables = std::array<std::array<uint64_t, 256>, 8>;

SliceTables MakeTables() {
  SliceTables tables{};
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint64_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

const SliceTables& Tables() {
  static const SliceTables tables = MakeTables();
  return tables;
}

uint64_t SliceBy8(uint64_t state, std::string_view bytes) {
  const auto& t = Tables();
  const char* p = bytes.data();
  size_t len = bytes.size();
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The 8-byte load maps stream byte 0 onto the low state byte, which
  // only lines up on little-endian hosts; others take the byte loop.
  while (len >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);  // bytes in stream order (little-endian)
    state ^= chunk;
    state = t[7][state & 0xFF] ^ t[6][(state >> 8) & 0xFF] ^
            t[5][(state >> 16) & 0xFF] ^ t[4][(state >> 24) & 0xFF] ^
            t[3][(state >> 32) & 0xFF] ^ t[2][(state >> 40) & 0xFF] ^
            t[1][(state >> 48) & 0xFF] ^ t[0][(state >> 56) & 0xFF];
    p += 8;
    len -= 8;
  }
#endif
  for (; len > 0; ++p, --len) {
    state = t[0][(state ^ static_cast<uint8_t>(*p)) & 0xFF] ^ (state >> 8);
  }
  return state;
}

#if defined(POPP_CRC64_FOLD)

/// x^n mod P in the reflected representation (bit 63 is x^0): n steps of
/// the bitwise CRC loop from 1.
constexpr uint64_t XPowModP(unsigned n) {
  uint64_t v = uint64_t{1} << 63;
  for (unsigned i = 0; i < n; ++i) v = (v >> 1) ^ ((v & 1) ? kPoly : 0);
  return v;
}

/// Inputs shorter than this take the slice-by-8 loop. The four
/// accumulators start from one 64-byte step, and from there on
/// BM_Crc64 (bench/bench_micro_perf.cc) has the kernel ahead.
constexpr size_t kFoldMinBytes = 64;

/// The multipliers that move a 128-bit block D bits along the stream. A
/// register holds 16 stream bytes in load order, so its low lane carries
/// the block's high-degree half H and its high lane the low half L: the
/// block is H·x^64 + L, and H·x^(D+64) + L·x^D is congruent mod P to
/// H·(x^(D+64) mod P) + L·(x^D mod P), a product under 128 bits.
/// PCLMULQDQ on reflected operands yields their product times x, hence
/// the one-lower powers.
template <unsigned D>
__m128i FoldBy() {
  constexpr uint64_t kLow = XPowModP(D + 63);  // multiplies H
  constexpr uint64_t kHigh = XPowModP(D - 1);  // multiplies L
  return _mm_set_epi64x(static_cast<int64_t>(kHigh),
                        static_cast<int64_t>(kLow));
}

/// `acc` moved along by the FoldBy pair `k`, added to the block there.
inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

inline __m128i Load(const char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `len` bytes (a multiple of 16, at least 64) into a 128-bit
/// remainder congruent mod P to the stream with `state` XORed into its
/// first 8 bytes, and returns the CRC state after it: slice-by-8 over
/// the remainder from state 0 performs the final reduction.
uint64_t FoldBlocks(uint64_t state, const char* p, size_t len) {
  const __m128i k512 = FoldBy<512>();  // one lane past the other three
  const __m128i k128 = FoldBy<128>();  // onto the very next block
  __m128i x0 = _mm_xor_si128(
      Load(p), _mm_cvtsi64_si128(static_cast<int64_t>(state)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x0 = Fold(x0, k512, Load(p));
    x1 = Fold(x1, k512, Load(p + 16));
    x2 = Fold(x2, k512, Load(p + 32));
    x3 = Fold(x3, k512, Load(p + 48));
  }
  __m128i x = Fold(Fold(Fold(x0, k128, x1), k128, x2), k128, x3);
  for (; len >= 16; p += 16, len -= 16) x = Fold(x, k128, Load(p));
  char remainder[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(remainder), x);
  return SliceBy8(0, std::string_view(remainder, sizeof(remainder)));
}

#endif  // POPP_CRC64_FOLD

uint64_t Advance(uint64_t state, std::string_view bytes) {
#if defined(POPP_CRC64_FOLD)
  if (bytes.size() >= kFoldMinBytes) {
    const size_t folded = bytes.size() & ~size_t{15};
    state = FoldBlocks(state, bytes.data(), folded);
    bytes.remove_prefix(folded);
  }
#endif
  return SliceBy8(state, bytes);
}

}  // namespace

uint64_t Crc64(std::string_view bytes) {
  return Advance(0xFFFFFFFFFFFFFFFFull, bytes) ^ 0xFFFFFFFFFFFFFFFFull;
}

void Crc64Stream::Update(std::string_view bytes) {
  state_ = Advance(state_, bytes);
  bytes_fed_ += bytes.size();
}

std::string Crc64Hex(uint64_t crc) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[crc & 0xF];
    crc >>= 4;
  }
  return out;
}

bool ParseCrc64Hex(std::string_view text, uint64_t* crc) {
  if (text.size() != 16) return false;
  uint64_t value = 0;
  for (const char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *crc = value;
  return true;
}

}  // namespace popp
