#include "util/decimal.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace popp {
namespace {

using Uint128 = unsigned __int128;

constexpr uint64_t kTen16 = 10000000000000000ull;
constexpr uint64_t kTen17 = 100000000000000000ull;

/// 10^k for k = 0..21, the scales FormatFixed17 multiplies by.
constexpr std::array<Uint128, 22> kPow10 = [] {
  std::array<Uint128, 22> pow{};
  pow[0] = 1;
  for (size_t k = 1; k < pow.size(); ++k) pow[k] = pow[k - 1] * 10;
  return pow;
}();

/// "%.17g" of a value with 1e-4 <= |v| < 1e17, where %g picks fixed
/// notation: |v| = m * 2^e is scaled by 10^(16-x) in 128-bit integers,
/// where 10^x <= |v| < 10^(x+1), cut to 17 digits and rounded half to even
/// on the exact remainder, as glibc's printf rounds. Almost every released
/// cell is in this range, and there this is faster than std::to_chars with
/// a precision (DESIGN.md §15 has the measurement). Returns nullptr for any
/// other value.
char* FormatFixed17(double v, char* out) {
  if (!(std::fabs(v) >= 1e-4 && std::fabs(v) < 1e17)) return nullptr;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int e = static_cast<int>((bits >> 52) & 0x7ff) - 1075;
  // floor((e + 52) * log10(2)) is x or x - 1; the loop corrects it.
  int x = ((e + 52) * 78913) >> 18;
  Uint128 q = 0;
  int vs_half = -1;  // the dropped remainder against half a unit: -1, 0, +1
  for (;;) {
    const Uint128 scaled = static_cast<Uint128>(m) * kPow10[16 - x];
    if (e >= 0) {
      q = scaled << e;  // exact: nothing is dropped
    } else {
      q = scaled >> -e;
      const Uint128 rem = scaled & ((Uint128{1} << -e) - 1);
      const Uint128 half = Uint128{1} << (-e - 1);
      vs_half = rem < half ? -1 : (rem == half ? 0 : 1);
    }
    if (q < kTen17) break;
    ++x;  // the estimate was one low
  }
  uint64_t digits17 = static_cast<uint64_t>(q);
  if (vs_half > 0 || (vs_half == 0 && (digits17 & 1) != 0)) ++digits17;
  if (digits17 == kTen17) {
    // A carry out of the 17th digit needs a double less than 5e-18
    // (relative) below a power of ten. None exists in this range: 1e0..1e17
    // are doubles, and the doubles nearest 1e-3, 1e-2 and 1e-1 lie above
    // them. The branch stays so that an 18-digit q can never reach the
    // 17-byte digit buffer.
    digits17 = kTen16;
    ++x;
  }
  char digits[17];
  std::to_chars(digits, digits + sizeof(digits), digits17);
  int kept = 17;  // %g drops trailing zeros
  while (kept > 1 && digits[kept - 1] == '0') --kept;

  if (bits >> 63) *out++ = '-';
  if (x >= 0) {
    const int whole = x + 1;  // integer digits
    std::memcpy(out, digits, static_cast<size_t>(whole));
    out += whole;
    if (kept > whole) {
      *out++ = '.';
      std::memcpy(out, digits + whole, static_cast<size_t>(kept - whole));
      out += kept - whole;
    }
    return out;
  }
  // -4 <= x <= -1: "0." and -x - 1 zeros before the digits.
  *out++ = '0';
  *out++ = '.';
  std::memset(out, '0', static_cast<size_t>(-x - 1));
  out += -x - 1;
  std::memcpy(out, digits, static_cast<size_t>(kept));
  return out + kept;
}

}  // namespace

char* FormatDouble17(double v, char* out) {
  if (char* end = FormatFixed17(v, out)) return end;
  // Precision 17 in the general format is "%.17g", digit for digit.
  return std::to_chars(out, out + kDouble17MaxChars, v,
                       std::chars_format::general, 17)
      .ptr;
}

std::string FormatDouble17(double v) {
  char buf[kDouble17MaxChars];
  return std::string(buf, FormatDouble17(v, buf));
}

bool ParseDecimalU64(std::string_view text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace popp
