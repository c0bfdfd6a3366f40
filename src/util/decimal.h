#ifndef POPP_UTIL_DECIMAL_H_
#define POPP_UTIL_DECIMAL_H_

#include <cstddef>
#include <string>

/// \file
/// Exact decimal text for binary64 values: the "%.17g" that every popp
/// text format writes (released CSV cells, plan keys, trees, reproducer
/// recipes, plan-cache fingerprints). 17 significant digits identify every
/// double, and a correctly rounded parse (strtod, from_chars) maps the text
/// back to the same bits. One implementation serves them all. It skips
/// printf's format-string and locale work, which dominated CSV release
/// formatting: nonzero values %g writes in fixed notation take an exact
/// integer path, and the rest go to std::to_chars.

namespace popp {

/// Room FormatDouble17 needs: the longest text is 24 bytes
/// ("-2.2250738585072014e-308").
inline constexpr size_t kDouble17MaxChars = 24;

/// Writes `v` exactly as printf("%.17g") would ("nan", "-nan", "inf" and
/// "-inf" included) to `out`, which must have room for kDouble17MaxChars
/// bytes, and returns one past the last byte of the text.
char* FormatDouble17(double v, char* out);

/// FormatDouble17 as a string.
std::string FormatDouble17(double v);

}  // namespace popp

#endif  // POPP_UTIL_DECIMAL_H_
