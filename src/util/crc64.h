#ifndef POPP_UTIL_CRC64_H_
#define POPP_UTIL_CRC64_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

/// \file
/// CRC-64 checksums for artifact integrity (key files, serialized trees,
/// stream-release manifests).
///
/// The variant is CRC-64/XZ (reflected ECMA-182 polynomial, init and
/// final xor 0xFFFFFFFFFFFFFFFF) — the same parameterization xz-utils
/// ships, chosen because it detects all burst errors up to 64 bits and
/// its reference vectors are widely published ("123456789" ->
/// 0x995DC9BBDF1939FA, pinned in util_test). Every serve frame,
/// popp-cols extent and journal chunk is hashed, several times per serve
/// request, so speed matters. On x86-64 builds with PCLMULQDQ and SSE4.1
/// enabled (the default `POPP_NATIVE` build on such a host), inputs of
/// 64 bytes or more are folded 64 bytes per step by carry-less
/// multiplication into four 128-bit accumulators (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009). The slice-by-8 table loop reduces the last 128 bits,
/// takes the tail and shorter inputs, and is the whole CRC on every
/// other build. The choice is made at compile time; every path yields
/// the same value.

namespace popp {

/// CRC-64/XZ of `bytes`.
uint64_t Crc64(std::string_view bytes);

/// Incremental CRC-64/XZ over a byte stream: Update in any split,
/// `value()` at any point equals Crc64 of everything fed so far.
class Crc64Stream {
 public:
  void Update(std::string_view bytes);
  uint64_t value() const { return state_ ^ kXorOut; }
  size_t bytes_fed() const { return bytes_fed_; }

 private:
  static constexpr uint64_t kXorOut = 0xFFFFFFFFFFFFFFFFull;
  uint64_t state_ = kXorOut;
  size_t bytes_fed_ = 0;
};

/// Canonical 16-lower-hex-digit rendering used by every on-disk footer
/// and manifest ("995dc9bbdf1939fa").
std::string Crc64Hex(uint64_t crc);

/// Parses the Crc64Hex form. Returns false on anything that is not
/// exactly 16 hex digits.
bool ParseCrc64Hex(std::string_view text, uint64_t* crc);

}  // namespace popp

#endif  // POPP_UTIL_CRC64_H_
