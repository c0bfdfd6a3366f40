#ifndef POPP_STREAM_OOD_POLICY_H_
#define POPP_STREAM_OOD_POLICY_H_

#include <string>

#include "util/status.h"

/// \file
/// Out-of-domain handling for streamed releases. A plan fitted on a prefix
/// (or loaded from disk) only covers the active-domain hull it saw; values
/// beyond that hull arriving mid-stream need an explicit policy:
///
///  - reject:       fail the release with an actionable error.
///  - clamp:        encode as the nearest fitted-hull endpoint. Collides
///                  with the endpoint's image, so the no-outcome-change
///                  guarantee is void for trees splitting near the hull.
///  - extend-piece: linearly extrapolate outside the *output* hull in the
///                  plan's global direction. Strictly order-preserving
///                  (resp. -reversing), never collides with an in-domain
///                  image, so Definition 8 — and with it the
///                  no-outcome-change argument — survives.
///  - refit:        absorb the offending chunk into the running summary and
///                  refit the plan with the same seed before encoding it.
///
/// The two-pass streamed fit sees every value before encoding, so none of
/// these trigger there; they exist for the prefix-fit and loaded-plan modes.
/// The fitted hull is DomainBounds (transform/compiled.h); the clamp and
/// extend-piece encoders are CompiledTransform::EncodeClamped and
/// EncodeExtended.

namespace popp::stream {

enum class OodPolicy {
  kReject,
  kClamp,
  kExtendPiece,
  kRefit,
};

/// Returns "reject", "clamp", "extend-piece" or "refit".
std::string ToString(OodPolicy policy);

/// Parses the CLI spelling (as produced by ToString).
Result<OodPolicy> ParseOodPolicy(const std::string& text);

}  // namespace popp::stream

#endif  // POPP_STREAM_OOD_POLICY_H_
