#ifndef POPP_STREAM_OOD_POLICY_H_
#define POPP_STREAM_OOD_POLICY_H_

#include <string>

#include "util/status.h"

/// \file
/// Out-of-domain handling for streamed releases under a given key
/// (`StreamingCustodian::ReleaseWithPlan`, `--key-in`). A loaded plan only
/// covers the active-domain hull it was fitted on; values beyond that hull
/// need an explicit policy:
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
///
/// The two-pass streamed fit sees every value before encoding, so none of
/// these trigger there.
/// The fitted hull is DomainBounds (transform/compiled.h); the clamp and
/// extend-piece encoders are CompiledTransform::EncodeClamped and
/// EncodeExtended.

namespace popp::stream {

enum class OodPolicy {
  kReject,
  kClamp,
  kExtendPiece,
};

/// Returns "reject", "clamp" or "extend-piece".
std::string ToString(OodPolicy policy);

/// Parses the CLI spelling (as produced by ToString).
Result<OodPolicy> ParseOodPolicy(const std::string& text);

}  // namespace popp::stream

#endif  // POPP_STREAM_OOD_POLICY_H_
