#include "stream/ood_policy.h"

namespace popp::stream {

std::string ToString(OodPolicy policy) {
  switch (policy) {
    case OodPolicy::kReject:
      return "reject";
    case OodPolicy::kClamp:
      return "clamp";
    case OodPolicy::kExtendPiece:
      return "extend-piece";
  }
  return "unknown";
}

Result<OodPolicy> ParseOodPolicy(const std::string& text) {
  if (text == "reject") return OodPolicy::kReject;
  if (text == "clamp") return OodPolicy::kClamp;
  if (text == "extend-piece") return OodPolicy::kExtendPiece;
  return Status::InvalidArgument("unknown --ood-policy '" + text +
                                 "' (expected reject, clamp or extend-piece)");
}

}  // namespace popp::stream
