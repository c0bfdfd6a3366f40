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
    case OodPolicy::kRefit:
      return "refit";
  }
  return "unknown";
}

Result<OodPolicy> ParseOodPolicy(const std::string& text) {
  if (text == "reject") return OodPolicy::kReject;
  if (text == "clamp") return OodPolicy::kClamp;
  if (text == "extend-piece") return OodPolicy::kExtendPiece;
  if (text == "refit") return OodPolicy::kRefit;
  return Status::InvalidArgument(
      "unknown --ood-policy '" + text +
      "' (expected reject, clamp, extend-piece or refit)");
}

}  // namespace popp::stream
