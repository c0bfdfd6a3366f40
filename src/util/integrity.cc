#include "util/integrity.h"

#include <cstdio>
#include <sstream>

#include "util/crc64.h"
#include "util/decimal.h"

namespace popp {
namespace {

constexpr std::string_view kFooterWord = "footer ";

}  // namespace

std::string WithIntegrityFooter(std::string payload) {
  POPP_CHECK_MSG(!payload.empty() && payload.back() == '\n',
                 "integrity footer payload must end in a newline");
  const uint64_t crc = Crc64(payload);
  std::ostringstream footer;
  footer << kFooterWord << payload.size() << " " << Crc64Hex(crc) << "\n";
  payload += footer.str();
  return payload;
}

Result<std::string_view> VerifyIntegrityFooter(std::string_view text,
                                               bool* had_footer) {
  *had_footer = false;
  // The footer is the last line; find its start. A document that *begins*
  // with "footer" has no payload and is malformed anyway.
  const size_t nl = text.rfind("\nfooter ");
  if (nl == std::string_view::npos) return text;
  *had_footer = true;
  const std::string_view payload = text.substr(0, nl + 1);
  std::string_view line = text.substr(nl + 1);
  line.remove_prefix(kFooterWord.size());
  if (line.empty() || line.back() != '\n') {
    return Status::DataLoss(
        "malformed integrity footer (no trailing newline) — file truncated "
        "mid-footer?");
  }
  line.remove_suffix(1);
  const size_t space = line.find(' ');
  if (space == std::string_view::npos) {
    return Status::DataLoss("malformed integrity footer line");
  }
  size_t stated_len = 0;
  if (!ParseDecimalU64(line.substr(0, space), &stated_len)) {
    return Status::DataLoss("malformed integrity footer length field");
  }
  uint64_t stated_crc = 0;
  if (!ParseCrc64Hex(line.substr(space + 1), &stated_crc)) {
    return Status::DataLoss("malformed integrity footer checksum field");
  }
  if (stated_len != payload.size()) {
    std::ostringstream oss;
    oss << "integrity footer length mismatch: footer says " << stated_len
        << " bytes, payload has " << payload.size()
        << " — file truncated or partially overwritten";
    return Status::DataLoss(oss.str());
  }
  const uint64_t actual = Crc64(payload);
  if (actual != stated_crc) {
    std::ostringstream oss;
    oss << "integrity checksum mismatch: footer says " << Crc64Hex(stated_crc)
        << ", payload hashes to " << Crc64Hex(actual) << " — file corrupted";
    return Status::DataLoss(oss.str());
  }
  return payload;
}

}  // namespace popp
