#include "shard/summary_io.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "fault/file.h"
#include "util/decimal.h"
#include "util/integrity.h"

namespace popp::shard {
namespace {

constexpr std::string_view kHeader = "popp-shard-summary v1";
constexpr char kHexDigits[] = "0123456789abcdef";

std::string HexEncode(std::string_view bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out += kHexDigits[c >> 4];
    out += kHexDigits[c & 0xf];
  }
  return out;
}

bool HexNibble(char c, unsigned* out) {
  if (c >= '0' && c <= '9') {
    *out = static_cast<unsigned>(c - '0');
    return true;
  }
  if (c >= 'a' && c <= 'f') {
    *out = static_cast<unsigned>(c - 'a' + 10);
    return true;
  }
  return false;
}

bool HexDecode(std::string_view hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    unsigned hi = 0, lo = 0;
    if (!HexNibble(hex[i], &hi) || !HexNibble(hex[i + 1], &lo)) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Attribute values travel as raw IEEE-754 bit patterns: decimal
/// round-trips would perturb the merged summary and break the
/// byte-identity contract with the single-process fit.
std::string BitsHex(AttrValue value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHexDigits[bits & 0xf];
    bits >>= 4;
  }
  return out;
}

bool ParseBitsHex(std::string_view hex, AttrValue* out) {
  if (hex.size() != 16) return false;
  uint64_t bits = 0;
  for (char c : hex) {
    unsigned nibble = 0;
    if (!HexNibble(c, &nibble)) return false;
    bits = (bits << 4) | nibble;
  }
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::DataLoss("shard summary artifact: " + what);
}

/// Line cursor over the (already footer-verified) payload.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  bool Next(std::string_view* line) {
    if (pos_ >= text_.size()) return false;
    const size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) {
      *line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      *line = text_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
    }
    return true;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string SummaryCodec::Serialize(const ShardSummary& shard) {
  std::ostringstream oss;
  oss << kHeader << "\n";
  oss << "shard " << shard.shard_index << " " << shard.num_shards << "\n";
  oss << "range " << shard.range.begin << " ";
  if (shard.range.open()) {
    oss << "open";
  } else {
    oss << shard.range.end;
  }
  oss << "\n";
  const bool have = shard.summary.has_value();
  oss << "rows " << (have ? shard.summary->NumRows() : 0) << "\n";
  oss << "attributes " << (have ? shard.summary->NumAttributes() : 0) << "\n";
  oss << "classes " << shard.class_names.size() << "\n";
  for (const std::string& name : shard.class_names) {
    oss << "class " << HexEncode(name) << "\n";
  }
  if (have) {
    const stream::IncrementalSummary& summary = *shard.summary;
    for (size_t a = 0; a < summary.NumAttributes(); ++a) {
      for (const auto& [value, counts] : summary.SortedValues(a)) {
        oss << "value " << a << " " << BitsHex(value);
        for (size_t c = 0; c < summary.NumClasses(); ++c) {
          oss << " " << counts[c];
        }
        oss << "\n";
      }
    }
  }
  return WithIntegrityFooter(oss.str());
}

Result<ShardSummary> SummaryCodec::Parse(std::string_view text) {
  bool had_footer = false;
  auto payload = VerifyIntegrityFooter(text, &had_footer);
  if (!payload.ok()) return payload.status();
  if (!had_footer) return Corrupt("missing integrity footer");
  LineCursor cursor(payload.value());
  std::string_view line;
  if (!cursor.Next(&line) || line != kHeader) {
    return Corrupt("unrecognized header");
  }
  ShardSummary shard;
  if (!cursor.Next(&line)) return Corrupt("truncated after header");
  auto words = SplitWords(line);
  if (words.size() != 3 || words[0] != "shard" ||
      !ParseDecimalU64(words[1], &shard.shard_index) ||
      !ParseDecimalU64(words[2], &shard.num_shards)) {
    return Corrupt("malformed shard line");
  }
  if (!cursor.Next(&line)) return Corrupt("missing range line");
  words = SplitWords(line);
  if (words.size() != 3 || words[0] != "range" ||
      !ParseDecimalU64(words[1], &shard.range.begin)) {
    return Corrupt("malformed range line");
  }
  if (words[2] == "open") {
    shard.range.end = kOpenEnd;
  } else if (!ParseDecimalU64(words[2], &shard.range.end)) {
    return Corrupt("malformed range line");
  }
  size_t rows = 0;
  if (!cursor.Next(&line)) return Corrupt("missing rows line");
  words = SplitWords(line);
  if (words.size() != 2 || words[0] != "rows" ||
      !ParseDecimalU64(words[1], &rows)) {
    return Corrupt("malformed rows line");
  }
  size_t num_attributes = 0;
  if (!cursor.Next(&line)) return Corrupt("missing attributes line");
  words = SplitWords(line);
  if (words.size() != 2 || words[0] != "attributes" ||
      !ParseDecimalU64(words[1], &num_attributes)) {
    return Corrupt("malformed attributes line");
  }
  size_t num_classes = 0;
  if (!cursor.Next(&line)) return Corrupt("missing classes line");
  words = SplitWords(line);
  if (words.size() != 2 || words[0] != "classes" ||
      !ParseDecimalU64(words[1], &num_classes)) {
    return Corrupt("malformed classes line");
  }
  shard.class_names.reserve(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    if (!cursor.Next(&line)) return Corrupt("truncated class list");
    words = SplitWords(line);
    std::string name;
    // "class" with no second word is the empty name.
    if (words.empty() || words[0] != "class" || words.size() > 2 ||
        (words.size() == 2 && !HexDecode(words[1], &name))) {
      return Corrupt("malformed class line");
    }
    shard.class_names.push_back(std::move(name));
  }
  if (num_attributes == 0) {
    if (rows != 0 || cursor.Next(&line)) {
      return Corrupt("empty-shard artifact carries rows");
    }
    return shard;
  }
  stream::IncrementalSummary summary(num_attributes);
  summary.num_classes_ = num_classes;
  summary.num_rows_ = rows;
  while (cursor.Next(&line)) {
    words = SplitWords(line);
    if (words.size() != 3 + num_classes || words[0] != "value") {
      return Corrupt("malformed value line");
    }
    size_t attr = 0;
    AttrValue value = 0;
    if (!ParseDecimalU64(words[1], &attr) || attr >= num_attributes ||
        !ParseBitsHex(words[2], &value)) {
      return Corrupt("malformed value line");
    }
    // 0.0 and -0.0 are one value, so a +0 and a -0 line are duplicates.
    uint32_t* counts = summary.AddValue(attr, value);
    if (counts == nullptr) return Corrupt("duplicate value line");
    for (size_t c = 0; c < num_classes; ++c) {
      size_t n = 0;
      if (!ParseDecimalU64(words[3 + c], &n) || n > UINT32_MAX) {
        return Corrupt("malformed value count");
      }
      counts[c] = static_cast<uint32_t>(n);
    }
  }
  shard.summary.emplace(std::move(summary));
  return shard;
}

Status SummaryCodec::Save(const ShardSummary& shard, const std::string& path) {
  return fault::WriteFileAtomic(path, Serialize(shard));
}

Result<ShardSummary> SummaryCodec::Load(const std::string& path) {
  auto text = fault::ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto parsed = Parse(text.value());
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  parsed.status().message() + " in '" + path + "'");
  }
  return parsed;
}

stream::IncrementalSummary SummaryCodec::RemapClasses(
    const stream::IncrementalSummary& in,
    const std::vector<size_t>& local_to_global, size_t num_global_classes) {
  POPP_CHECK_MSG(in.NumAttributes() > 0, "RemapClasses on empty summary");
  POPP_CHECK_MSG(local_to_global.size() >= in.num_classes_,
                 "RemapClasses: mapping misses local classes");
  stream::IncrementalSummary out(in.NumAttributes());
  out.num_classes_ = num_global_classes;
  out.num_rows_ = in.num_rows_;
  for (size_t a = 0; a < in.NumAttributes(); ++a) {
    for (const auto& [value, counts] : in.SortedValues(a)) {
      uint32_t* remapped = out.AddValue(a, value);
      for (size_t c = 0; c < in.num_classes_; ++c) {
        const size_t g = local_to_global[c];
        POPP_CHECK_MSG(g < num_global_classes,
                       "RemapClasses: mapping exceeds global dictionary");
        remapped[g] += counts[c];
      }
    }
  }
  return out;
}

}  // namespace popp::shard
