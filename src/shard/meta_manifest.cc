#include "shard/meta_manifest.h"

#include <sstream>
#include <vector>

#include "fault/file.h"
#include "util/crc64.h"
#include "util/decimal.h"
#include "util/integrity.h"

namespace popp::shard {
namespace {

constexpr std::string_view kHeader = "popp-shards v1";

/// Splits off the first `count` space-separated words; the remainder of
/// the line (which may itself contain spaces — shard file names do) comes
/// back in `*rest`.
bool SplitPrefixWords(std::string_view line, size_t count,
                      std::vector<std::string_view>* words,
                      std::string_view* rest) {
  words->clear();
  size_t start = 0;
  for (size_t w = 0; w < count; ++w) {
    const size_t space = line.find(' ', start);
    if (space == std::string_view::npos || space == start) return false;
    words->push_back(line.substr(start, space - start));
    start = space + 1;
  }
  *rest = line.substr(start);
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::DataLoss("shard meta-manifest: " + what);
}

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  return path.substr(0, slash + 1);
}

std::string BaseOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return path;
  return path.substr(slash + 1);
}

}  // namespace

std::string ShardFilePath(const std::string& out_path, size_t index) {
  return out_path + ".shard" + std::to_string(index);
}

std::string ShardSummaryPath(const std::string& out_path, size_t index) {
  return ShardFilePath(out_path, index) + ".sum";
}

std::string SerializeMetaManifest(const MetaManifest& manifest) {
  std::ostringstream oss;
  oss << kHeader << "\n";
  oss << "fingerprint " << manifest.fingerprint << "\n";
  oss << "plan " << Crc64Hex(manifest.plan_crc) << "\n";
  oss << "shards " << manifest.shards.size() << "\n";
  for (const ShardEntry& shard : manifest.shards) {
    oss << "shard " << shard.index << " " << shard.rows << " " << shard.bytes
        << " " << Crc64Hex(shard.crc) << " " << shard.file << "\n";
  }
  return WithIntegrityFooter(oss.str());
}

Result<MetaManifest> ParseMetaManifest(std::string_view text) {
  bool had_footer = false;
  auto payload = VerifyIntegrityFooter(text, &had_footer);
  if (!payload.ok()) return payload.status();
  if (!had_footer) return Corrupt("missing integrity footer");
  std::vector<std::string_view> lines;
  {
    std::string_view rest = payload.value();
    while (!rest.empty()) {
      const size_t nl = rest.find('\n');
      if (nl == std::string_view::npos) {
        lines.push_back(rest);
        break;
      }
      lines.push_back(rest.substr(0, nl));
      rest = rest.substr(nl + 1);
    }
  }
  if (lines.size() < 4 || lines[0] != kHeader) {
    return Corrupt("unrecognized or truncated header");
  }
  MetaManifest manifest;
  if (lines[1].rfind("fingerprint ", 0) != 0) {
    return Corrupt("missing fingerprint line");
  }
  manifest.fingerprint =
      std::string(lines[1].substr(std::string_view("fingerprint ").size()));
  if (lines[2].rfind("plan ", 0) != 0 ||
      !ParseCrc64Hex(lines[2].substr(std::string_view("plan ").size()),
                     &manifest.plan_crc)) {
    return Corrupt("malformed plan line");
  }
  size_t count = 0;
  if (lines[3].rfind("shards ", 0) != 0 ||
      !ParseDecimalU64(lines[3].substr(std::string_view("shards ").size()),
                       &count)) {
    return Corrupt("malformed shards line");
  }
  if (lines.size() != 4 + count) {
    return Corrupt("shard count disagrees with shard lines");
  }
  manifest.shards.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<std::string_view> words;
    std::string_view file;
    ShardEntry entry;
    if (!SplitPrefixWords(lines[4 + i], 5, &words, &file) ||
        words[0] != "shard" || !ParseDecimalU64(words[1], &entry.index) ||
        !ParseDecimalU64(words[2], &entry.rows) ||
        !ParseDecimalU64(words[3], &entry.bytes) ||
        !ParseCrc64Hex(words[4], &entry.crc) || entry.index != i ||
        file.empty()) {
      return Corrupt("malformed shard line " + std::to_string(i));
    }
    entry.file = std::string(file);
    manifest.shards.push_back(std::move(entry));
  }
  return manifest;
}

Status SaveMetaManifest(const MetaManifest& manifest,
                        const std::string& path) {
  MetaManifest relative = manifest;
  for (ShardEntry& shard : relative.shards) {
    shard.file = BaseOf(shard.file);
  }
  return fault::WriteFileAtomic(path, SerializeMetaManifest(relative));
}

Result<MetaManifest> LoadMetaManifest(const std::string& path) {
  auto text = fault::ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto parsed = ParseMetaManifest(text.value());
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  parsed.status().message() + " in '" + path + "'");
  }
  return parsed;
}

Status VerifyShardedRelease(const std::string& manifest_path,
                            const uint64_t* expect_plan_crc,
                            VerifyTotals* totals) {
  auto loaded = LoadMetaManifest(manifest_path);
  if (!loaded.ok()) return loaded.status();
  const MetaManifest& manifest = loaded.value();
  if (expect_plan_crc != nullptr && *expect_plan_crc != manifest.plan_crc) {
    return Status::DataLoss(
        "shard meta-manifest '" + manifest_path +
        "': the supplied key's CRC does not match the release's plan CRC — "
        "wrong key for this release");
  }
  const std::string dir = DirOf(manifest_path);
  VerifyTotals sum;
  for (const ShardEntry& shard : manifest.shards) {
    const std::string path = dir + shard.file;
    const std::string who =
        "shard " + std::to_string(shard.index) + " ('" + shard.file + "')";
    fault::InputFile in;
    Status open = in.Open(path);
    if (!open.ok()) {
      return Status(open.code(), who + ": " + open.message());
    }
    Crc64Stream crc;
    char buffer[1 << 16];
    for (;;) {
      auto got = in.Read(buffer, sizeof(buffer));
      if (!got.ok()) {
        return Status(got.status().code(), who + ": " + got.status().message());
      }
      if (got.value() == 0) break;
      crc.Update(std::string_view(buffer, got.value()));
      if (crc.bytes_fed() > shard.bytes) break;  // already too long
    }
    if (crc.bytes_fed() != shard.bytes) {
      return Status::DataLoss(
          who + ": byte length mismatch: the meta-manifest records " +
          std::to_string(shard.bytes) + " bytes but the file holds " +
          (crc.bytes_fed() > shard.bytes ? "more" : std::to_string(crc.bytes_fed())));
    }
    if (crc.value() != shard.crc) {
      return Status::DataLoss(who +
                              ": CRC-64 mismatch — the shard's bytes were "
                              "corrupted after the release was published");
    }
    sum.shards++;
    sum.rows += shard.rows;
    sum.bytes += shard.bytes;
  }
  if (totals != nullptr) *totals = sum;
  return Status::Ok();
}

}  // namespace popp::shard
