#include "stream/manifest.h"

#include <filesystem>
#include <sstream>
#include <utility>

#include "util/crc64.h"
#include "util/decimal.h"

namespace popp::stream {
namespace {

constexpr std::string_view kHeader = "popp-manifest v1";

/// Splits `text` into lines (without the '\n'); a trailing fragment with
/// no newline is returned too, flagged as torn.
struct Line {
  std::string_view text;
  bool complete = false;  ///< ended in '\n' (a torn tail did not)
};

std::vector<Line> SplitLines(std::string_view text) {
  std::vector<Line> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back({text.substr(start), false});
      break;
    }
    lines.push_back({text.substr(start, nl - start), true});
    start = nl + 1;
  }
  return lines;
}

std::string ChunkLine(const ManifestChunk& chunk) {
  std::ostringstream oss;
  oss << "chunk " << chunk.index << " " << chunk.rows << " " << chunk.bytes
      << " " << Crc64Hex(chunk.crc) << "\n";
  return oss.str();
}

std::string ManifestHeader(const std::string& fingerprint) {
  std::string out(kHeader);
  out += "\nfingerprint ";
  out += fingerprint;
  out += "\n";
  return out;
}

}  // namespace

Result<Manifest> LoadManifest(const std::string& path) {
  auto text = fault::ReadFileToString(path);
  if (!text.ok()) return text.status();
  const std::vector<Line> lines = SplitLines(text.value());
  if (lines.size() < 2 || !lines[0].complete || lines[0].text != kHeader ||
      !lines[1].complete ||
      lines[1].text.rfind("fingerprint ", 0) != 0) {
    return Status::DataLoss("manifest '" + path +
                            "': unrecognized or truncated header");
  }
  Manifest manifest;
  manifest.fingerprint =
      std::string(lines[1].text.substr(std::string_view("fingerprint ").size()));
  for (size_t i = 2; i < lines.size(); ++i) {
    // A torn or malformed line ends the journal: the crash may have hit
    // the journal append itself, and everything before it is still good.
    if (!lines[i].complete) break;
    const auto words = SplitWords(lines[i].text);
    if (words.size() == 5 && words[0] == "chunk") {
      ManifestChunk chunk;
      uint64_t crc = 0;
      if (!ParseDecimalU64(words[1], &chunk.index) ||
          !ParseDecimalU64(words[2], &chunk.rows) ||
          !ParseDecimalU64(words[3], &chunk.bytes) ||
          !ParseCrc64Hex(words[4], &crc) ||
          chunk.index != manifest.chunks.size()) {
        break;
      }
      chunk.crc = crc;
      manifest.chunks.push_back(chunk);
      continue;
    }
    if (words.size() == 4 && words[0] == "complete") {
      size_t chunks = 0, rows = 0, bytes = 0;
      if (ParseDecimalU64(words[1], &chunks) &&
          ParseDecimalU64(words[2], &rows) &&
          ParseDecimalU64(words[3], &bytes) &&
          chunks == manifest.chunks.size()) {
        manifest.complete = true;
      }
      break;
    }
    break;
  }
  return manifest;
}

// ---------------------------------------------------------------------------
// ResumableCsvChunkWriter

ResumableCsvChunkWriter::ResumableCsvChunkWriter(std::string path,
                                                 CsvOptions options,
                                                 bool resume)
    : ResumableCsvChunkWriter(std::move(path), options,
                              ResumeSinkOptions{resume, false, {}}) {}

ResumableCsvChunkWriter::ResumableCsvChunkWriter(std::string path,
                                                 CsvOptions options,
                                                 ResumeSinkOptions sink)
    : final_path_(std::move(path)),
      partial_path_(final_path_ + ".partial"),
      manifest_path_(final_path_ + ".manifest"),
      options_(options),
      sink_(std::move(sink)) {}

Status ResumableCsvChunkWriter::BeginStream(const std::string& fingerprint) {
  POPP_CHECK_MSG(!began_, "BeginStream called twice");
  began_ = true;
  const std::string salted = sink_.fingerprint_salt + fingerprint;
  if (sink_.resume) {
    bool resumed = false;
    POPP_RETURN_IF_ERROR(TryResume(salted, &resumed));
    if (resumed) return Status::Ok();
  }
  return StartFresh(salted);
}

Status ResumableCsvChunkWriter::StartFresh(const std::string& fingerprint) {
  verified_.clear();
  resumed_rows_ = 0;
  next_index_ = 0;
  total_rows_ = 0;
  total_bytes_ = 0;
  POPP_RETURN_IF_ERROR(fault::RemoveFile(partial_path_));
  POPP_RETURN_IF_ERROR(fault::RemoveFile(manifest_path_));
  POPP_RETURN_IF_ERROR(partial_.Open(partial_path_, /*append=*/false));
  POPP_RETURN_IF_ERROR(journal_.Open(manifest_path_, /*append=*/false));
  POPP_RETURN_IF_ERROR(journal_.Write(ManifestHeader(fingerprint)));
  return journal_.Flush();
}

Status ResumableCsvChunkWriter::TryResume(const std::string& fingerprint,
                                          bool* resumed) {
  *resumed = false;
  if (!fault::FileExists(manifest_path_)) return Status::Ok();
  auto loaded = LoadManifest(manifest_path_);
  if (!loaded.ok()) {
    // Unreadable or headerless journal: a fresh run overwrites it. A
    // clean I/O error, though, must not silently degrade to a re-run.
    return loaded.status().code() == StatusCode::kDataLoss
               ? Status::Ok()
               : loaded.status();
  }
  const Manifest& manifest = loaded.value();
  if (manifest.fingerprint != fingerprint) {
    // Different configuration (or different input → different plan):
    // nothing from the interrupted run is reusable.
    return Status::Ok();
  }
  if (manifest.complete && !fault::FileExists(partial_path_) &&
      fault::FileExists(final_path_)) {
    // Crash landed between the rename and the manifest removal: the final
    // artifact exists. Verify it end to end before declaring victory.
    auto bytes = fault::ReadFileToString(final_path_);
    if (!bytes.ok()) return bytes.status();
    size_t offset = 0;
    bool all_good = true;
    for (const ManifestChunk& chunk : manifest.chunks) {
      if (offset + chunk.bytes > bytes.value().size() ||
          Crc64(std::string_view(bytes.value()).substr(offset, chunk.bytes)) !=
              chunk.crc) {
        all_good = false;
        break;
      }
      offset += chunk.bytes;
    }
    if (all_good && offset == bytes.value().size()) {
      verified_ = manifest.chunks;
      for (const ManifestChunk& chunk : verified_) {
        resumed_rows_ += chunk.rows;
      }
      total_rows_ = resumed_rows_;
      total_bytes_ = offset;
      already_complete_ = true;
      *resumed = true;
      return Status::Ok();
    }
    return Status::Ok();  // final was replaced since; start fresh
  }
  if (!fault::FileExists(partial_path_)) return Status::Ok();
  // Re-verify the partial file's prefix against the journal. The first
  // short or corrupt chunk ends the trusted prefix (the crash may have
  // torn the last chunk's bytes after its journal line was lost, or the
  // journal line itself).
  auto bytes = fault::ReadFileToString(partial_path_);
  if (!bytes.ok()) return bytes.status();
  size_t offset = 0;
  for (const ManifestChunk& chunk : manifest.chunks) {
    if (offset + chunk.bytes > bytes.value().size() ||
        Crc64(std::string_view(bytes.value()).substr(offset, chunk.bytes)) !=
            chunk.crc) {
      break;
    }
    offset += chunk.bytes;
    verified_.push_back(chunk);
    resumed_rows_ += chunk.rows;
  }
  // Truncate both files to the verified prefix, rewrite the journal
  // atomically, and reopen both for appending.
  std::error_code ec;
  std::filesystem::resize_file(partial_path_, offset, ec);
  if (ec) {
    return Status::IoError("cannot truncate '" + partial_path_ +
                           "': " + ec.message());
  }
  std::string journal_text = ManifestHeader(fingerprint);
  for (const ManifestChunk& chunk : verified_) {
    journal_text += ChunkLine(chunk);
  }
  POPP_RETURN_IF_ERROR(fault::WriteFileAtomic(manifest_path_, journal_text));
  POPP_RETURN_IF_ERROR(partial_.Open(partial_path_, /*append=*/true));
  POPP_RETURN_IF_ERROR(journal_.Open(manifest_path_, /*append=*/true));
  // NoteSkipped walks the cursor across the reused chunks (0 .. verified),
  // cross-checking row counts; Append takes over exactly where it lands.
  next_index_ = 0;
  total_rows_ = resumed_rows_;
  total_bytes_ = offset;
  *resumed = true;
  return Status::Ok();
}

Status ResumableCsvChunkWriter::NoteSkipped(size_t chunk_index, size_t rows) {
  POPP_CHECK_MSG(began_, "NoteSkipped before BeginStream");
  POPP_CHECK_MSG(chunk_index == next_index_,
                 "chunks skipped out of order: expected " << next_index_
                                                          << ", got "
                                                          << chunk_index);
  if (chunk_index >= verified_.size() ||
      verified_[chunk_index].rows != rows) {
    std::ostringstream oss;
    oss << "resume mismatch at chunk " << chunk_index << ": the journal"
        << (chunk_index < verified_.size()
                ? " recorded " + std::to_string(verified_[chunk_index].rows) +
                      " rows but the stream produced " + std::to_string(rows)
                : " has no such chunk")
        << " — the input changed since the interrupted run; re-run without "
           "--resume";
    return Status::DataLoss(oss.str());
  }
  ++next_index_;
  return Status::Ok();
}

Status ResumableCsvChunkWriter::Append(const Dataset& chunk) {
  if (!began_) {
    POPP_RETURN_IF_ERROR(BeginStream(""));
  }
  if (already_complete_) {
    return Status::DataLoss(
        "the journal marked this release complete but the stream produced "
        "more chunks — the input changed since the interrupted run; re-run "
        "without --resume");
  }
  CsvOptions chunk_options = options_;
  chunk_options.has_header = options_.has_header && next_index_ == 0;
  text_.clear();
  AppendCsv(chunk, chunk_options, &text_);
  // Durability order: chunk bytes reach the partial file (flushed) before
  // the journal line that claims them exists at all.
  POPP_RETURN_IF_ERROR(partial_.Write(text_));
  POPP_RETURN_IF_ERROR(partial_.Flush());
  ManifestChunk entry;
  entry.index = next_index_;
  entry.rows = chunk.NumRows();
  entry.bytes = text_.size();
  entry.crc = Crc64(text_);
  POPP_RETURN_IF_ERROR(journal_.Write(ChunkLine(entry)));
  POPP_RETURN_IF_ERROR(journal_.Flush());
  ++next_index_;
  total_rows_ += entry.rows;
  total_bytes_ += entry.bytes;
  return Status::Ok();
}

Status ResumableCsvChunkWriter::Close() {
  if (closed_) return Status::Ok();
  closed_ = true;
  if (already_complete_) {
    return sink_.keep_manifest_on_close ? Status::Ok()
                                        : fault::RemoveFile(manifest_path_);
  }
  if (!began_) return Status::Ok();  // nothing was ever written
  POPP_RETURN_IF_ERROR(partial_.Close());
  std::ostringstream complete;
  complete << "complete " << next_index_ << " " << total_rows_ << " "
           << total_bytes_ << "\n";
  POPP_RETURN_IF_ERROR(journal_.Write(complete.str()));
  POPP_RETURN_IF_ERROR(journal_.Close());
  POPP_RETURN_IF_ERROR(fault::RenameFile(partial_path_, final_path_));
  if (sink_.keep_manifest_on_close) return Status::Ok();
  return fault::RemoveFile(manifest_path_);
}

}  // namespace popp::stream
