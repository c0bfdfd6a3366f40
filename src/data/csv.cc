#include "data/csv.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "data/value.h"
#include "fault/file.h"
#include "util/decimal.h"

namespace popp {
namespace {

/// The from_chars fast path of ParseCsvCell: true (and `*out` set) when
/// `text` is a whole number from_chars reads, and the result is one strtod
/// reads identically without flagging ERANGE. from_chars refuses leading
/// blanks, '+' and hex, reports overflow and underflow to zero as out of
/// range, accepts subnormals, which strtod flags, and drops the payload of
/// "nan(...)", which strtod keeps; all those fields take the strtod path.
bool ParseCellFast(std::string_view text, double* out) {
  // Raw inputs are mostly plain integers, which a digit loop reads faster
  // than from_chars. Up to 19 digits fit in 64 bits, and converting one to
  // double rounds to nearest even, as strtod does; "-0" is -0.0 both ways.
  const bool negative = !text.empty() && text[0] == '-';
  const size_t digits = text.size() - (negative ? 1 : 0);
  if (digits > 0 && digits <= 19) {
    uint64_t n = 0;
    size_t i = negative ? 1 : 0;
    for (; i < text.size(); ++i) {
      const unsigned d = static_cast<unsigned char>(text[i]) - '0';
      if (d > 9) break;
      n = n * 10 + d;
    }
    if (i == text.size()) {
      *out = negative ? -static_cast<double>(n) : static_cast<double>(n);
      return true;
    }
  }
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) return false;
  const int kind = std::fpclassify(*out);
  return kind != FP_SUBNORMAL && kind != FP_NAN;
}

/// The historical strtod parse, kept for the rare fields from_chars cannot
/// decide alone (see ParseCellFast).
Result<double> ParseCellWithStrtod(std::string_view text, size_t line_no) {
  const std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(owned.c_str(), &end);
  if (end == owned.c_str() || *end != '\0' || errno == ERANGE) {
    std::ostringstream oss;
    oss << "line " << line_no << ": cannot parse number '" << owned << "'";
    return Status::InvalidArgument(oss.str());
  }
  return v;
}

/// Quotes a name field when it contains bytes the tokenizer treats
/// specially; plain names are written verbatim (keeps existing files and
/// golden fixtures byte-stable).
std::string QuoteIfNeeded(const std::string& field, char delim) {
  const bool needs =
      field.find(delim) != std::string::npos ||
      field.find('"') != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos;
  if (!needs) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

char* FormatCsvCell(AttrValue v, char* out) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    // "%.0f" of an integral double below 1e15 is its integer digits, plus
    // the sign printf keeps on negative zero.
    if (v == 0 && std::signbit(v)) {
      out[0] = '-';
      out[1] = '0';
      return out + 2;
    }
    return std::to_chars(out, out + kCsvCellMaxChars,
                         static_cast<int64_t>(v))
        .ptr;
  }
  return FormatDouble17(v, out);
}

std::string FormatCsvCell(AttrValue v) {
  char buf[kCsvCellMaxChars];
  return std::string(buf, FormatCsvCell(v, buf));
}

Result<double> ParseCsvCell(std::string_view text, size_t line_no) {
  double v = 0;
  if (ParseCellFast(text, &v)) return v;
  return ParseCellWithStrtod(text, line_no);
}

// ------------------------------------------------------------------------
// CsvRecordParser

CsvRecordParser::CsvRecordParser(char delimiter) : delim_(delimiter) {}

void CsvRecordParser::Feed(const char* bytes, size_t size) {
  POPP_CHECK_MSG(!finished_, "CsvRecordParser::Feed after Finish");
  // Drop the consumed records; the unfinished one moves to the front.
  buf_.erase(0, start_);
  field_start_ -= start_;
  write_ -= start_;
  read_ -= start_;
  start_ = 0;
  buf_.append(bytes, size);
}

void CsvRecordParser::Finish() { finished_ = true; }

void CsvRecordParser::EndField() {
  field_spans_.emplace_back(field_start_ - start_, write_ - field_start_);
  // The next field starts after the byte that ended this one.
  field_start_ = write_ = read_;
}

bool CsvRecordParser::EndOfLine(CsvRecord* record) {
  ++line_;
  if (state_ == State::kRecordStart) {
    // Blank line (or bare CRLF): skip, keep scanning.
    record_line_ = line_;
    start_ = field_start_ = write_ = read_;
    return false;
  }
  EndField();
  record->fields.resize(field_spans_.size());
  for (size_t i = 0; i < field_spans_.size(); ++i) {
    record->fields[i] = std::string_view(
        buf_.data() + start_ + field_spans_[i].first, field_spans_[i].second);
  }
  record->line = record_line_;
  field_spans_.clear();
  state_ = State::kRecordStart;
  record_line_ = line_;
  // The record's bytes stay put until the next Feed compacts them.
  start_ = read_;
  return true;
}

Result<bool> CsvRecordParser::Next(CsvRecord* record) {
  char* p = buf_.data();
  const size_t n = buf_.size();
  // Copies the raw run [read_, end) to the write cursor: a no-op until a
  // quote in this field has made its text shorter than its raw bytes.
  auto take_run = [&](size_t end) {
    if (write_ != read_) std::memmove(p + write_, p + read_, end - read_);
    write_ += end - read_;
    read_ = end;
  };
  while (read_ < n) {
    const char c = p[read_];
    if (cr_pending_) {
      cr_pending_ = false;
      if (c == '\n') {
        ++read_;
        if (EndOfLine(record)) return true;
        continue;
      }
      // Lone '\r' not ending a line: literal field data.
      p[write_++] = '\r';
      if (state_ == State::kRecordStart || state_ == State::kFieldStart ||
          state_ == State::kQuoteQuote) {
        state_ = State::kUnquoted;
      }
    }
    switch (state_) {
      case State::kRecordStart:
      case State::kFieldStart:
        if (c == '"') {
          state_ = State::kQuoted;
          ++read_;
          break;
        }
        if (c == delim_) {
          ++read_;
          EndField();
          state_ = State::kFieldStart;
          break;
        }
        if (c == '\n') {
          ++read_;
          if (EndOfLine(record)) return true;
          break;
        }
        if (c == '\r') {
          ++read_;
          cr_pending_ = true;
          break;
        }
        state_ = State::kUnquoted;
        [[fallthrough]];
      case State::kUnquoted: {
        size_t end = read_;
        while (end < n && p[end] != delim_ && p[end] != '\n' &&
               p[end] != '\r') {
          ++end;  // a '"' mid-field is literal
        }
        take_run(end);
        if (end == n) break;
        ++read_;
        if (p[end] == delim_) {
          EndField();
          state_ = State::kFieldStart;
        } else if (p[end] == '\n') {
          if (EndOfLine(record)) return true;
        } else {
          cr_pending_ = true;
        }
        break;
      }
      case State::kQuoted: {
        // Delimiter, CR and LF are all data here.
        size_t end = read_;
        while (end < n && p[end] != '"') {
          if (p[end] == '\n') ++line_;
          ++end;
        }
        take_run(end);
        if (end == n) break;
        ++read_;
        state_ = State::kQuoteQuote;
        break;
      }
      case State::kQuoteQuote:
        ++read_;
        if (c == '"') {
          p[write_++] = '"';  // "" escape
          state_ = State::kQuoted;
        } else if (c == delim_) {
          EndField();
          state_ = State::kFieldStart;
        } else if (c == '\n') {
          if (EndOfLine(record)) return true;
        } else if (c == '\r') {
          cr_pending_ = true;
        } else {
          // Lenient: bytes after a closing quote join the field unquoted.
          p[write_++] = c;
          state_ = State::kUnquoted;
        }
        break;
    }
  }
  if (!finished_) return false;
  if (state_ == State::kQuoted) {
    std::ostringstream oss;
    oss << "line " << record_line_
        << ": unterminated quoted field at end of input";
    return Status::InvalidArgument(oss.str());
  }
  // A trailing '\r' or a missing final newline both terminate the last
  // record.
  cr_pending_ = false;
  return EndOfLine(record);
}

Result<size_t> CsvRecordParser::SkipRecords(size_t max_records) {
  // A delimiter that is a quote or a line-end byte changes where records
  // end, so those dialects take Next for every record.
  const bool lines_are_records =
      delim_ != '"' && delim_ != '\n' && delim_ != '\r';
  const char* const p = buf_.data();
  const size_t n = buf_.size();
  auto find = [&](size_t from, char c) -> size_t {
    const void* at = std::memchr(p + from, c, n - from);
    return at == nullptr ? n
                         : static_cast<size_t>(static_cast<const char*>(at) - p);
  };
  // The first '"' at or after read_ (n if none), searched again only once
  // read_ has passed it.
  size_t quote = find(read_, '"');
  CsvRecord record;
  size_t skipped = 0;
  while (skipped < max_records) {
    if (lines_are_records && state_ == State::kRecordStart && !cr_pending_) {
      if (quote < read_) quote = find(read_, '"');
      const size_t newline = find(read_, '\n');
      if (newline < quote) {
        // A whole line with no quote: as EndOfLine would see it.
        const size_t size = newline - read_;
        const bool blank = size == 0 || (size == 1 && p[read_] == '\r');
        read_ = newline + 1;
        ++line_;
        record_line_ = line_;
        start_ = field_start_ = write_ = read_;
        if (!blank) ++skipped;
        continue;
      }
    }
    auto got = Next(&record);
    if (!got.ok()) return got.status();
    if (!got.value()) break;
    ++skipped;
  }
  return skipped;
}

// ------------------------------------------------------------------------
// CsvDatasetBuilder

CsvDatasetBuilder::CsvDatasetBuilder(const CsvOptions& options)
    : options_(options) {}

Status CsvDatasetBuilder::Consume(const CsvRecord& record) {
  if (!saw_first_record_ && options_.has_header) {
    saw_first_record_ = true;
    if (record.fields.size() < 2) {
      return Status::InvalidArgument(
          "header must have at least one attribute and the class column");
    }
    attr_names_.clear();
    for (size_t i = 0; i + 1 < record.fields.size(); ++i) {
      attr_names_.emplace_back(record.fields[i]);
    }
    data_ = Dataset(Schema(attr_names_, {}));
    have_schema_ = true;
    return Status::Ok();
  }
  saw_first_record_ = true;
  if (!have_schema_) {
    if (record.fields.size() < 2) {
      return Status::InvalidArgument("rows need >= 2 columns");
    }
    attr_names_.resize(record.fields.size() - 1);
    for (size_t i = 0; i + 1 < record.fields.size(); ++i) {
      attr_names_[i] = "attr" + std::to_string(i + 1);
    }
    data_ = Dataset(Schema(attr_names_, {}));
    have_schema_ = true;
  }
  if (record.fields.size() != attr_names_.size() + 1) {
    std::ostringstream oss;
    oss << "line " << record.line << ": expected " << attr_names_.size() + 1
        << " fields, got " << record.fields.size();
    return Status::InvalidArgument(oss.str());
  }
  row_.resize(attr_names_.size());
  for (size_t i = 0; i < attr_names_.size(); ++i) {
    auto parsed = ParseCsvCell(record.fields[i], record.line);
    if (!parsed.ok()) return parsed.status();
    row_[i] = parsed.value();
  }
  const ClassId label =
      data_.mutable_schema().GetOrAddClass(record.fields.back());
  data_.AddRow(row_, label);
  return Status::Ok();
}

Status CsvDatasetBuilder::Finish() const {
  if (!have_schema_) {
    return Status::InvalidArgument("empty CSV input");
  }
  return Status::Ok();
}

Dataset CsvDatasetBuilder::TakeChunk() {
  Dataset chunk = std::move(data_);
  data_ = Dataset(chunk.schema());
  return chunk;
}

// ------------------------------------------------------------------------
// One-shot entry points

namespace {

/// Feeds every complete record the parser holds to the builder.
Status ConsumeRecords(CsvRecordParser* parser, CsvDatasetBuilder* builder,
                      CsvRecord* record) {
  for (;;) {
    auto got = parser->Next(record);
    if (!got.ok()) return got.status();
    if (!got.value()) return Status::Ok();
    POPP_RETURN_IF_ERROR(builder->Consume(*record));
  }
}

}  // namespace

Result<Dataset> ParseCsv(std::string_view text, const CsvOptions& options) {
  CsvRecordParser parser(options.delimiter);
  CsvDatasetBuilder builder(options);
  CsvRecord record;
  parser.Feed(text.data(), text.size());
  parser.Finish();
  POPP_RETURN_IF_ERROR(ConsumeRecords(&parser, &builder, &record));
  POPP_RETURN_IF_ERROR(builder.Finish());
  return builder.TakeChunk();
}

Result<Dataset> ReadCsv(const std::string& path, const CsvOptions& options) {
  fault::InputFile in;
  POPP_RETURN_IF_ERROR(in.Open(path));
  CsvRecordParser parser(options.delimiter);
  CsvDatasetBuilder builder(options);
  CsvRecord record;
  std::vector<char> buffer(1 << 16);
  for (;;) {
    auto got = in.Read(buffer.data(), buffer.size());
    if (!got.ok()) return got.status();
    if (got.value() == 0) break;
    parser.Feed(buffer.data(), got.value());
    POPP_RETURN_IF_ERROR(ConsumeRecords(&parser, &builder, &record));
  }
  parser.Finish();
  POPP_RETURN_IF_ERROR(ConsumeRecords(&parser, &builder, &record));
  POPP_RETURN_IF_ERROR(builder.Finish());
  return builder.TakeChunk();
}

void AppendCsv(const Dataset& data, const CsvOptions& options,
               std::string* out) {
  const char d = options.delimiter;
  if (options.has_header) {
    for (size_t a = 0; a < data.NumAttributes(); ++a) {
      out->append(QuoteIfNeeded(data.schema().AttributeName(a), d));
      out->push_back(d);
    }
    out->append("class\n");
  }
  // Each label's text is quoted once per call, not once per row.
  std::vector<std::string> label_text;
  for (const std::string& name : data.schema().class_names()) {
    label_text.push_back(QuoteIfNeeded(name, d) + '\n');
  }
  const size_t num_attrs = data.NumAttributes();
  std::vector<const AttrValue*> columns(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    columns[a] = data.Column(a).data();
  }
  // One row's cells are formatted into a local buffer and appended at once.
  std::vector<char> row(num_attrs * (kCsvCellMaxChars + 1));
  for (size_t r = 0; r < data.NumRows(); ++r) {
    char* end = row.data();
    for (size_t a = 0; a < num_attrs; ++a) {
      end = FormatCsvCell(columns[a][r], end);
      *end++ = d;
    }
    out->append(row.data(), end);
    const auto label = static_cast<size_t>(data.Label(r));
    POPP_CHECK_MSG(label < label_text.size(),
                   "class id " << data.Label(r) << " out of range "
                               << label_text.size());
    out->append(label_text[label]);
  }
}

std::string ToCsvString(const Dataset& data, const CsvOptions& options) {
  std::string out;
  AppendCsv(data, options, &out);
  return out;
}

Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvOptions& options) {
  return fault::WriteFileAtomic(path, ToCsvString(data, options));
}

}  // namespace popp
