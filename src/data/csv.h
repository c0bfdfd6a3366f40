#ifndef POPP_DATA_CSV_H_
#define POPP_DATA_CSV_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/decimal.h"
#include "util/status.h"

/// \file
/// CSV import/export for datasets.
///
/// Format: one header line with attribute names followed by the class
/// column name; each data line holds numeric attribute values and a class
/// label string in the last field. This is the layout of the UCI covertype
/// distribution after column selection, so a user with the real data can
/// load it directly and rerun every experiment against it.
///
/// The tokenizer is RFC-4180-flavored: fields may be double-quoted, quoted
/// fields may contain the delimiter, escaped quotes ("") and line breaks,
/// lines may end in LF or CRLF, and the final record does not need a
/// trailing newline. Parsing is incremental (`CsvRecordParser` consumes
/// arbitrary byte windows), so the streaming release engine reads
/// gigabyte-scale files in bounded memory through the exact same code path
/// as the one-shot `ParseCsv`.
///
/// Text I/O is a large share of a release (the compiled kernel is about 1%
/// of it), so neither direction allocates per field or per cell: records are
/// views over the parser's buffer, numbers are read with `from_chars`, and
/// cells are written by FormatDouble17 into a caller-owned buffer. Both
/// are byte-for-byte what the historical `strtod`/`snprintf` code accepted
/// and produced.

namespace popp {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// If true, the first line is a header naming the columns.
  bool has_header = true;
};

/// One parsed CSV record: views of its fields and the physical line it
/// started on (quoted fields may span lines, so consecutive records need
/// not be consecutive lines). The views point into the parser's buffer and
/// stay valid until the next Feed. Callers reuse one record, so after the
/// first few rows parsing allocates nothing.
struct CsvRecord {
  std::vector<std::string_view> fields;
  size_t line = 0;
};

/// Incremental CSV tokenizer: feed arbitrary byte windows, pull complete
/// records. A record interrupted by a window boundary (even inside a quoted
/// field) resumes where the scan stopped once more bytes arrive, so the
/// bytes before the cut are not scanned again. Blank lines are skipped.
/// Fields are unescaped in place inside the parser's buffer, so a record
/// costs no allocation: unquoted fields are plain views of the input and
/// quoted ones are compacted over their own raw bytes.
class CsvRecordParser {
 public:
  explicit CsvRecordParser(char delimiter = ',');

  /// Appends input bytes. Invalidates the views of every earlier record.
  void Feed(const char* bytes, size_t size);

  /// Signals end of input: the final record no longer needs a newline.
  void Finish();

  /// Parses the next complete record into `record`. Returns false when the
  /// buffered bytes hold no complete record: Feed more, or, after Finish,
  /// the input is exhausted. An unterminated quote at end of input is an
  /// error.
  Result<bool> Next(CsvRecord* record);

  /// Passes up to `max_records` records without building them and returns
  /// how many it passed; fewer than asked means Feed more, or, after
  /// Finish, the input is exhausted. Record boundaries, line numbers and
  /// the unterminated-quote error are exactly Next's. At a record start
  /// with no '\r' withheld, a line holding no '"' is judged alone with one
  /// memchr: blank if it holds nothing or a lone '\r', else one record.
  /// Every other record (one already begun, a line with a quote, a
  /// delimiter that is '"', '\n' or '\r') goes through Next.
  Result<size_t> SkipRecords(size_t max_records);

 private:
  enum class State {
    kRecordStart,  ///< before the first byte of a record
    kFieldStart,   ///< just after a delimiter
    kUnquoted,     ///< inside an unquoted field
    kQuoted,       ///< inside a quoted field
    kQuoteQuote,   ///< saw a '"' inside a quoted field (escape or close)
  };

  void EndField();
  /// Handles a line terminator; true when it completed a record.
  bool EndOfLine(CsvRecord* record);

  char delim_;
  State state_ = State::kRecordStart;
  bool finished_ = false;
  /// A '\r' outside quotes is withheld until the next byte decides whether
  /// it belongs to a CRLF terminator or is literal field data.
  bool cr_pending_ = false;
  /// Unconsumed input from start_, where the current record begins.
  /// [field_start_, write_) holds the current field's unescaped bytes and
  /// [read_, buf_.size()) the bytes not yet scanned; write_ <= read_
  /// always, since unescaping never lengthens a field.
  std::string buf_;
  size_t start_ = 0;
  size_t field_start_ = 0;
  size_t write_ = 0;
  size_t read_ = 0;
  /// Offset (relative to start_) and size of each finished field of the
  /// record.
  std::vector<std::pair<size_t, size_t>> field_spans_;
  size_t line_ = 1;
  size_t record_line_ = 1;
};

/// Streaming consumer of parsed CSV records: header handling, number
/// parsing, schema discovery and growth (class labels are added in order of
/// first appearance), and row accumulation. Shared by the one-shot
/// ParseCsv/ReadCsv and the chunked reader in src/stream, so both agree
/// byte-for-byte on what a CSV means.
class CsvDatasetBuilder {
 public:
  explicit CsvDatasetBuilder(const CsvOptions& options);

  /// Consumes one record (the first may be the header per the options).
  Status Consume(const CsvRecord& record);

  /// End-of-input validation (an input with no header and no rows is an
  /// error, matching the historical ParseCsv contract).
  Status Finish() const;

  bool have_schema() const { return have_schema_; }

  /// Rows consumed since the last TakeChunk.
  size_t PendingRows() const { return data_.NumRows(); }

  /// Moves the accumulated rows out as a dataset carrying the schema as
  /// grown so far (class ids are stable across chunks: the dictionary only
  /// appends). Callable repeatedly; the builder keeps the schema.
  Dataset TakeChunk();

 private:
  CsvOptions options_;
  bool saw_first_record_ = false;
  bool have_schema_ = false;
  std::vector<std::string> attr_names_;
  Dataset data_;
  std::vector<AttrValue> row_;  // scratch
};

/// Reads a dataset from a CSV file. The last column is the class label
/// (string); all preceding columns must parse as numbers. The file is
/// streamed through the incremental parser, never materialized whole.
Result<Dataset> ReadCsv(const std::string& path,
                        const CsvOptions& options = {});

/// Parses a dataset from an in-memory CSV string (same format as ReadCsv).
Result<Dataset> ParseCsv(std::string_view text, const CsvOptions& options = {});

/// Writes `data` to `path` in the format ReadCsv accepts.
Status WriteCsv(const Dataset& data, const std::string& path,
                const CsvOptions& options = {});

/// Serializes `data` to a CSV string. Names containing the delimiter, a
/// quote, or a line break are quoted (with "" escaping) so every dataset
/// round-trips.
std::string ToCsvString(const Dataset& data, const CsvOptions& options = {});

/// Appends exactly the bytes ToCsvString would return to `out`. Chunk
/// writers pass one buffer for every chunk, so after the first chunk the
/// text costs no allocation at all.
void AppendCsv(const Dataset& data, const CsvOptions& options,
               std::string* out);

/// Room FormatCsvCell needs: integral cells are at most 16 bytes, the
/// others are FormatDouble17 text.
inline constexpr size_t kCsvCellMaxChars = kDouble17MaxChars;

/// Exact serialization for one data cell: integral values below 1e15 print
/// as `%.0f` would (so -0.0 is "-0"), everything else as `%.17g` would
/// (FormatDouble17), so IEEE-754 doubles round-trip bit-exactly. Writes to
/// `out`, which must have room for kCsvCellMaxChars bytes, and returns one
/// past the last byte of the cell.
char* FormatCsvCell(AttrValue v, char* out);

/// FormatCsvCell as a string, for diagnostics.
std::string FormatCsvCell(AttrValue v);

/// Parses one numeric field exactly as `strtod` would and rejects what the
/// reader always rejected: trailing bytes, an empty field, and magnitudes
/// that overflow or underflow (errno ERANGE). `line_no` names the record
/// in the error. This is the reader's rule for every numeric field.
Result<double> ParseCsvCell(std::string_view text, size_t line_no);

}  // namespace popp

#endif  // POPP_DATA_CSV_H_
