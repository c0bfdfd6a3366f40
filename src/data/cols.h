#ifndef POPP_DATA_COLS_H_
#define POPP_DATA_COLS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

/// \file
/// popp-cols v1: the binary columnar dataset container.
///
/// RFC-4180 tokenization was the tax on every pipeline stage once the
/// encode kernels got fast; popp-cols removes it. The container stores the
/// relation column-major — exactly the layout `Dataset` uses in memory —
/// as typed per-column extents, each one independently checksummed, so a
/// reader walks fixed-width machine words instead of re-parsing decimal
/// text. Values round-trip *bit-exactly* (including -0.0, denormals and
/// NaN payloads): a release fed from popp-cols is byte-identical to the
/// same release fed from the equivalent CSV.
///
/// Layout (all integers little-endian; v1 is a little-endian format):
///
///     header (64 bytes)
///       magic "poppcols" · u32 version=1 · u32 header_bytes=64
///       u64 num_rows · u32 num_attributes · u32 num_classes
///       u64 directory_offset · u32 extent_count · u32 flags=0
///       u64 file_bytes · u64 crc64(header[0..56))
///     extents, back to back; each is
///       payload bytes
///       footer: u64 payload_bytes · u64 crc64(payload)
///     directory (extent_count * 32-byte entries), then its own footer
///       u64 payload_offset · u64 payload_bytes · u32 kind · u32 attr
///       u64 crc64(payload)   -- must agree with the extent footer
///
/// Extent kinds:
///   1 schema  — length-prefixed attribute names, then class names
///   2 labels  — u8 code width (1/2/4) + 7 pad, then num_rows codes
///   3 raw     — num_rows IEEE-754 binary64 values (bit patterns)
///   4 dict    — u32 dict size · u8 code width · 3 pad · the column's
///               distinct values (its F_bi active domain, deduplicated by
///               bit pattern, in IEEE total order) · num_rows codes
///
/// The writer picks dict encoding per column whenever it is smaller than
/// raw — low-cardinality attributes (the common covertype shape) shrink to
/// one or two bytes per cell. Every write goes through
/// `fault::AtomicFileWriter`, so a crash never leaves a partial container
/// under the final name; every load re-verifies the header, directory and
/// every extent CRC and refuses damage with an actionable `kDataLoss`.
///
/// Versioning/compat contract: readers accept exactly version 1; a layout
/// change bumps the version and keeps this reader's diagnostics intact.
/// Fields marked pad/flags are zero in v1 and reserved — writers must
/// zero them, readers must not assign them meaning (that is what the
/// version field is for).

namespace popp {

/// The 8-byte magic every container starts with.
inline constexpr std::string_view kColsMagic = "poppcols";

/// True if `prefix` (>= 8 bytes of the file) is a popp-cols container.
bool LooksLikeCols(std::string_view prefix);

/// Encoding statistics of one serialized container.
struct ColsStats {
  size_t num_rows = 0;
  size_t num_attributes = 0;
  size_t dict_columns = 0;  ///< columns that chose dictionary encoding
  size_t raw_columns = 0;   ///< columns stored as raw binary64
  size_t bytes = 0;         ///< total container size
};

/// Serializes `data` as a popp-cols v1 container. Deterministic: equal
/// datasets produce equal bytes. `stats`, if non-null, is filled.
std::string SerializeCols(const Dataset& data, ColsStats* stats = nullptr);

/// Parses a whole container into a Dataset (values bit-identical to the
/// ones serialized). Any structural or integrity damage is `kDataLoss`.
Result<Dataset> ParseCols(std::string_view bytes);

/// Writes `data` to `path` atomically (temp + rename via the hardened
/// I/O layer).
Status WriteCols(const Dataset& data, const std::string& path,
                 ColsStats* stats = nullptr);

/// Reads a container from `path` (mmap-backed; falls back to buffered).
Result<Dataset> ReadCols(const std::string& path);

/// An elementwise map over one attribute's values: `map(attr, in, out, n)`
/// writes the image of `in[i]` to `out[i]` for every i < n (`out` may
/// alias `in`). The image must depend on the value alone: equal input bits
/// give equal output bits, wherever and however often they occur.
using ColumnMap = std::function<void(size_t attr, const AttrValue* in,
                                     AttrValue* out, size_t n)>;

/// A validated, zero-copy view over a container held in externally owned
/// bytes (an mmap or a read buffer; the span must outlive the view).
/// `Open` verifies every checksum and every code eagerly, so
/// `MaterializeRows` cannot fail afterwards — the streaming reader
/// materializes bounded row windows straight out of the mapped extents.
class ColsView {
 public:
  static Result<ColsView> Open(std::string_view bytes);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return columns_.size(); }
  /// True if attribute `attr` is dictionary-encoded.
  bool is_dict(size_t attr) const { return columns_[attr].dict; }
  /// The number of entries in attribute `attr`'s dictionary (0 if raw).
  size_t dict_size(size_t attr) const { return columns_[attr].dict_size; }

  /// Copies rows [begin, end) into a Dataset carrying the full schema.
  /// Requires begin <= end <= num_rows().
  Dataset MaterializeRows(size_t begin, size_t end) const;

  /// True if every stored value is finite: every raw cell and every
  /// dictionary entry, whether or not a row uses it.
  bool AllFinite() const;

  /// The container of the dataset whose attribute `a` is `map(a, .)` of
  /// this view's column `a`: byte-identical to SerializeCols of the mapped
  /// MaterializeRows(0, num_rows()), written without materializing the
  /// rows. A dictionary column maps only the entries some row uses, once
  /// each, deduplicates their images by bit pattern and rewrites the row
  /// codes; a raw column maps every row. Labels are re-emitted at the
  /// width SerializeCols uses, whatever width this container stores.
  std::string SerializeMapped(const ColumnMap& map) const;

 private:
  struct ColumnView {
    bool dict = false;
    const char* raw = nullptr;      ///< raw: num_rows binary64
    const char* dict_values = nullptr;  ///< dict: dict_size binary64
    size_t dict_size = 0;
    const char* codes = nullptr;    ///< dict: num_rows codes
    uint8_t code_width = 0;
  };

  Schema schema_;
  size_t num_rows_ = 0;
  std::vector<ColumnView> columns_;
  const char* label_codes_ = nullptr;
  uint8_t label_width_ = 0;
};

}  // namespace popp

#endif  // POPP_DATA_COLS_H_
