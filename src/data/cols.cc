#include "data/cols.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>
#include <sstream>
#include <utility>

#include "data/value_index.h"
#include "fault/file.h"
#include "fault/mmap.h"
#include "util/crc64.h"

namespace popp {
namespace {

constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 64;
constexpr size_t kFooterBytes = 16;   // u64 payload_bytes + u64 crc64
constexpr size_t kDirEntryBytes = 32;

// Extent kinds.
constexpr uint32_t kKindSchema = 1;
constexpr uint32_t kKindLabels = 2;
constexpr uint32_t kKindColumnRaw = 3;
constexpr uint32_t kKindColumnDict = 4;

// ---------------------------------------------------------- LE plumbing --
// v1 is a little-endian format; encode/decode byte-by-byte so the code is
// correct on any host, with a memcpy fast path on little-endian machines
// for the bulk value arrays.

void PutU32(std::string& out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(b, 8);
}

void PatchU64(std::string& out, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void PutF64(std::string& out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

double GetF64(const char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    double v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return std::bit_cast<double>(GetU64(p));
  }
}

Status Corrupt(const std::string& message) {
  return Status::DataLoss("popp-cols: " + message);
}

/// Code width for a dictionary (or label alphabet) of `n` entries.
uint8_t WidthFor(size_t n) {
  if (n <= (1u << 8)) return 1;
  if (n <= (1u << 16)) return 2;
  return 4;
}

void PutCode(std::string& out, uint32_t code, uint8_t width) {
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((code >> (8 * i)) & 0xff));
  }
}

uint32_t GetCode(const char* p, uint8_t width) {
  uint32_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

/// Width-specialized bulk code decode: one call per column window instead
/// of a per-code width switch — this is the materialization hot loop.
template <typename Fn>
void ForEachCode(const char* codes, uint8_t width, size_t count,
                 const Fn& fn) {
  switch (width) {
    case 1:
      for (size_t i = 0; i < count; ++i) {
        fn(i, static_cast<uint32_t>(static_cast<unsigned char>(codes[i])));
      }
      break;
    case 2:
      for (size_t i = 0; i < count; ++i) {
        const auto* p = reinterpret_cast<const unsigned char*>(codes + i * 2);
        fn(i, static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8));
      }
      break;
    default:
      for (size_t i = 0; i < count; ++i) {
        fn(i, GetCode(codes + i * 4, 4));
      }
      break;
  }
}

// ------------------------------------------------------------- writing --

struct DirEntry {
  uint64_t offset = 0;
  uint64_t payload_bytes = 0;
  uint32_t kind = 0;
  uint32_t attr = 0;
  uint64_t crc = 0;
};

void AppendExtent(std::string& out, uint32_t kind, uint32_t attr,
                  const std::string& payload, std::vector<DirEntry>& dir) {
  DirEntry entry;
  entry.offset = out.size();
  entry.payload_bytes = payload.size();
  entry.kind = kind;
  entry.attr = attr;
  entry.crc = Crc64(payload);
  out += payload;
  PutU64(out, entry.payload_bytes);
  PutU64(out, entry.crc);
  dir.push_back(entry);
}

std::string SchemaPayload(const Schema& schema) {
  std::string payload;
  PutU32(payload, static_cast<uint32_t>(schema.NumAttributes()));
  for (const std::string& name : schema.attribute_names()) {
    PutU32(payload, static_cast<uint32_t>(name.size()));
    payload += name;
  }
  PutU32(payload, static_cast<uint32_t>(schema.NumClasses()));
  for (const std::string& name : schema.class_names()) {
    PutU32(payload, static_cast<uint32_t>(name.size()));
    payload += name;
  }
  return payload;
}

std::string LabelsPayload(const Dataset& data) {
  const uint8_t width = WidthFor(std::max<size_t>(data.NumClasses(), 1));
  std::string payload;
  payload.push_back(static_cast<char>(width));
  payload.append(7, '\0');
  payload.reserve(payload.size() + data.NumRows() * width);
  for (ClassId label : data.labels()) {
    PutCode(payload, static_cast<uint32_t>(label), width);
  }
  return payload;
}

/// Serializes one column, choosing dictionary encoding when it is smaller.
std::string ColumnPayload(const std::vector<AttrValue>& values,
                          uint32_t* kind) {
  const size_t rows = values.size();

  // The column's distinct bit patterns — the dictionary candidate (for an
  // F_bi-heavy attribute this is its active domain). Keys are total-order
  // keys of the bits, so -0.0 stays apart from 0.0 and NaN payloads are
  // kept, or a cols round trip would not be bit-identical to CSV's exact
  // 17-digit round trip. Dictionary framing costs 8 + 8*D + rows*width
  // bytes against rows*8 raw, and width is at least one byte, so once the
  // distinct count D reaches ceil((7*rows - 8) / 8) the dictionary cannot
  // win for any width; stopping the scan at that exact cut-off lets a
  // mostly-distinct column (every released attribute after the piecewise
  // transform) skip the sort entirely, while keeping the dict-vs-raw
  // decision — and therefore the output bytes — identical.
  const size_t no_win_distincts =
      rows >= 2 ? (7 * rows - 8 + 7) / 8 : rows + 1;
  ValueIndex index;
  std::vector<uint32_t> row_slots(rows);
  bool dict_possible = true;
  for (size_t r = 0; r < rows; ++r) {
    row_slots[r] =
        index.Insert(TotalOrderKey(std::bit_cast<uint64_t>(values[r])));
    if (index.size() >= no_win_distincts) {
      dict_possible = false;
      break;
    }
  }

  const size_t dict_size = dict_possible ? index.size() : 0;
  const uint8_t width = WidthFor(std::max<size_t>(dict_size, 1));
  const size_t dict_bytes = 8 + dict_size * 8 + rows * width;
  const size_t raw_bytes = rows * 8;

  std::string payload;
  if (dict_possible && dict_size <= (1ull << 32) && dict_bytes < raw_bytes) {
    *kind = kKindColumnDict;
    payload.reserve(dict_bytes);
    PutU32(payload, static_cast<uint32_t>(dict_size));
    payload.push_back(static_cast<char>(width));
    payload.append(3, '\0');
    // One sort of the distinct keys gives the dictionary order; a row's
    // code is then its slot's rank.
    const std::vector<uint64_t>& keys = index.keys();
    std::vector<uint32_t> sorted(dict_size);
    std::iota(sorted.begin(), sorted.end(), 0u);
    std::sort(sorted.begin(), sorted.end(),
              [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    std::vector<uint32_t> code_of_slot(dict_size);
    for (size_t code = 0; code < dict_size; ++code) {
      const uint64_t key = keys[sorted[code]];
      // Invert the order map to recover the exact bit pattern.
      const uint64_t bits =
          (key & 0x8000000000000000ull) ? key ^ 0x8000000000000000ull : ~key;
      PutF64(payload, std::bit_cast<double>(bits));
      code_of_slot[sorted[code]] = static_cast<uint32_t>(code);
    }
    for (const uint32_t slot : row_slots) {
      PutCode(payload, code_of_slot[slot], width);
    }
  } else {
    *kind = kKindColumnRaw;
    payload.reserve(raw_bytes);
    for (AttrValue v : values) {
      PutF64(payload, v);
    }
  }
  return payload;
}

// ------------------------------------------------------------- parsing --

/// Bounded cursor over one extent payload with typed, checked reads.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}

  bool Have(size_t bytes) const { return size_ - pos_ >= bytes; }
  const char* Here() const { return data_ + pos_; }
  void Skip(size_t bytes) { pos_ += bytes; }

  Result<uint32_t> U32(const char* what) {
    if (!Have(4)) return Corrupt(std::string(what) + " extends past its extent");
    const uint32_t v = GetU32(data_ + pos_);
    pos_ += 4;
    return v;
  }

  Result<std::string> Str(uint32_t len, const char* what) {
    if (!Have(len)) {
      return Corrupt(std::string(what) + " extends past its extent");
    }
    std::string s(data_ + pos_, len);
    pos_ += len;
    return s;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

bool LooksLikeCols(std::string_view prefix) {
  return prefix.size() >= kColsMagic.size() &&
         prefix.substr(0, kColsMagic.size()) == kColsMagic;
}

std::string SerializeCols(const Dataset& data, ColsStats* stats) {
  ColsStats local;
  local.num_rows = data.NumRows();
  local.num_attributes = data.NumAttributes();

  std::string out;
  out.append(kHeaderBytes, '\0');  // patched below

  std::vector<DirEntry> dir;
  AppendExtent(out, kKindSchema, 0, SchemaPayload(data.schema()), dir);
  AppendExtent(out, kKindLabels, 0, LabelsPayload(data), dir);
  for (size_t a = 0; a < data.NumAttributes(); ++a) {
    uint32_t kind = 0;
    const std::string payload = ColumnPayload(data.Column(a), &kind);
    if (kind == kKindColumnDict) {
      ++local.dict_columns;
    } else {
      ++local.raw_columns;
    }
    AppendExtent(out, kind, static_cast<uint32_t>(a), payload, dir);
  }

  const uint64_t directory_offset = out.size();
  std::string dir_bytes;
  for (const DirEntry& entry : dir) {
    PutU64(dir_bytes, entry.offset);
    PutU64(dir_bytes, entry.payload_bytes);
    PutU32(dir_bytes, entry.kind);
    PutU32(dir_bytes, entry.attr);
    PutU64(dir_bytes, entry.crc);
  }
  out += dir_bytes;
  PutU64(out, dir_bytes.size());
  PutU64(out, Crc64(dir_bytes));

  // Patch the header now that every offset is known.
  std::string header;
  header += kColsMagic;
  PutU32(header, kVersion);
  PutU32(header, static_cast<uint32_t>(kHeaderBytes));
  PutU64(header, data.NumRows());
  PutU32(header, static_cast<uint32_t>(data.NumAttributes()));
  PutU32(header, static_cast<uint32_t>(data.NumClasses()));
  PutU64(header, directory_offset);
  PutU32(header, static_cast<uint32_t>(dir.size()));
  PutU32(header, 0);  // flags
  PutU64(header, out.size());
  PutU64(header, Crc64(header));
  POPP_CHECK(header.size() == kHeaderBytes);
  out.replace(0, kHeaderBytes, header);
  (void)PatchU64;  // kept for future in-place patching of large headers

  local.bytes = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

Result<ColsView> ColsView::Open(std::string_view bytes) {
  if (!LooksLikeCols(bytes)) {
    return Corrupt("not a popp-cols container (expected 'poppcols' magic)");
  }
  if (bytes.size() < kHeaderBytes) {
    return Corrupt("truncated container (incomplete header)");
  }
  const char* base = bytes.data();
  const uint32_t version = GetU32(base + 8);
  if (version != kVersion) {
    std::ostringstream oss;
    oss << "unsupported version " << version << " (this reader understands v"
        << kVersion << ")";
    return Corrupt(oss.str());
  }
  if (GetU32(base + 12) != kHeaderBytes) {
    return Corrupt("header size mismatch");
  }
  if (GetU64(base + 56) != Crc64(std::string_view(base, 56))) {
    return Corrupt("header checksum mismatch");
  }
  const uint64_t num_rows = GetU64(base + 16);
  const uint32_t num_attributes = GetU32(base + 24);
  const uint32_t num_classes = GetU32(base + 28);
  const uint64_t directory_offset = GetU64(base + 32);
  const uint32_t extent_count = GetU32(base + 40);
  const uint64_t file_bytes = GetU64(base + 48);
  if (file_bytes != bytes.size()) {
    std::ostringstream oss;
    if (bytes.size() < file_bytes) {
      oss << "truncated container (header declares " << file_bytes
          << " bytes, file has " << bytes.size() << ")";
    } else {
      oss << "trailing bytes after the container (header declares "
          << file_bytes << " bytes, file has " << bytes.size() << ")";
    }
    return Corrupt(oss.str());
  }

  // Directory: bounds, then checksum, then the entries.
  const uint64_t dir_bytes =
      static_cast<uint64_t>(extent_count) * kDirEntryBytes;
  if (directory_offset < kHeaderBytes ||
      directory_offset + dir_bytes + kFooterBytes != file_bytes) {
    return Corrupt("directory does not close the container");
  }
  const char* dir = base + directory_offset;
  if (GetU64(dir + dir_bytes) != dir_bytes ||
      GetU64(dir + dir_bytes + 8) !=
          Crc64(std::string_view(dir, dir_bytes))) {
    return Corrupt("directory checksum mismatch");
  }

  ColsView view;
  view.num_rows_ = num_rows;
  view.columns_.resize(num_attributes);
  std::vector<bool> have_column(num_attributes, false);
  std::vector<std::string> attr_names;
  std::vector<std::string> class_names;
  bool have_schema = false;
  bool have_labels = false;

  for (uint32_t e = 0; e < extent_count; ++e) {
    const char* entry = dir + static_cast<size_t>(e) * kDirEntryBytes;
    const uint64_t offset = GetU64(entry);
    const uint64_t payload_bytes = GetU64(entry + 8);
    const uint32_t kind = GetU32(entry + 16);
    const uint32_t attr = GetU32(entry + 20);
    const uint64_t crc = GetU64(entry + 24);
    std::ostringstream where;
    where << "extent " << e;

    if (offset < kHeaderBytes || offset > directory_offset ||
        payload_bytes > directory_offset - offset ||
        directory_offset - offset - payload_bytes < kFooterBytes) {
      return Corrupt("truncated " + where.str() +
                     " (payload extends past the directory)");
    }
    const char* payload = base + offset;
    const char* footer = payload + payload_bytes;
    if (GetU64(footer) != payload_bytes || GetU64(footer + 8) != crc) {
      return Corrupt(where.str() +
                     " footer disagrees with the directory entry");
    }
    if (Crc64(std::string_view(payload, payload_bytes)) != crc) {
      return Corrupt(where.str() + " checksum mismatch");
    }

    PayloadReader reader(payload, payload_bytes);
    switch (kind) {
      case kKindSchema: {
        if (have_schema) return Corrupt("duplicate schema extent");
        have_schema = true;
        auto attr_count = reader.U32("schema attribute count");
        if (!attr_count.ok()) return attr_count.status();
        if (attr_count.value() != num_attributes) {
          return Corrupt("schema attribute count disagrees with the header");
        }
        for (uint32_t i = 0; i < attr_count.value(); ++i) {
          auto len = reader.U32("schema attribute name length");
          if (!len.ok()) return len.status();
          auto name = reader.Str(len.value(), "schema attribute name");
          if (!name.ok()) return name.status();
          attr_names.push_back(std::move(name).value());
        }
        auto class_count = reader.U32("schema class count");
        if (!class_count.ok()) return class_count.status();
        if (class_count.value() != num_classes) {
          return Corrupt("schema class count disagrees with the header");
        }
        for (uint32_t i = 0; i < class_count.value(); ++i) {
          auto len = reader.U32("schema class name length");
          if (!len.ok()) return len.status();
          auto name = reader.Str(len.value(), "schema class name");
          if (!name.ok()) return name.status();
          class_names.push_back(std::move(name).value());
        }
        break;
      }
      case kKindLabels: {
        if (have_labels) return Corrupt("duplicate label extent");
        have_labels = true;
        if (!reader.Have(8)) return Corrupt("truncated label extent header");
        const uint8_t width = static_cast<uint8_t>(reader.Here()[0]);
        reader.Skip(8);
        if (width != 1 && width != 2 && width != 4) {
          return Corrupt("label code width must be 1, 2 or 4");
        }
        if (reader.remaining() != num_rows * width) {
          return Corrupt("label extent size disagrees with the row count");
        }
        const char* codes = reader.Here();
        for (uint64_t r = 0; r < num_rows; ++r) {
          if (GetCode(codes + r * width, width) >= num_classes) {
            return Corrupt("label code out of range");
          }
        }
        view.label_codes_ = codes;
        view.label_width_ = width;
        break;
      }
      case kKindColumnRaw:
      case kKindColumnDict: {
        if (attr >= num_attributes) {
          return Corrupt("column extent names a nonexistent attribute");
        }
        if (have_column[attr]) {
          return Corrupt("duplicate column extent");
        }
        have_column[attr] = true;
        ColumnView& column = view.columns_[attr];
        if (kind == kKindColumnRaw) {
          if (reader.remaining() != num_rows * 8) {
            return Corrupt(
                "raw column extent size disagrees with the row count");
          }
          column.raw = reader.Here();
        } else {
          auto dict_size = reader.U32("dictionary size");
          if (!dict_size.ok()) return dict_size.status();
          if (!reader.Have(4)) {
            return Corrupt("truncated dictionary header");
          }
          const uint8_t width = static_cast<uint8_t>(reader.Here()[0]);
          reader.Skip(4);
          if (width != 1 && width != 2 && width != 4) {
            return Corrupt("dictionary code width must be 1, 2 or 4");
          }
          if (static_cast<uint64_t>(dict_size.value()) * 8 >
              reader.remaining()) {
            return Corrupt("dictionary extends past its extent");
          }
          column.dict = true;
          column.dict_size = dict_size.value();
          column.dict_values = reader.Here();
          reader.Skip(column.dict_size * 8);
          if (reader.remaining() != num_rows * width) {
            return Corrupt(
                "dictionary column codes disagree with the row count");
          }
          column.codes = reader.Here();
          column.code_width = width;
          for (uint64_t r = 0; r < num_rows; ++r) {
            if (GetCode(column.codes + r * width, width) >=
                column.dict_size) {
              return Corrupt("dictionary code out of range");
            }
          }
        }
        break;
      }
      default: {
        std::ostringstream oss;
        oss << "unknown extent kind " << kind;
        return Corrupt(oss.str());
      }
    }
  }

  if (!have_schema) return Corrupt("missing schema extent");
  if (!have_labels) return Corrupt("missing label extent");
  for (uint32_t a = 0; a < num_attributes; ++a) {
    if (!have_column[a]) {
      std::ostringstream oss;
      oss << "missing column extent for attribute " << a;
      return Corrupt(oss.str());
    }
  }
  view.schema_ = Schema(std::move(attr_names), std::move(class_names));
  return view;
}

Dataset ColsView::MaterializeRows(size_t begin, size_t end) const {
  POPP_CHECK_MSG(begin <= end && end <= num_rows_,
                 "row window [" << begin << ", " << end << ") out of range "
                                << num_rows_);
  const size_t rows = end - begin;
  std::vector<std::vector<AttrValue>> columns(columns_.size());
  for (size_t a = 0; a < columns_.size(); ++a) {
    const ColumnView& column = columns_[a];
    std::vector<AttrValue>& out = columns[a];
    out.resize(rows);
    if (column.dict) {
      ForEachCode(column.codes + begin * column.code_width,
                  column.code_width, rows, [&](size_t r, uint32_t code) {
                    out[r] = GetF64(column.dict_values +
                                    static_cast<size_t>(code) * 8);
                  });
    } else if (rows > 0) {  // empty vector data() may be null; memcpy forbids it
      if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(out.data(), column.raw + begin * 8, rows * 8);
      } else {
        for (size_t r = 0; r < rows; ++r) {
          out[r] = GetF64(column.raw + (begin + r) * 8);
        }
      }
    }
  }
  std::vector<ClassId> labels(rows);
  ForEachCode(label_codes_ + begin * label_width_, label_width_, rows,
              [&](size_t r, uint32_t code) {
                labels[r] = static_cast<ClassId>(code);
              });
  return Dataset(schema_, std::move(columns), std::move(labels));
}

Result<Dataset> ParseCols(std::string_view bytes) {
  auto view = ColsView::Open(bytes);
  if (!view.ok()) return view.status();
  return view.value().MaterializeRows(0, view.value().num_rows());
}

Status WriteCols(const Dataset& data, const std::string& path,
                 ColsStats* stats) {
  fault::AtomicFileWriter writer(path);
  POPP_RETURN_IF_ERROR(writer.Open());
  POPP_RETURN_IF_ERROR(writer.Append(SerializeCols(data, stats)));
  return writer.Commit();
}

Result<Dataset> ReadCols(const std::string& path) {
  fault::MappedFile map;
  POPP_RETURN_IF_ERROR(map.Open(path));
  return ParseCols(std::string_view(map.data(), map.size()));
}

}  // namespace popp
