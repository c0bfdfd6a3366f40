#include "data/cols.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
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

/// Appends `bytes` bytes to `out` for the caller to fill; returns them.
char* Grow(std::string& out, size_t bytes) {
  const size_t at = out.size();
  out.resize(at + bytes);
  return out.data() + at;
}

void StoreU64(char* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PutU64(std::string& out, uint64_t v) { StoreU64(Grow(out, 8), v); }

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

double GetF64(const char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    double v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return std::bit_cast<double>(GetU64(p));
  }
}

/// Copies `count` stored binary64 values to `out`.
void GetF64s(const char* p, size_t count, double* out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out, p, count * 8);  // memcpy forbids null
  } else {
    for (size_t i = 0; i < count; ++i) out[i] = GetF64(p + i * 8);
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

template <int Width>
uint32_t LoadCode(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < Width; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

template <int Width>
void StoreCode(char* p, uint32_t code) {
  for (int i = 0; i < Width; ++i) {
    p[i] = static_cast<char>((code >> (8 * i)) & 0xff);
  }
}

/// Width-specialized bulk code decode: one call per column window instead
/// of a per-code width switch — this is the materialization hot loop.
template <typename Fn>
void ForEachCode(const char* codes, uint8_t width, size_t count,
                 const Fn& fn) {
  switch (width) {
    case 1:
      for (size_t i = 0; i < count; ++i) fn(i, LoadCode<1>(codes + i));
      break;
    case 2:
      for (size_t i = 0; i < count; ++i) fn(i, LoadCode<2>(codes + i * 2));
      break;
    default:
      for (size_t i = 0; i < count; ++i) fn(i, LoadCode<4>(codes + i * 4));
      break;
  }
}

/// The largest of `count` codes (0 if there are none), in one
/// width-specialized max reduction.
uint32_t MaxCode(const char* codes, uint8_t width, size_t count) {
  uint32_t max = 0;
  ForEachCode(codes, width, count,
              [&](size_t, uint32_t code) { max = std::max(max, code); });
  return max;
}

/// Width-specialized bulk code encode: writes `count` codes of `width`
/// bytes to `out`, `code_at(i)` for the i-th.
template <typename CodeAt>
void StoreCodes(char* out, uint8_t width, size_t count,
                const CodeAt& code_at) {
  switch (width) {
    case 1:
      for (size_t i = 0; i < count; ++i) StoreCode<1>(out + i, code_at(i));
      break;
    case 2:
      for (size_t i = 0; i < count; ++i) {
        StoreCode<2>(out + i * 2, code_at(i));
      }
      break;
    default:
      for (size_t i = 0; i < count; ++i) {
        StoreCode<4>(out + i * 4, code_at(i));
      }
      break;
  }
}

/// Rewrites `count` codes of `width` bytes as codes of `out_width` bytes,
/// mapping each through `fn`; both widths are resolved outside the loop.
template <typename Fn>
void RecodeCodes(const char* codes, uint8_t width, size_t count, char* out,
                 uint8_t out_width, const Fn& fn) {
  switch (width) {
    case 1:
      StoreCodes(out, out_width, count,
                 [&](size_t i) { return fn(LoadCode<1>(codes + i)); });
      break;
    case 2:
      StoreCodes(out, out_width, count,
                 [&](size_t i) { return fn(LoadCode<2>(codes + i * 2)); });
      break;
    default:
      StoreCodes(out, out_width, count,
                 [&](size_t i) { return fn(LoadCode<4>(codes + i * 4)); });
      break;
  }
}

/// Inverts TotalOrderKey: the binary64 bit pattern a key was made from.
uint64_t BitsOfTotalOrderKey(uint64_t key) {
  return (key & 0x8000000000000000ull) ? key ^ 0x8000000000000000ull : ~key;
}

// ------------------------------------------------------------- writing --

struct DirEntry {
  uint64_t offset = 0;
  uint64_t payload_bytes = 0;
  uint32_t kind = 0;
  uint32_t attr = 0;
  uint64_t crc = 0;
};

/// The one container writer: a header placeholder, then the schema
/// extent, then extents whose payloads the caller appends to out() in
/// place, each closed with its footer and directory entry; Finish appends
/// the directory and fills in the header.
class ContainerWriter {
 public:
  explicit ContainerWriter(const Schema& schema) : schema_(schema) {
    out_.append(kHeaderBytes, '\0');
    PutU32(out_, static_cast<uint32_t>(schema.NumAttributes()));
    for (const std::string& name : schema.attribute_names()) {
      PutU32(out_, static_cast<uint32_t>(name.size()));
      out_ += name;
    }
    PutU32(out_, static_cast<uint32_t>(schema.NumClasses()));
    for (const std::string& name : schema.class_names()) {
      PutU32(out_, static_cast<uint32_t>(name.size()));
      out_ += name;
    }
    CloseExtent(kKindSchema, 0);
  }

  /// The container so far; the open extent's payload is everything
  /// appended since the last CloseExtent.
  std::string& out() { return out_; }

  void CloseExtent(uint32_t kind, uint32_t attr) {
    DirEntry entry;
    entry.offset = extent_begin_;
    entry.payload_bytes = out_.size() - extent_begin_;
    entry.kind = kind;
    entry.attr = attr;
    entry.crc = Crc64(std::string_view(out_).substr(extent_begin_));
    PutU64(out_, entry.payload_bytes);
    PutU64(out_, entry.crc);
    dir_.push_back(entry);
    extent_begin_ = out_.size();
    if (kind == kKindColumnDict) ++dict_columns_;
    if (kind == kKindColumnRaw) ++raw_columns_;
  }

  std::string Finish(uint64_t num_rows, ColsStats* stats) {
    const uint64_t directory_offset = out_.size();
    std::string dir_bytes;
    for (const DirEntry& entry : dir_) {
      PutU64(dir_bytes, entry.offset);
      PutU64(dir_bytes, entry.payload_bytes);
      PutU32(dir_bytes, entry.kind);
      PutU32(dir_bytes, entry.attr);
      PutU64(dir_bytes, entry.crc);
    }
    out_ += dir_bytes;
    PutU64(out_, dir_bytes.size());
    PutU64(out_, Crc64(dir_bytes));

    std::string header;
    header += kColsMagic;
    PutU32(header, kVersion);
    PutU32(header, static_cast<uint32_t>(kHeaderBytes));
    PutU64(header, num_rows);
    PutU32(header, static_cast<uint32_t>(schema_.NumAttributes()));
    PutU32(header, static_cast<uint32_t>(schema_.NumClasses()));
    PutU64(header, directory_offset);
    PutU32(header, static_cast<uint32_t>(dir_.size()));
    PutU32(header, 0);  // flags
    PutU64(header, out_.size());
    PutU64(header, Crc64(header));
    POPP_CHECK(header.size() == kHeaderBytes);
    out_.replace(0, kHeaderBytes, header);

    if (stats != nullptr) {
      stats->num_rows = num_rows;
      stats->num_attributes = schema_.NumAttributes();
      stats->dict_columns = dict_columns_;
      stats->raw_columns = raw_columns_;
      stats->bytes = out_.size();
    }
    return std::move(out_);
  }

 private:
  const Schema& schema_;
  std::string out_;
  size_t extent_begin_ = kHeaderBytes;
  std::vector<DirEntry> dir_;
  size_t dict_columns_ = 0;
  size_t raw_columns_ = 0;
};

/// Appends a label extent's header for `num_classes` classes and returns
/// the code width, which depends on the alphabet alone.
uint8_t AppendLabelHeader(std::string& out, size_t num_classes) {
  const uint8_t width = WidthFor(std::max<size_t>(num_classes, 1));
  out.push_back(static_cast<char>(width));
  out.append(7, '\0');
  return width;
}

/// The distinct count at which a dictionary can no longer beat raw for
/// `rows` rows. Dictionary framing costs 8 + 8*D + rows*width bytes
/// against rows*8 raw, and width is at least one byte, so once D reaches
/// ceil((7*rows - 8) / 8) the dictionary cannot win for any width.
size_t NoWinDistincts(size_t rows) {
  return rows >= 2 ? (7 * rows - 8 + 7) / 8 : rows + 1;
}

/// The dict-vs-raw rule every column writer follows: a column of `rows`
/// rows and `distincts` distinct bit patterns is stored as a dictionary
/// exactly when that is strictly smaller than raw. `*width` receives the
/// dictionary's code width.
bool DictWins(size_t distincts, size_t rows, uint8_t* width) {
  *width = WidthFor(std::max<size_t>(distincts, 1));
  if (distincts >= NoWinDistincts(rows)) return false;
  const size_t dict_bytes = 8 + distincts * 8 + rows * *width;
  return distincts <= (1ull << 32) && dict_bytes < rows * 8;
}

/// Ranks total-order keys, one per slot and possibly repeated: `distinct`
/// receives the distinct keys in ascending order — a released dictionary
/// — and the result maps each slot to its key's position there. Keys are
/// compared as integers, so two values are one entry exactly when their
/// bit patterns agree: -0.0 stays apart from 0.0.
std::vector<uint32_t> RankKeys(const std::vector<uint64_t>& keys,
                               std::vector<uint64_t>* distinct) {
  std::vector<std::pair<uint64_t, uint32_t>> order(keys.size());
  for (size_t slot = 0; slot < keys.size(); ++slot) {
    order[slot] = {keys[slot], static_cast<uint32_t>(slot)};
  }
  std::sort(order.begin(), order.end());
  std::vector<uint32_t> rank(keys.size());
  distinct->clear();
  for (const auto& [key, slot] : order) {
    if (distinct->empty() || distinct->back() != key) distinct->push_back(key);
    rank[slot] = static_cast<uint32_t>(distinct->size() - 1);
  }
  return rank;
}

/// Appends a dictionary extent's header and entries: u32 size, u8 code
/// width, 3 pad, then the binary64 bit pattern of each key.
void AppendDictionary(std::string& out, const std::vector<uint64_t>& keys,
                      uint8_t width) {
  PutU32(out, static_cast<uint32_t>(keys.size()));
  out.push_back(static_cast<char>(width));
  out.append(3, '\0');
  char* entries = Grow(out, keys.size() * 8);
  for (size_t i = 0; i < keys.size(); ++i) {
    StoreU64(entries + i * 8, BitsOfTotalOrderKey(keys[i]));
  }
}

/// Appends one column's payload, a dictionary when DictWins and raw
/// binary64 otherwise, and returns its kind.
uint32_t AppendColumn(std::string& out, const std::vector<AttrValue>& values) {
  const size_t rows = values.size();

  // The column's distinct bit patterns — the dictionary candidate (for an
  // F_bi-heavy attribute this is its active domain). Keys are total-order
  // keys of the bits, so -0.0 stays apart from 0.0 and NaN payloads are
  // kept, or a cols round trip would not be bit-identical to CSV's exact
  // 17-digit round trip. Stopping the scan at NoWinDistincts lets a
  // mostly-distinct column (every released attribute after the piecewise
  // transform) skip the sort entirely, while keeping the dict-vs-raw
  // decision — and therefore the output bytes — identical.
  const size_t no_win_distincts = NoWinDistincts(rows);
  ValueIndex index;
  std::vector<uint32_t> row_slots(rows);
  for (size_t r = 0; r < rows && index.size() < no_win_distincts; ++r) {
    row_slots[r] =
        index.Insert(TotalOrderKey(std::bit_cast<uint64_t>(values[r])));
  }

  uint8_t width = 0;
  if (!DictWins(index.size(), rows, &width)) {
    char* raw = Grow(out, rows * 8);
    for (size_t r = 0; r < rows; ++r) {
      StoreU64(raw + r * 8, std::bit_cast<uint64_t>(values[r]));
    }
    return kKindColumnRaw;
  }
  // One sort of the distinct keys gives the dictionary order; a row's
  // code is then its slot's rank.
  std::vector<uint64_t> keys;
  const std::vector<uint32_t> rank = RankKeys(index.keys(), &keys);
  AppendDictionary(out, keys, width);
  StoreCodes(Grow(out, rows * width), width, rows,
             [&](size_t r) { return rank[row_slots[r]]; });
  return kKindColumnDict;
}

/// Appends the payload of a dictionary column released through `map`,
/// equal to AppendColumn over the mapped rows. `map` depends on the value
/// alone, so it runs once per dictionary entry some row uses, and a row's
/// image is its entry's. An entry no row uses is skipped: its image is
/// not in the released column. The images, deduplicated by bit pattern,
/// form the released dictionary and the row codes are rewritten through
/// an entry -> code table; when DictWins says no, each row gets its
/// entry's image raw.
template <typename Map>
uint32_t AppendMappedDictColumn(std::string& out, const char* dict_values,
                                size_t dict_size, const char* codes,
                                uint8_t code_width, size_t rows,
                                const Map& map) {
  constexpr uint32_t kUnused = UINT32_MAX;
  std::vector<uint32_t> slot_of_entry(dict_size, kUnused);
  ForEachCode(codes, code_width, rows,
              [&](size_t, uint32_t code) { slot_of_entry[code] = 0; });
  std::vector<AttrValue> images;
  for (size_t e = 0; e < dict_size; ++e) {
    if (slot_of_entry[e] == kUnused) continue;
    slot_of_entry[e] = static_cast<uint32_t>(images.size());
    images.push_back(GetF64(dict_values + e * 8));
  }
  if (!images.empty()) map(images.data(), images.data(), images.size());

  std::vector<uint64_t> image_bits(images.size());
  std::vector<uint64_t> keys(images.size());
  for (size_t slot = 0; slot < images.size(); ++slot) {
    image_bits[slot] = std::bit_cast<uint64_t>(images[slot]);
    keys[slot] = TotalOrderKey(image_bits[slot]);
  }
  std::vector<uint64_t> distinct;
  const std::vector<uint32_t> rank = RankKeys(keys, &distinct);

  uint8_t width = 0;
  if (DictWins(distinct.size(), rows, &width)) {
    AppendDictionary(out, distinct, width);
    std::vector<uint32_t> code_of_entry(dict_size, 0);
    for (size_t e = 0; e < dict_size; ++e) {
      if (slot_of_entry[e] != kUnused) {
        code_of_entry[e] = rank[slot_of_entry[e]];
      }
    }
    RecodeCodes(codes, code_width, rows, Grow(out, rows * width), width,
                [&](uint32_t code) { return code_of_entry[code]; });
    return kKindColumnDict;
  }
  std::vector<uint64_t> bits_of_entry(dict_size, 0);
  for (size_t e = 0; e < dict_size; ++e) {
    if (slot_of_entry[e] != kUnused) {
      bits_of_entry[e] = image_bits[slot_of_entry[e]];
    }
  }
  char* raw = Grow(out, rows * 8);
  ForEachCode(codes, code_width, rows, [&](size_t r, uint32_t code) {
    StoreU64(raw + r * 8, bits_of_entry[code]);
  });
  return kKindColumnRaw;
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
  ContainerWriter writer(data.schema());
  std::string& out = writer.out();
  const size_t rows = data.NumRows();
  const uint8_t label_width = AppendLabelHeader(out, data.NumClasses());
  StoreCodes(Grow(out, rows * label_width), label_width, rows,
             [&](size_t r) { return static_cast<uint32_t>(data.Label(r)); });
  writer.CloseExtent(kKindLabels, 0);
  for (size_t a = 0; a < data.NumAttributes(); ++a) {
    writer.CloseExtent(AppendColumn(out, data.Column(a)),
                       static_cast<uint32_t>(a));
  }
  return writer.Finish(rows, stats);
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
        if (num_rows > 0 && MaxCode(codes, width, num_rows) >= num_classes) {
          return Corrupt("label code out of range");
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
          if (num_rows > 0 &&
              MaxCode(column.codes, width, num_rows) >= column.dict_size) {
            return Corrupt("dictionary code out of range");
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
    } else {
      GetF64s(column.raw + begin * 8, rows, out.data());
    }
  }
  std::vector<ClassId> labels(rows);
  ForEachCode(label_codes_ + begin * label_width_, label_width_, rows,
              [&](size_t r, uint32_t code) {
                labels[r] = static_cast<ClassId>(code);
              });
  return Dataset(schema_, std::move(columns), std::move(labels));
}

bool ColsView::AllFinite() const {
  bool finite = true;
  for (const ColumnView& column : columns_) {
    const char* values = column.dict ? column.dict_values : column.raw;
    const size_t count = column.dict ? column.dict_size : num_rows_;
    for (size_t i = 0; i < count; ++i) {
      finite &= std::isfinite(GetF64(values + i * 8));
    }
  }
  return finite;
}

std::string ColsView::SerializeMapped(const ColumnMap& map) const {
  ContainerWriter writer(schema_);
  std::string& out = writer.out();
  const uint8_t label_width = AppendLabelHeader(out, schema_.NumClasses());
  RecodeCodes(label_codes_, label_width_, num_rows_,
              Grow(out, num_rows_ * label_width), label_width,
              [](uint32_t code) { return code; });
  writer.CloseExtent(kKindLabels, 0);
  std::vector<AttrValue> values;
  for (size_t a = 0; a < columns_.size(); ++a) {
    const ColumnView& column = columns_[a];
    const auto map_attr = [&](const AttrValue* in, AttrValue* mapped,
                              size_t n) { map(a, in, mapped, n); };
    uint32_t kind = 0;
    if (column.dict) {
      kind = AppendMappedDictColumn(out, column.dict_values, column.dict_size,
                                    column.codes, column.code_width,
                                    num_rows_, map_attr);
    } else {
      values.resize(num_rows_);
      GetF64s(column.raw, num_rows_, values.data());
      if (num_rows_ > 0) map_attr(values.data(), values.data(), num_rows_);
      kind = AppendColumn(out, values);
    }
    writer.CloseExtent(kind, static_cast<uint32_t>(a));
  }
  return writer.Finish(num_rows_, nullptr);
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
