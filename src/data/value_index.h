#ifndef POPP_DATA_VALUE_INDEX_H_
#define POPP_DATA_VALUE_INDEX_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

/// \file
/// A flat open-addressing index from a 64-bit key to a dense slot number,
/// handed out in first-insertion order (0, 1, 2, ...). The per-cell paths
/// that group attribute values — the streamed summary's class histograms
/// and the popp-cols dictionary scan — pay one probe per cell here and keep
/// their per-value state in plain vectors indexed by slot; ordering the
/// distinct values is left to one sort of the (few) keys afterwards.
///
/// Keys are taken verbatim: the index canonicalizes nothing, so whether
/// -0.0 and 0.0 are one key is the caller's choice of key. Memory is
/// O(#distinct keys): a power-of-two table kept at most half full, plus the
/// keys in slot order.

namespace popp {

/// Maps a binary64 bit pattern onto a key whose unsigned order is the
/// IEEE-754 total order (-NaN < -inf < ... < -0 < +0 < ... < +NaN). The map
/// is injective, so sorting by it orders values by number and keeps every
/// distinct bit pattern (-0.0 apart from 0.0, each NaN payload) apart.
inline uint64_t TotalOrderKey(uint64_t bits) {
  return (bits & 0x8000000000000000ull) ? ~bits
                                        : bits ^ 0x8000000000000000ull;
}

class ValueIndex {
 public:
  /// The slot of `key`; a new key gets the next slot, size() before the
  /// call.
  uint32_t Insert(uint64_t key) {
    if (table_.empty()) Rehash(kMinCapacity);
    for (size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      const Entry& entry = table_[i];
      if (entry.slot == kEmpty) return Add(i, key);
      if (entry.key == key) return entry.slot;
    }
  }

  size_t size() const { return keys_.size(); }

  /// Keys in slot order: keys()[s] is the key that slot s was handed to.
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  struct Entry {
    uint64_t key = 0;
    uint32_t slot = 0;
  };

  /// Marks a free table entry; no slot ever reaches it.
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kMinCapacity = 16;

  /// A full 64-bit mix (the splitmix64 finalizer): the table index comes
  /// from the low bits, and doubles of small integers differ only in their
  /// high bits.
  static uint64_t Hash(uint64_t key) {
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return key ^ (key >> 31);
  }

  [[gnu::noinline]] uint32_t Add(size_t at, uint64_t key) {
    POPP_CHECK_MSG(keys_.size() < kEmpty - 1,
                   "ValueIndex: more than " << kEmpty - 1 << " distinct keys");
    const auto slot = static_cast<uint32_t>(keys_.size());
    table_[at] = Entry{key, slot};
    keys_.push_back(key);
    if (keys_.size() * 2 > table_.size()) Rehash(table_.size() * 2);
    return slot;
  }

  void Rehash(size_t capacity) {
    table_.assign(capacity, Entry{0, kEmpty});
    mask_ = capacity - 1;
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
      size_t i = Hash(keys_[slot]) & mask_;
      while (table_[i].slot != kEmpty) i = (i + 1) & mask_;
      table_[i] = Entry{keys_[slot], static_cast<uint32_t>(slot)};
    }
  }

  std::vector<Entry> table_;
  size_t mask_ = 0;
  std::vector<uint64_t> keys_;
};

}  // namespace popp

#endif  // POPP_DATA_VALUE_INDEX_H_
