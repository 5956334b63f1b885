#ifndef NATTO_COMMON_FLAT_MAP_H_
#define NATTO_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace natto {

/// Map from 64-bit integers (keys, transaction ids) to small values, for
/// the indexes a server updates on every arrival and completion. Open
/// addressing with linear probing over one power-of-two array that doubles
/// at half load, as in TxnIdSet. Erase shifts the rest of the probe run
/// back instead of leaving a tombstone, so once the array has grown,
/// inserts and erases never allocate (beyond what a value itself owns).
///
/// Nothing iterates the slots, so the hash layout can never reach output.
/// A pointer from find() or a reference from operator[] is valid until the
/// next operator[] or erase.
template <typename V>
class FlatMap {
 public:
  size_t size() const { return size_; }

  V* find(uint64_t key) {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[Find(key)];
    return s.used ? &s.value : nullptr;
  }
  const V* find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[Find(key)];
    return s.used ? &s.value : nullptr;
  }

  /// The value of `key`, inserted value-initialized when absent.
  V& operator[](uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& s = slots_[Find(key)];
    if (!s.used) {
      s = Slot{key, V{}, true};
      ++size_;
    }
    return s.value;
  }

  /// Removes `key`; returns false when it was absent.
  bool erase(uint64_t key) {
    if (slots_.empty()) return false;
    size_t hole = Find(key);
    if (!slots_[hole].used) return false;
    // Backward-shift deletion: a later member of the probe run moves into
    // the hole unless its home slot lies cyclically in (hole, j].
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].used; j = (j + 1) & mask) {
      if (((j - Home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};  // releases what the value owned
    --size_;
    return true;
  }

 private:
  struct Slot {
    uint64_t key = 0;
    V value{};
    bool used = false;
  };

  static constexpr int kMinSlotsLog2 = 4;

  /// Fibonacci hashing: the multiply carries the low bits into the top
  /// bits the shift keeps.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// The slot holding `key`, or the free slot that ends its probe run. The
  /// load stays at or below one half, so a free slot always exists.
  size_t Find(uint64_t key) const {
    size_t i = Home(key);
    const size_t mask = slots_.size() - 1;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const int log2 = old.empty() ? kMinSlotsLog2 : 65 - shift_;
    slots_.assign(size_t{1} << log2, Slot{});
    shift_ = 64 - log2;
    for (Slot& s : old) {
      if (s.used) slots_[Find(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  /// 64 - log2(slots_.size()): the hash keeps the product's top bits.
  int shift_ = 64;
};

}  // namespace natto

#endif  // NATTO_COMMON_FLAT_MAP_H_
