#ifndef NATTO_COMMON_TXN_ID_SET_H_
#define NATTO_COMMON_TXN_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace natto {

/// Insert-only set of transaction ids, for the tombstones a server or
/// coordinator keeps of the transactions it already finished.
///
/// A TxnId is `client << 32 | seq` and each client's seq only grows, so a
/// node's tombstones form dense runs. Each slot holds one chunk of 64
/// consecutive ids: the chunk number `id >> 6` and a 64-bit mask of the ids
/// present. The slots live in one power-of-two array with Fibonacci hashing
/// of the chunk number and linear probing, doubling at half load. An empty
/// mask marks a free slot, so every id, ~0 included, can be held, and
/// growth allocates only per 64 ids at most.
///
/// The API is contains/insert only. Nothing iterates the slots, so the
/// hash layout can never reach output.
class TxnIdSet {
 public:
  bool contains(TxnId id) const {
    if (slots_.empty()) return false;
    return (slots_[Find(id >> 6)].bits & Bit(id)) != 0;
  }

  /// Adds `id`; returns false when it was already present.
  bool insert(TxnId id) {
    if (slots_.empty()) Grow();
    Slot& s = slots_[Find(id >> 6)];
    if ((s.bits & Bit(id)) != 0) return false;
    const bool new_chunk = s.bits == 0;
    s.chunk = id >> 6;
    s.bits |= Bit(id);
    if (new_chunk && 2 * ++used_ > slots_.size()) Grow();
    return true;
  }

 private:
  struct Slot {
    uint64_t chunk = 0;
    uint64_t bits = 0;  // 0: a free slot
  };

  static constexpr int kMinSlotsLog2 = 4;

  static uint64_t Bit(TxnId id) { return uint64_t{1} << (id & 63); }

  /// The slot holding `chunk`, or the free slot that ends its probe run.
  /// The load stays at or below one half, so a free slot always exists.
  size_t Find(uint64_t chunk) const {
    // Fibonacci hashing: the multiply carries the low (per-client
    // sequence) bits into the top bits the shift keeps.
    size_t i = static_cast<size_t>((chunk * 0x9e3779b97f4a7c15ull) >> shift_);
    const size_t mask = slots_.size() - 1;
    while (slots_[i].bits != 0 && slots_[i].chunk != chunk) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const int log2 = old.empty() ? kMinSlotsLog2 : 65 - shift_;
    slots_.assign(size_t{1} << log2, Slot{});
    shift_ = 64 - log2;
    for (const Slot& s : old) {
      if (s.bits != 0) slots_[Find(s.chunk)] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;  // slots holding a chunk
  /// 64 - log2(slots_.size()): the hash keeps the product's top bits.
  int shift_ = 64;
};

}  // namespace natto

#endif  // NATTO_COMMON_TXN_ID_SET_H_
