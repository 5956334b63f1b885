#ifndef NATTO_COMMON_TXN_ID_SET_H_
#define NATTO_COMMON_TXN_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace natto {

/// Insert-only set of transaction ids, for the tombstones a server or
/// coordinator keeps of the transactions it already finished. Open
/// addressing with linear probing over one power-of-two array that doubles
/// at half load: an insert is one multiply and a short scan, and allocates
/// only when the array grows (std::unordered_set paid one node per id).
///
/// The API is contains/insert only. Nothing iterates the slots, so the
/// hash layout can never reach output. ~TxnId{0} marks a free slot and
/// cannot be inserted; MakeTxnId would need client and sequence number
/// both at 0xffffffff to produce it.
class TxnIdSet {
 public:
  bool contains(TxnId id) const {
    return id != kEmpty && !slots_.empty() && slots_[Find(id)] == id;
  }

  /// Adds `id`; returns false when it was already present.
  bool insert(TxnId id) {
    NATTO_DCHECK(id != kEmpty) << "TxnIdSet cannot hold its empty sentinel";
    if (slots_.empty()) Grow();
    size_t i = Find(id);
    if (slots_[i] == id) return false;
    slots_[i] = id;
    if (2 * ++size_ > slots_.size()) Grow();
    return true;
  }

 private:
  static constexpr TxnId kEmpty = ~TxnId{0};
  static constexpr int kMinSlotsLog2 = 4;

  /// The slot holding `id`, or the free slot that ends its probe run. The
  /// load stays at or below one half, so a free slot always exists.
  size_t Find(TxnId id) const {
    // Fibonacci hashing: the multiply carries the low (per-client
    // sequence) bits into the top bits the shift keeps.
    size_t i = static_cast<size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
    const size_t mask = slots_.size() - 1;
    while (slots_[i] != id && slots_[i] != kEmpty) i = (i + 1) & mask;
    return i;
  }

  void Grow() {
    std::vector<TxnId> old = std::move(slots_);
    const int log2 = old.empty() ? kMinSlotsLog2 : 65 - shift_;
    slots_.assign(size_t{1} << log2, kEmpty);
    shift_ = 64 - log2;
    for (TxnId id : old) {
      if (id != kEmpty) slots_[Find(id)] = id;
    }
  }

  std::vector<TxnId> slots_;
  size_t size_ = 0;
  /// 64 - log2(slots_.size()): the hash keeps the product's top bits.
  int shift_ = 64;
};

}  // namespace natto

#endif  // NATTO_COMMON_TXN_ID_SET_H_
