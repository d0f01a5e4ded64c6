#ifndef QOCO_RELATIONAL_ID_POSTING_MAP_H_
#define QOCO_RELATIONAL_ID_POSTING_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/relational/value_id.h"

namespace qoco::relational {

/// Flat map from ValueId to a posting list of row positions: the
/// per-column index representation behind Relation::RowsWithId.
///
/// Every list lives in one arena of row positions, and an open-addressed
/// table maps each key to its range (begin, size, capacity) there: linear
/// probing with backward-shift deletion (no tombstones), power-of-2
/// capacity, max load factor 0.7, kInvalidId marking empty slots (it is
/// unreachable by any encoder, so every real id is storable). The map is
/// two flat vectors, so copying or freeing one allocates or frees two
/// blocks, whatever the number of keys.
///
/// List order is the edit history's, exactly as with one vector per key:
///  * Build lists each key's positions in row order (a counting pass, no
///    allocation per key);
///  * Append adds at the list's end. A full list that does not end the
///    arena moves to the arena's end with twice the capacity first, and
///    its old range becomes dead space;
///  * Remove swap-removes within the list (the last position takes the
///    removed one's place) and erases the key with its last position, so
///    no list is empty; Repoint rewrites one position in place.
/// Once the dead space exceeds the live positions, the lists are packed
/// back to back, each in its own order (Compact). A list's unused capacity
/// is not dead: it is room for its next appends.
///
/// A span returned by Find stays valid until the next Append, Remove or
/// Build (a relocation or compaction moves the lists).
class IdPostingMap {
 public:
  /// One key's range in the arena; key == kInvalidId marks an empty slot.
  struct Range {
    ValueId key = kInvalidId;
    uint32_t begin = 0;
    uint32_t size = 0;
    uint32_t capacity = 0;
  };

  IdPostingMap() = default;

  /// Number of keys.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The posting list for `key`, empty if absent.
  std::span<const uint32_t> Find(ValueId key) const {
    const Range* r = FindRange(key);
    if (r == nullptr) return {};
    return {arena_.data() + r->begin, r->size};
  }

  /// Replaces the contents with the positions of `rows` by their value in
  /// `column`, each list in row order.
  void Build(const std::vector<ITuple>& rows, size_t column);

  /// Appends `pos` to the list of `key`, creating the list if absent.
  void Append(ValueId key, uint32_t pos);

  /// Swap-removes `pos` from the list of `key`, erasing the key when the
  /// list empties. Returns false (and changes nothing) if the list does
  /// not hold `pos`.
  bool Remove(ValueId key, uint32_t pos);

  /// Rewrites the occurrence of `from` in the list of `key` to `to`.
  /// Returns false (and changes nothing) if the list does not hold `from`.
  bool Repoint(ValueId key, uint32_t from, uint32_t to);

  /// Calls f(key, posting_list) for every entry, in unspecified order.
  /// Callers needing a deterministic order must sort what they collect
  /// (raw-id or slot order is interning/probe order — never transcript
  /// safe).
  template <typename F>
  void ForEach(F&& f) const {
    for (const Range& r : slots_) {
      if (r.key != kInvalidId) {
        f(r.key, std::span<const uint32_t>(arena_.data() + r.begin, r.size));
      }
    }
  }

  /// Every key, sorted by raw id. Raw-id order is interning order — stable
  /// across reruns of the same coordinator-side interning sequence (and
  /// across thread counts, since only the coordinator interns), but not a
  /// value order; use it for set algebra (IntersectSortedIds), never for
  /// display.
  std::vector<ValueId> SortedKeys() const {
    std::vector<ValueId> keys;
    keys.reserve(size_);
    for (const Range& r : slots_) {
      if (r.key != kInvalidId) keys.push_back(r.key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// The layout, for audits and tests: every slot of the table (empty ones
  /// included), the arena, and the dead words in it.
  std::span<const Range> slots() const { return slots_; }
  std::span<const uint32_t> arena() const { return arena_; }
  size_t dead() const { return dead_; }

  /// Same keys, each with the same list in the same order; the layout
  /// (slot placement, arena offsets, capacities, dead space) is ignored.
  friend bool operator==(const IdPostingMap& a, const IdPostingMap& b);

 private:
  // Test-only backdoor used by the corruption-injection tests to seed
  // invariant violations (tests/invariant_audit_test.cc).
  friend struct RelationCorruptor;

  const Range* FindRange(ValueId key) const {
    if (slots_.empty()) return nullptr;
    size_t mask = slots_.size() - 1;
    for (size_t i = HashValueId(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i];
      if (slots_[i].key == kInvalidId) return nullptr;
    }
  }
  Range* FindRange(ValueId key) {
    return const_cast<Range*>(
        static_cast<const IdPostingMap*>(this)->FindRange(key));
  }

  /// The slot of `key`, claimed (with an empty range) if absent.
  Range& FindOrInsertRange(ValueId key);

  /// Empties slot `hole` and backward-shifts the probe run behind it.
  void EraseSlot(size_t hole);

  /// Doubles the table (16 slots when empty), keeping every range.
  void Grow();

  /// Packs the lists back to back, each at capacity == size, dropping the
  /// dead space.
  void Compact();

  std::vector<Range> slots_;
  std::vector<uint32_t> arena_;
  size_t size_ = 0;  // keys
  size_t live_ = 0;  // positions in lists, the sum of the ranges' sizes
  size_t dead_ = 0;  // arena words no range covers
};

/// Intersection of two sorted id vectors, galloping from the smaller side:
/// for each element of the smaller input, an exponential probe followed by
/// a binary search narrows its slot in the larger one, so the cost is
/// O(|small| · log(|large| / |small|)) — the shape that makes semi-join
/// reduction over column domains cheap even when one domain dwarfs the
/// other. Inputs must be strictly ascending; the output is too.
inline std::vector<ValueId> IntersectSortedIds(
    const std::vector<ValueId>& a, const std::vector<ValueId>& b) {
  const std::vector<ValueId>& small = a.size() <= b.size() ? a : b;
  const std::vector<ValueId>& large = a.size() <= b.size() ? b : a;
  std::vector<ValueId> out;
  out.reserve(small.size());
  size_t lo = 0;
  for (ValueId id : small) {
    // Gallop: double the step until large[lo + step] passes id.
    size_t step = 1;
    while (lo + step < large.size() && large[lo + step] < id) step *= 2;
    size_t hi = std::min(lo + step, large.size());
    auto it = std::lower_bound(large.begin() + static_cast<ptrdiff_t>(lo),
                               large.begin() + static_cast<ptrdiff_t>(hi), id);
    lo = static_cast<size_t>(it - large.begin());
    if (lo == large.size()) break;
    if (*it == id) {
      out.push_back(id);
      ++lo;
    }
  }
  return out;
}

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_ID_POSTING_MAP_H_
