#include "src/relational/id_posting_map.h"

namespace qoco::relational {

void IdPostingMap::Build(const std::vector<ITuple>& rows, size_t column) {
  slots_.clear();
  arena_.clear();
  size_ = 0;
  dead_ = 0;
  // Counting pass: each key's range counts its rows in `size`.
  for (const ITuple& row : rows) ++FindOrInsertRange(row[column]).size;
  // The lists back to back in slot order, each at capacity == size.
  uint32_t offset = 0;
  for (Range& r : slots_) {
    if (r.key == kInvalidId) continue;
    r.begin = offset;
    r.capacity = r.size;
    offset += r.size;
    r.size = 0;
  }
  arena_.resize(offset);
  // Filling pass in row order, so each list is in row order.
  for (uint32_t pos = 0; pos < rows.size(); ++pos) {
    Range* r = FindRange(rows[pos][column]);
    arena_[r->begin + r->size++] = pos;
  }
  live_ = rows.size();
}

void IdPostingMap::Append(ValueId key, uint32_t pos) {
  Range& r = FindOrInsertRange(key);
  if (r.capacity == 0) r.begin = static_cast<uint32_t>(arena_.size());
  if (r.size == r.capacity) {
    if (size_t{r.begin} + r.capacity == arena_.size()) {
      // The list ends the arena: it grows in place.
      arena_.push_back(pos);
      ++r.capacity;
      ++r.size;
      ++live_;
      return;
    }
    // Move the full list to the arena's end with twice the room; its old
    // range is dead space.
    const uint32_t from = r.begin;
    r.begin = static_cast<uint32_t>(arena_.size());
    arena_.resize(arena_.size() + 2 * size_t{r.capacity});
    std::copy_n(arena_.begin() + from, r.size, arena_.begin() + r.begin);
    dead_ += r.capacity;
    r.capacity *= 2;
  }
  arena_[r.begin + r.size++] = pos;
  ++live_;
  if (dead_ > live_) Compact();
}

bool IdPostingMap::Remove(ValueId key, uint32_t pos) {
  Range* r = FindRange(key);
  if (r == nullptr) return false;
  uint32_t* list = arena_.data() + r->begin;
  uint32_t* it = std::find(list, list + r->size, pos);
  if (it == list + r->size) return false;
  *it = list[r->size - 1];
  --r->size;
  --live_;
  if (r->size == 0) {
    dead_ += r->capacity;
    EraseSlot(static_cast<size_t>(r - slots_.data()));
  }
  if (dead_ > live_) Compact();
  return true;
}

bool IdPostingMap::Repoint(ValueId key, uint32_t from, uint32_t to) {
  Range* r = FindRange(key);
  if (r == nullptr) return false;
  uint32_t* list = arena_.data() + r->begin;
  uint32_t* it = std::find(list, list + r->size, from);
  if (it == list + r->size) return false;
  *it = to;
  return true;
}

bool operator==(const IdPostingMap& a, const IdPostingMap& b) {
  if (a.size_ != b.size_) return false;
  for (const IdPostingMap::Range& r : a.slots_) {
    if (r.key == kInvalidId) continue;
    if (b.FindRange(r.key) == nullptr ||
        !std::ranges::equal(a.Find(r.key), b.Find(r.key))) {
      return false;
    }
  }
  return true;
}

IdPostingMap::Range& IdPostingMap::FindOrInsertRange(ValueId key) {
  if (slots_.empty() || (size_ + 1) * 10 > slots_.size() * 7) Grow();
  size_t mask = slots_.size() - 1;
  size_t i = HashValueId(key) & mask;
  while (slots_[i].key != key && slots_[i].key != kInvalidId) {
    i = (i + 1) & mask;
  }
  if (slots_[i].key == kInvalidId) {
    slots_[i].key = key;
    ++size_;
  }
  return slots_[i];
}

void IdPostingMap::EraseSlot(size_t hole) {
  --size_;
  size_t mask = slots_.size() - 1;
  for (size_t j = (hole + 1) & mask; slots_[j].key != kInvalidId;
       j = (j + 1) & mask) {
    size_t home = HashValueId(slots_[j].key) & mask;
    // Move j into the hole iff the hole lies on j's probe run, that is,
    // j's run started at or before the hole (cyclically).
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Range{};
}

void IdPostingMap::Grow() {
  std::vector<Range> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Range{});
  size_t mask = slots_.size() - 1;
  for (const Range& r : old) {
    if (r.key == kInvalidId) continue;
    size_t i = HashValueId(r.key) & mask;
    while (slots_[i].key != kInvalidId) i = (i + 1) & mask;
    slots_[i] = r;
  }
}

void IdPostingMap::Compact() {
  std::vector<uint32_t> packed;
  packed.reserve(live_);
  for (Range& r : slots_) {
    if (r.key == kInvalidId) continue;
    const auto list = arena_.begin() + r.begin;
    r.begin = static_cast<uint32_t>(packed.size());
    r.capacity = r.size;
    packed.insert(packed.end(), list, list + r.size);
  }
  arena_ = std::move(packed);
  dead_ = 0;
}

}  // namespace qoco::relational
