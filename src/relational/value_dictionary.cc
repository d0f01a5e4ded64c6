#include "src/relational/value_dictionary.h"

#include <utility>

#include "src/common/invariant.h"

namespace qoco::relational {

// GCC 12 misdiagnoses the std::variant move in push_back once InternInt
// and InternDouble inline this (-Wmaybe-uninitialized, GCC PR105593; see
// value.cc). Targeted suppression so the warning stays live elsewhere.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
ValueId ValueDictionary::InternSlot(Value v) {
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  slots_.push_back(std::move(v));
  return IdOfSlot(slot);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

ValueId ValueDictionary::Intern(const Value& v) {
  if (v.is_null()) return kNullId;
  if (v.is_int()) return InternInt(v.AsInt());
  if (v.is_double()) return InternDouble(v.AsDouble());
  return InternString(v.AsString());
}

ValueId ValueDictionary::InternString(std::string_view s) {
  auto it = string_slots_.find(s);
  if (it != string_slots_.end()) return IdOfSlot(it->second);
  ValueId id = InternSlot(Value(std::string(s)));
  string_slots_.emplace(std::string(s), SlotOf(id));
  return id;
}

ValueId ValueDictionary::InternInt(int64_t v) {
  if (FitsInline(v)) return MakeInlineInt(v);
  auto it = int_slots_.find(v);
  if (it != int_slots_.end()) return IdOfSlot(it->second);
  ValueId id = InternSlot(Value(v));
  int_slots_.emplace(v, SlotOf(id));
  return id;
}

ValueId ValueDictionary::InternDouble(double v) {
  auto it = double_slots_.find(v);
  if (it != double_slots_.end()) return IdOfSlot(it->second);
  ValueId id = InternSlot(Value(v));
  double_slots_.emplace(v, SlotOf(id));
  return id;
}

std::optional<ValueId> ValueDictionary::Find(const Value& v) const {
  if (v.is_null()) return kNullId;
  if (v.is_int()) {
    int64_t i = v.AsInt();
    if (FitsInline(i)) return MakeInlineInt(i);
    auto it = int_slots_.find(i);
    if (it == int_slots_.end()) return std::nullopt;
    return IdOfSlot(it->second);
  }
  if (v.is_double()) {
    auto it = double_slots_.find(v.AsDouble());
    if (it == double_slots_.end()) return std::nullopt;
    return IdOfSlot(it->second);
  }
  return FindString(v.AsString());
}

std::optional<ValueId> ValueDictionary::FindString(std::string_view s) const {
  auto it = string_slots_.find(s);
  if (it == string_slots_.end()) return std::nullopt;
  return IdOfSlot(it->second);
}

Value ValueDictionary::Materialize(ValueId id) const {
  if (id == kNullId) return Value();
  if (IsInlineInt(id)) return Value(InlineIntOf(id));
  return slots_[SlotOf(id)];
}

std::string ValueDictionary::ToString(ValueId id) const {
  if (id == kInvalidId) return "<invalid>";
  if (id == kAbsentConstant) return "<absent>";
  if (!IsValidId(id)) return "<dangling:" + std::to_string(id) + ">";
  return Materialize(id).ToString();
}

namespace {

/// Value's variant order: type index first (null < int < double < string),
/// then payload.
enum TypeRank { kRankNull = 0, kRankInt = 1, kRankDouble = 2, kRankString = 3 };

template <typename T>
int ThreeWay(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int ValueDictionary::Compare(ValueId a, ValueId b) const {
  if (a == b) return 0;
  // Decode each side to (rank, payload) without constructing a Value.
  auto rank = [this](ValueId id) -> int {
    if (id == kNullId) return kRankNull;
    if (IsInlineInt(id)) return kRankInt;
    const Value& v = slots_[SlotOf(id)];
    if (v.is_int()) return kRankInt;
    if (v.is_double()) return kRankDouble;
    if (v.is_string()) return kRankString;
    return kRankNull;
  };
  int ra = rank(a), rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case kRankNull:
      return 0;
    case kRankInt: {
      int64_t ia = IsInlineInt(a) ? InlineIntOf(a) : slots_[SlotOf(a)].AsInt();
      int64_t ib = IsInlineInt(b) ? InlineIntOf(b) : slots_[SlotOf(b)].AsInt();
      return ThreeWay(ia, ib);
    }
    case kRankDouble:
      return ThreeWay(slots_[SlotOf(a)].AsDouble(),
                      slots_[SlotOf(b)].AsDouble());
    default:
      return ThreeWay<std::string_view>(slots_[SlotOf(a)].AsString(),
                                        slots_[SlotOf(b)].AsString());
  }
}

common::Status ValueDictionary::AuditInvariants() const {
  common::InvariantAuditor audit("relational::ValueDictionary");

  // Density: every slot is owned by exactly one reverse-map entry.
  size_t reverse_entries =
      string_slots_.size() + int_slots_.size() + double_slots_.size();
  if (reverse_entries != slots_.size()) {
    audit.Violation() << "reverse maps cover " << reverse_entries
                      << " slots, table has " << slots_.size();
  }

  // Round-trip: re-looking-up every slot's value must come back to the
  // same slot. A duplicate intern (two slots for one value) fails here:
  // the reverse map can only point at one of them.
  for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Value& v = slots_[slot];
    if (v.is_null()) {
      audit.Violation() << "slot " << slot
                        << " holds null, which encodes inline as kNullId";
      continue;
    }
    if (v.is_int() && FitsInline(v.AsInt())) {
      audit.Violation() << "slot " << slot << " holds inline-range int "
                        << v.ToString();
      continue;
    }
    std::optional<ValueId> found = Find(v);
    if (!found.has_value()) {
      audit.Violation() << "slot " << slot << " value " << v.ToString()
                        << " is missing from its reverse map";
    } else if (*found != IdOfSlot(slot)) {
      audit.Violation() << "slot " << slot << " value " << v.ToString()
                        << " round-trips to id " << *found << " (expected "
                        << IdOfSlot(slot) << "): duplicate intern";
    }
  }

  // Reverse maps must not point past the table (density gap).
  auto check_range = [&](uint32_t slot, const std::string& what) {
    if (slot >= slots_.size()) {
      audit.Violation() << what << " maps to out-of-range slot " << slot
                        << " (table has " << slots_.size() << ")";
    }
  };
  // qoco-lint: allow(unordered-iteration): audit-only range check; each entry is validated independently and nothing ordered escapes
  for (const auto& [s, slot] : string_slots_) check_range(slot, "'" + s + "'");
  // qoco-lint: allow(unordered-iteration): audit-only range check, order-independent per entry
  for (const auto& [i, slot] : int_slots_) {
    check_range(slot, std::to_string(i));
  }
  // qoco-lint: allow(unordered-iteration): audit-only range check, order-independent per entry
  for (const auto& [d, slot] : double_slots_) {
    check_range(slot, std::to_string(d));
  }
  return audit.Finish();
}

Tuple MaterializeTuple(const ITuple& t, const ValueDictionary& dict) {
  Tuple out;
  out.reserve(t.size());
  for (ValueId id : t) out.push_back(dict.Materialize(id));
  return out;
}

Fact MaterializeFact(const IFact& f, const ValueDictionary& dict) {
  return Fact{f.relation, MaterializeTuple(f.tuple, dict)};
}

ITuple InternTuple(const Tuple& t, ValueDictionary* dict) {
  ITuple out;
  for (const Value& v : t) out.push_back(dict->Intern(v));
  return out;
}

IFact InternFact(const Fact& f, ValueDictionary* dict) {
  return IFact{f.relation, InternTuple(f.tuple, dict)};
}

std::optional<ITuple> FindTuple(const Tuple& t, const ValueDictionary& dict) {
  ITuple out;
  for (const Value& v : t) {
    std::optional<ValueId> id = dict.Find(v);
    if (!id.has_value()) return std::nullopt;
    out.push_back(*id);
  }
  return out;
}

std::optional<IFact> FindFact(const Fact& f, const ValueDictionary& dict) {
  std::optional<ITuple> t = FindTuple(f.tuple, dict);
  if (!t.has_value()) return std::nullopt;
  return IFact{f.relation, std::move(*t)};
}

}  // namespace qoco::relational
