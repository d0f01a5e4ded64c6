#ifndef QOCO_RELATIONAL_VALUE_DICTIONARY_H_
#define QOCO_RELATIONAL_VALUE_DICTIONARY_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/strings.h"
#include "src/common/thread_safety.h"
#include "src/relational/tuple.h"
#include "src/relational/value.h"
#include "src/relational/value_id.h"

namespace qoco::relational {

/// The catalog-owned interning table behind ValueId: every distinct Value
/// is stored once and addressed by a dense 32-bit id (see value_id.h for
/// the encoding; nulls and small non-negative integers never reach the
/// table at all). The dirty database D and the ground truth DG share one
/// dictionary through their shared Catalog, so a fact's ids are comparable
/// across both — the oracle's membership checks are pure id compares.
///
/// The dictionary is append-only: ids are never invalidated, erased facts
/// keep their values interned, and a ValueId obtained once stays valid for
/// the catalog's lifetime.
///
/// Threading contract (DESIGN.md §Concurrency): Intern* mutate and must
/// only be called from the coordinating thread — never from a task running
/// on a ThreadPool worker. Find/Materialize/Compare and friends are const
/// and safe to call concurrently between interns. Parsing a query interns
/// nothing (terms keep their Values) and the evaluator compiles query
/// constants to ids with the non-mutating Find, so neither ever interns.
/// The service's one intern at admission is journal replay, which it runs
/// on the coordinator before the session runs on a pool worker.
class ValueDictionary {
 public:
  ValueDictionary() = default;

  /// Interns `v`, returning its (possibly pre-existing) id.
  ValueId Intern(const Value& v) QOCO_COORDINATOR_ONLY;

  /// Interns a string value without constructing a Value (and, on a hit,
  /// without constructing a std::string: the probe is heterogeneous).
  ValueId InternString(std::string_view s) QOCO_COORDINATOR_ONLY;

  ValueId InternInt(int64_t v) QOCO_COORDINATOR_ONLY;
  ValueId InternDouble(double v) QOCO_COORDINATOR_ONLY;

  /// The id of `v` if it is representable without mutating the dictionary
  /// (null, inline int, or already interned); nullopt otherwise. A value
  /// absent from the dictionary is equal to no stored id, which is what
  /// membership probes and Erase need.
  std::optional<ValueId> Find(const Value& v) const;
  std::optional<ValueId> FindString(std::string_view s) const;

  /// Reconstructs the Value for a real id. Precondition: id is kNullId, an
  /// inline int, or a live dictionary slot (not kInvalidId/kAbsentConstant).
  Value Materialize(ValueId id) const;

  /// Renders the value behind `id` (sentinels render as "<invalid>" /
  /// "<absent>").
  std::string ToString(ValueId id) const;

  /// Three-way comparison in *value* order — the exact order of
  /// Value::operator< (type tag: null < int < double < string, then
  /// payload). Every ordering-sensitive consumer (answer sort, witness
  /// canonicalization, DistinctFacts) goes through this; raw id order is
  /// interning order and must never reach a transcript.
  int Compare(ValueId a, ValueId b) const;

  /// True iff `id` decodes to a value this dictionary can materialize.
  bool IsValidId(ValueId id) const {
    return id == kNullId || IsInlineInt(id) ||
           (IsDictSlot(id) && SlotOf(id) < slots_.size());
  }

  /// Number of dictionary slots (excludes nulls and inline ints).
  size_t size() const { return slots_.size(); }

  /// Deep audit: id density (every slot reachable through exactly one
  /// reverse-map entry), round-trip Intern(Materialize(id)) == id for every
  /// slot (catches duplicate interning), and no slot holding a value the
  /// encoder should have inlined. O(slots); debug builds, fuzz checkpoints
  /// and the corruption-injection tests.
  common::Status AuditInvariants() const;

 private:
  // Test-only backdoor (tests/intern_equivalence_test.cc) used to seed
  // dictionary corruption and prove the audits fire.
  friend struct ValueDictionaryCorruptor;

  ValueId InternSlot(Value v);

  std::vector<Value> slots_;
  // Reverse maps per payload type. The string map supports heterogeneous
  // string_view probes (common::StringHash is transparent).
  std::unordered_map<std::string, uint32_t, common::StringHash,
                     std::equal_to<>>
      string_slots_;
  std::unordered_map<int64_t, uint32_t> int_slots_;
  std::unordered_map<double, uint32_t> double_slots_;
};

/// Value-order comparator for ITuples (lexicographic over Compare).
struct IdTupleLess {
  const ValueDictionary* dict;
  bool operator()(const ITuple& a, const ITuple& b) const {
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
      int c = dict->Compare(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

/// Value-order comparator for IFacts: relation id first, then the tuple —
/// exactly Fact::operator< lifted to id space.
struct IdFactLess {
  const ValueDictionary* dict;
  bool operator()(const IFact& a, const IFact& b) const {
    if (a.relation != b.relation) return a.relation < b.relation;
    return IdTupleLess{dict}(a.tuple, b.tuple);
  }
};

/// Materializes an id tuple back to values.
Tuple MaterializeTuple(const ITuple& t, const ValueDictionary& dict);

/// Materializes an id fact back to a value fact.
Fact MaterializeFact(const IFact& f, const ValueDictionary& dict);

/// Interns every value of `t` (mutating; coordinator-side only).
ITuple InternTuple(const Tuple& t, ValueDictionary* dict) QOCO_COORDINATOR_ONLY;

/// Interns a value fact (mutating; coordinator-side only).
IFact InternFact(const Fact& f, ValueDictionary* dict) QOCO_COORDINATOR_ONLY;

/// Non-mutating id lookup of a whole tuple: nullopt if any value is not
/// representable (such a tuple is stored nowhere).
std::optional<ITuple> FindTuple(const Tuple& t, const ValueDictionary& dict);

/// Non-mutating id lookup of a whole fact.
std::optional<IFact> FindFact(const Fact& f, const ValueDictionary& dict);

}  // namespace qoco::relational

#endif  // QOCO_RELATIONAL_VALUE_DICTIONARY_H_
