#include "src/query/evaluator.h"

#include <algorithm>
#include <limits>
#include <span>

#include "src/common/strings.h"
#include "src/relational/value_id.h"

namespace qoco::query {

namespace {

using relational::Database;
using relational::ITuple;
using relational::kAbsentConstant;
using relational::kInvalidId;
using relational::Relation;
using relational::ValueId;

/// A query term lowered to id space: either a variable slot or the
/// pre-resolved id of a constant. Constants are resolved once per search
/// via ValueDictionary::Find (non-mutating, so evaluation never interns);
/// a constant absent from the dictionary compiles to kAbsentConstant,
/// which equals no stored id — the atom then matches nothing, exactly like
/// the value-space comparison it replaces.
struct CompiledTerm {
  VarId var = -1;          // >= 0 for variables.
  ValueId id = kInvalidId;  // Constant id (or kAbsentConstant) when var < 0.
  bool is_var() const { return var >= 0; }
};

/// Backtracking join state over interned rows. With a non-null `plan`
/// (built by the Planner), the root expansion follows the plan's candidate
/// list and unification prunes through the plan's allowed-id sets. Every
/// other level, and the root of an unplanned search, picks the most
/// constrained pending atom adaptively.
class Search {
 public:
  Search(const CQuery& q, const Database& db, Assignment binding,
         size_t limit, std::vector<Assignment>* out,
         const Plan* plan = nullptr)
      : q_(q),
        binding_(std::move(binding)),
        limit_(limit),
        out_(out),
        plan_(plan),
        atom_done_(q.atoms().size(), false) {
    if (plan != nullptr) {
      for (const auto& ids : plan->allowed) {
        if (!ids.empty()) {
          check_allowed_ = true;
          break;
        }
      }
    }
    const relational::ValueDictionary& dict = db.dict();
    atom_rel_.reserve(q.atoms().size());
    atom_terms_.reserve(q.atoms().size());
    for (const Atom& atom : q.atoms()) {
      atom_rel_.push_back(&db.relation(atom.relation));
      std::vector<CompiledTerm> terms;
      terms.reserve(atom.terms.size());
      for (const Term& t : atom.terms) terms.push_back(Compile(t, dict));
      atom_terms_.push_back(std::move(terms));
    }
    ineqs_.reserve(q.inequalities().size());
    for (const Inequality& ineq : q.inequalities()) {
      if (ineq.DistinctConstants()) continue;  // Holds under every binding.
      ineqs_.push_back({Compile(ineq.lhs, dict), Compile(ineq.rhs, dict)});
    }
  }

  /// Without a plan, searches adaptively from the root. With one, scans
  /// the plan's (possibly semi-join-filtered) root candidates; the plan
  /// must be built against this database state and binding, and be
  /// neither infeasible nor trivial.
  void Run() {
    if (!InequalitiesHold()) return;
    const size_t remaining = q_.atoms().size();
    if (plan_ == nullptr) {
      Recurse(remaining);
      return;
    }
    const size_t root = plan_->steps[0].atom;
    const Relation& rel = *atom_rel_[root];
    atom_done_[root] = true;
    const size_t candidates = plan_->RootCandidateCount();
    for (size_t i = 0; i < candidates && !Done(); ++i) {
      TryRow(root, rel.rows()[plan_->RootCandidateAt(i)], remaining);
    }
    atom_done_[root] = false;
  }

 private:
  bool Done() const { return limit_ != 0 && out_->size() >= limit_; }

  static CompiledTerm Compile(const Term& t,
                              const relational::ValueDictionary& dict) {
    CompiledTerm c;
    if (t.is_constant()) {
      c.var = -1;
      std::optional<ValueId> id = dict.Find(t.constant());
      c.id = id.has_value() ? *id : kAbsentConstant;
    } else {
      c.var = t.var();
    }
    return c;
  }

  /// Resolves a compiled term against the current binding: the constant's
  /// id (possibly kAbsentConstant), the bound variable's id, or kInvalidId
  /// for an unbound variable.
  ValueId ResolveCompiled(const CompiledTerm& t) const {
    return t.is_var() ? binding_.IdOf(t.var) : t.id;
  }

  /// Checks every inequality whose both sides currently resolve. Pure id
  /// compares: the paper's inequalities are ≠ only, id equality is value
  /// equality, and kAbsentConstant differs from every stored id. Two
  /// absent constants would compare equal, but the constructor drops every
  /// inequality between two different constants.
  bool InequalitiesHold() const {
    for (const auto& [lhs, rhs] : ineqs_) {
      ValueId a = ResolveCompiled(lhs);
      ValueId b = ResolveCompiled(rhs);
      if (a == kInvalidId || b == kInvalidId) continue;
      if (a == b) return false;
    }
    return true;
  }

  /// Number of argument positions of atom `idx` that resolve now, plus an
  /// estimated candidate count for expanding it. `posting` memoizes the
  /// posting list of the most selective bound column (when `use_posting`)
  /// so Recurse does not re-probe the index the scoring pass already
  /// walked (the span stays valid: indexes only move under mutation, never
  /// mid-evaluation).
  struct AtomScore {
    size_t bound_positions = 0;
    size_t candidates = std::numeric_limits<size_t>::max();
    bool use_posting = false;
    std::span<const uint32_t> posting;
  };

  AtomScore ScoreAtom(size_t idx) const {
    const Relation& rel = *atom_rel_[idx];
    const std::vector<CompiledTerm>& terms = atom_terms_[idx];
    AtomScore score;
    score.candidates = rel.size();
    for (size_t col = 0; col < terms.size(); ++col) {
      ValueId id = ResolveCompiled(terms[col]);
      if (id == kInvalidId) continue;  // Unbound variable.
      ++score.bound_positions;
      std::span<const uint32_t> rows = rel.RowsWithId(col, id);
      if (rows.size() < score.candidates) {
        score.candidates = rows.size();
        score.use_posting = true;
        score.posting = rows;
      }
    }
    return score;
  }

  /// The most constrained pending atom: most bound positions, then fewest
  /// candidates. Precondition: at least one atom is pending.
  size_t PickBestAtom(AtomScore* best_score) const {
    size_t best = static_cast<size_t>(-1);
    for (size_t i = 0; i < atom_done_.size(); ++i) {
      if (atom_done_[i]) continue;
      AtomScore score = ScoreAtom(i);
      bool better;
      if (best == static_cast<size_t>(-1)) {
        better = true;
      } else if (score.bound_positions != best_score->bound_positions) {
        better = score.bound_positions > best_score->bound_positions;
      } else {
        better = score.candidates < best_score->candidates;
      }
      if (better) {
        best = i;
        *best_score = score;
      }
    }
    return best;
  }

  /// Unifies `row` against atom `idx` and recurses on success; always
  /// restores the binding before returning.
  void TryRow(size_t idx, const ITuple& row, size_t remaining) {
    if (Done()) return;
    std::vector<VarId> newly_bound;
    if (Unify(idx, row, &newly_bound)) {
      if (InequalitiesHold()) Recurse(remaining - 1);
    }
    for (VarId v : newly_bound) binding_.Unbind(v);
  }

  void Recurse(size_t remaining) {
    if (Done()) return;
    if (remaining == 0) {
      out_->push_back(binding_);
      return;
    }
    AtomScore best_score;
    const size_t best = PickBestAtom(&best_score);
    const Relation& rel = *atom_rel_[best];
    atom_done_[best] = true;

    if (best_score.use_posting) {
      // Index probe on the most selective bound column, reusing the posting
      // list ScoreAtom already fetched. The list stays valid across
      // recursion: indexes are persistent and only mutations (which never
      // happen mid-evaluation) patch them.
      for (uint32_t pos : best_score.posting) {
        TryRow(best, rel.rows()[pos], remaining);
        if (Done()) break;
      }
    } else {
      for (const ITuple& row : rel.rows()) {
        TryRow(best, row, remaining);
        if (Done()) break;
      }
    }

    atom_done_[best] = false;
  }

  /// Extends binding_ to match `row` against atom `idx`; records vars bound
  /// by this call so the caller can undo them. Returns false on mismatch
  /// (bindings recorded so far are still returned for undo). Pure id
  /// compares — no dictionary access on the hot path.
  bool Unify(size_t idx, const ITuple& row, std::vector<VarId>* newly_bound) {
    const std::vector<CompiledTerm>& terms = atom_terms_[idx];
    for (size_t col = 0; col < terms.size(); ++col) {
      const CompiledTerm& term = terms[col];
      if (!term.is_var()) {
        if (term.id != row[col]) return false;
        continue;
      }
      ValueId bound = binding_.IdOf(term.var);
      if (bound != kInvalidId) {
        if (bound != row[col]) return false;
      } else {
        binding_.BindId(term.var, row[col]);
        newly_bound->push_back(term.var);
        // Semi-join pruning: a fresh binding outside the variable's
        // allowed set cannot extend to any output (some atom has no row
        // with this id in the shared column), so fail the row now. Only
        // zero-output subtrees are cut — enumeration order of the
        // surviving assignments is untouched.
        if (check_allowed_) {
          const auto v = static_cast<size_t>(term.var);
          if (v < plan_->allowed.size() && !plan_->allowed[v].empty() &&
              !std::binary_search(plan_->allowed[v].begin(),
                                  plan_->allowed[v].end(), row[col])) {
            return false;
          }
        }
      }
    }
    return true;
  }

  const CQuery& q_;
  Assignment binding_;
  size_t limit_;
  std::vector<Assignment>* out_;
  const Plan* plan_;  // Nullable; owned by FindExtensions, read-only here.
  // True iff plan_ carries at least one non-empty allowed set; hoists the
  // semi-join membership test out of the common no-reduction case.
  bool check_allowed_ = false;
  std::vector<bool> atom_done_;
  // Per-atom compiled form: relation pointer + id-space terms, plus
  // id-space inequalities. Built once in the constructor.
  std::vector<const Relation*> atom_rel_;
  std::vector<std::vector<CompiledTerm>> atom_terms_;
  std::vector<std::pair<CompiledTerm, CompiledTerm>> ineqs_;
};

}  // namespace

namespace {

/// The one ordering every sorted-answer path shares.
bool AnswerTupleLess(const AnswerInfo& a, const relational::Tuple& key) {
  return a.tuple < key;
}

}  // namespace

std::vector<AnswerInfo>::iterator EvalResult::LowerBound(
    const relational::Tuple& t) {
  return std::lower_bound(answers_.begin(), answers_.end(), t,
                          AnswerTupleLess);
}

std::vector<AnswerInfo>::const_iterator EvalResult::LowerBound(
    const relational::Tuple& t) const {
  return std::lower_bound(answers_.begin(), answers_.end(), t,
                          AnswerTupleLess);
}

bool EvalResult::ContainsAnswer(const relational::Tuple& t) const {
  return Find(t) != nullptr;
}

const AnswerInfo* EvalResult::Find(const relational::Tuple& t) const {
  auto it = LowerBound(t);
  if (it == answers_.end() || it->tuple != t) return nullptr;
  return &*it;
}

AnswerInfo* EvalResult::FindOrInsert(const relational::Tuple& t) {
  auto it = LowerBound(t);
  if (it == answers_.end() || it->tuple != t) {
    it = answers_.insert(it, AnswerInfo{t, {}, {}});
  }
  return &*it;
}

std::vector<relational::Tuple> EvalResult::AnswerTuples() const {
  std::vector<relational::Tuple> tuples;
  tuples.reserve(answers_.size());
  for (const AnswerInfo& a : answers_) tuples.push_back(a.tuple);
  return tuples;
}

namespace {

/// First-occurrence witness dedup for one answer at a time, through one
/// flat open-addressed table of indexes into the answer's witness list
/// (linear probing, power-of-two size of at least twice the assignment
/// count). Reset clears it for the next answer without reallocating.
class WitnessDedup {
 public:
  void Reset(size_t max_witnesses) {
    size_t size = 16;
    while (size < 2 * max_witnesses) size *= 2;
    slots_.assign(size, Slot{});
  }

  void AddIfNew(provenance::WitnessSet* set, provenance::Witness w) {
    size_t hash = w.size();
    for (const relational::IFact& f : w.facts()) {
      common::HashCombine(&hash, relational::IFactHash{}(f));
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.index == 0) {
        slot = Slot{hash, set->size() + 1};
        set->push_back(std::move(w));
        return;
      }
      if (slot.hash == hash && (*set)[slot.index - 1] == w) return;
    }
  }

 private:
  struct Slot {
    size_t hash = 0;
    size_t index = 0;  // 1 + position in the witness list; 0 = empty.
  };
  std::vector<Slot> slots_;
};

}  // namespace

EvalResult Evaluator::Evaluate(const CQuery& q) const {
  EvalResult result;
  std::vector<Assignment> assignments = FindExtensions(
      q, Assignment(q.num_vars(), &db_->dict()), /*limit=*/0);
  for (Assignment& a : assignments) {
    std::optional<relational::Tuple> answer = a.ApplyHead(q.head());
    if (!answer.has_value()) continue;  // Unsafe head; cannot happen via Make.
    result.FindOrInsert(*answer)->assignments.push_back(std::move(a));
  }
  // Each answer's witnesses in first occurrence over its assignments: the
  // order hitting-set element numbering (and so every transcript) sees.
  WitnessDedup dedup;
  for (AnswerInfo& info : result.answers_) {
    dedup.Reset(info.assignments.size());
    for (const Assignment& a : info.assignments) {
      dedup.AddIfNew(&info.witnesses, WitnessFor(q, a));
    }
  }
  return result;
}

EvalResult Evaluator::Evaluate(const UnionQuery& q) const {
  EvalResult merged;
  for (const CQuery& disjunct : q.disjuncts()) {
    EvalResult part = Evaluate(disjunct);
    for (AnswerInfo& info : part.answers_) {
      auto it = merged.LowerBound(info.tuple);
      if (it == merged.answers_.end() || it->tuple != info.tuple) {
        merged.answers_.insert(it, std::move(info));
      } else {
        // A linear scan per witness: the merge appends one disjunct's
        // witnesses of an answer another disjunct also produced.
        provenance::WitnessSet& into = it->witnesses;
        for (provenance::Witness& w : info.witnesses) {
          if (std::find(into.begin(), into.end(), w) == into.end()) {
            into.push_back(std::move(w));
          }
        }
      }
    }
  }
  return merged;
}

std::vector<Assignment> Evaluator::FindExtensions(const CQuery& q,
                                                  const Assignment& partial,
                                                  size_t limit) const {
  std::vector<Assignment> out;
  Assignment binding = partial;
  if (binding.num_vars() < q.num_vars()) {
    // Widen to the query's variable space.
    Assignment widened(q.num_vars(), &db_->dict());
    widened.MergeFrom(partial);
    binding = std::move(widened);
  }

  // Limited searches pick their root adaptively: *which* extension a
  // bounded search finds first leaks into crowd questions, so their
  // enumeration order is part of the transcript contract. Unlimited ones
  // run under a cost-based Plan (root by exact count, semi-join reduction).
  if (limit != 0) {
    Search search(q, *db_, std::move(binding), limit, &out);
    search.Run();
    return out;
  }
  Planner planner(db_, &stats_);
  const Plan plan = planner.MakePlan(q, binding);
  if (plan.infeasible) return out;
  if (plan.trivial) {
    out.push_back(std::move(binding));
    return out;
  }
  Search search(q, *db_, std::move(binding), /*limit=*/0, &out, &plan);
  search.Run();
  return out;
}

std::string Evaluator::ExplainPlan(const CQuery& q) const {
  Planner planner(db_, &stats_);
  Plan plan = planner.MakePlan(q, Assignment(q.num_vars(), &db_->dict()),
                               /*predict_suffix=*/true);
  std::string out = "EXPLAIN ";
  out += q.ToString(db_->catalog());
  out += "\n";
  out += plan.DebugString(q, db_->catalog());
  return out;
}

bool Evaluator::IsSatisfiable(const CQuery& q,
                              const Assignment& partial) const {
  return !FindExtensions(q, partial, /*limit=*/1).empty();
}

provenance::Witness Evaluator::WitnessFor(const CQuery& q,
                                          const Assignment& a) {
  std::vector<relational::IFact> facts;
  facts.reserve(q.atoms().size());
  for (const Atom& atom : q.atoms()) {
    std::optional<relational::IFact> fact = a.GroundAtomIds(atom);
    if (fact.has_value()) facts.push_back(std::move(*fact));
  }
  return provenance::Witness(std::move(facts), a.dict());
}

}  // namespace qoco::query
