#include "src/query/incremental_view.h"

#include <algorithm>
#include <string>

#include "src/common/invariant.h"

namespace qoco::query {

namespace {

/// Binds `atom`'s variables to the components of id tuple `tuple` (pinning
/// the atom to that fact). Returns false on mismatch: a constant term that
/// differs from the tuple, or a repeated variable asked to take two values.
/// Pure id compares; constants resolve through the dictionary's const Find
/// (a constant absent from the dictionary equals no stored id).
bool PinAtomToTuple(const Atom& atom, const relational::ITuple& tuple,
                    Assignment* binding) {
  if (atom.terms.size() != tuple.size()) return false;
  for (size_t col = 0; col < atom.terms.size(); ++col) {
    const Term& term = atom.terms[col];
    if (term.is_constant()) {
      std::optional<relational::ValueId> id =
          binding->dict()->Find(term.constant());
      if (!id.has_value() || *id != tuple[col]) return false;
      continue;
    }
    VarId v = term.var();
    if (binding->IsBound(v)) {
      if (binding->IdOf(v) != tuple[col]) return false;
    } else {
      binding->BindId(v, tuple[col]);
    }
  }
  return true;
}

}  // namespace

ViewSeed MakeViewSeed(const CQuery& q, const relational::Database& db) {
  ViewSeed seed;
  seed.result = Evaluator(&db).Evaluate(q);
  // A seed keeps answers and witness sets only. Assigning a fresh vector
  // (unlike clear()) also frees the lists' memory.
  for (AnswerInfo& info : seed.result.mutable_answers()) {
    info.assignments = std::vector<Assignment>();
  }
  std::vector<relational::RelationId> relations;
  for (const Atom& atom : q.atoms()) relations.push_back(atom.relation);
  std::sort(relations.begin(), relations.end());
  relations.erase(std::unique(relations.begin(), relations.end()),
                  relations.end());
  for (relational::RelationId rel : relations) {
    const relational::Relation& instance = db.relation(rel);
    for (size_t col = 0; col < instance.arity(); ++col) {
      if (instance.IndexBuilt(col)) seed.columns.emplace_back(rel, col);
    }
  }
  return seed;
}

IncrementalView::IncrementalView(CQuery q, const relational::Database* db)
    : IncrementalView(q, db, MakeViewSeed(q, *db)) {}

IncrementalView::IncrementalView(CQuery q, const relational::Database* db,
                                 ViewSeed seed)
    : q_(std::move(q)),
      db_(db),
      evaluator_(db),
      result_(std::move(seed.result)) {
  for (const auto& [rel, col] : seed.columns) {
    db_->relation(rel).ColumnPostings(col);  // Builds the index if cold.
  }
}

const provenance::WitnessSet& IncrementalView::Witnesses(
    const relational::Tuple& t) const {
  static const provenance::WitnessSet kNone;
  const AnswerInfo* info = result_.Find(t);
  return info != nullptr ? info->witnesses : kNone;
}

bool IncrementalView::Relevant(relational::RelationId rel) const {
  for (const Atom& atom : q_.atoms()) {
    if (atom.relation == rel) return true;
  }
  return false;
}

void IncrementalView::OnInsert(const relational::Fact& f) {
  if (!Relevant(f.relation)) {
    ++stats_.skipped_deltas;
    return;
  }
  ++stats_.insert_deltas;
  // The insert interned f's values (the dictionary is append-only), so the
  // id form always exists here.
  std::optional<relational::IFact> fi =
      relational::FindFact(f, db_->dict());
  if (!fi.has_value()) return;
  // Delta rule, insert side: any assignment made newly valid by f must map
  // at least one atom to f. Pin each candidate atom in turn and search for
  // extensions over the current (post-insert) database.
  for (const Atom& atom : q_.atoms()) {
    if (atom.relation != f.relation) continue;
    Assignment pinned(q_.num_vars(), &db_->dict());
    if (!PinAtomToTuple(atom, fi->tuple, &pinned)) continue;
    for (const Assignment& a :
         evaluator_.FindExtensions(q_, pinned, /*limit=*/0)) {
      std::optional<relational::Tuple> answer = a.ApplyHead(q_.head());
      if (!answer.has_value()) continue;
      // Merge-dedup on the witness: the same assignment surfaces once per
      // atom it pins f at, and again if the caller replays an already-seen
      // notification; either way its witness is already listed.
      EvalResult::AddWitnessIfNew(result_.FindOrInsert(*answer),
                                  Evaluator::WitnessFor(q_, a));
    }
  }
}

void IncrementalView::OnErase(const relational::Fact& f) {
  if (!Relevant(f.relation)) {
    ++stats_.skipped_deltas;
    return;
  }
  ++stats_.erase_deltas;
  // An erased fact was stored, so its values are interned (the dictionary
  // never forgets). A fact with un-interned values was never in the
  // database, hence in no cached witness: nothing to drop.
  std::optional<relational::IFact> fi =
      relational::FindFact(f, db_->dict());
  if (!fi.has_value()) return;
  // Delta rule, delete side: an assignment uses f iff its witness holds f,
  // so dropping the witnesses that hold f keeps exactly the surviving
  // assignments' witnesses. An answer left with no witness has lost its
  // last assignment and is erased.
  std::vector<AnswerInfo>& answers = result_.mutable_answers();
  for (AnswerInfo& info : answers) {
    std::erase_if(info.witnesses, [&](const provenance::Witness& w) {
      return w.Contains(*fi);
    });
  }
  std::erase_if(answers,
                [](const AnswerInfo& info) { return info.witnesses.empty(); });
}

common::Status IncrementalView::AuditInvariants() const {
  common::InvariantAuditor audit("query::IncrementalView");
  const std::vector<AnswerInfo>& answers = result_.answers();

  // Structural invariants of the cached result.
  for (size_t i = 0; i < answers.size(); ++i) {
    const AnswerInfo& info = answers[i];
    const std::string tuple = relational::TupleToString(info.tuple);
    if (i + 1 < answers.size() && !(info.tuple < answers[i + 1].tuple)) {
      audit.Violation() << "answers not strictly sorted at " << tuple;
    }
    if (!info.assignments.empty()) {
      audit.Violation() << "answer " << tuple << " caches "
                        << info.assignments.size() << " assignments";
    }
    if (info.witnesses.empty()) {
      audit.Violation() << "answer " << tuple << " has no witnesses";
    }
    for (const provenance::Witness& w : info.witnesses) {
      for (const relational::IFact& f : w.facts()) {
        if (!db_->ContainsIds(f)) {
          audit.Violation() << "answer " << tuple
                            << " has a witness over the absent fact "
                            << db_->FactToString(
                                   relational::MaterializeFact(f,
                                                               db_->dict()));
        }
      }
    }
  }

  // Semantic invariant: the delta-maintained result must equal a
  // from-scratch evaluation over the current database.
  EvalResult fresh = evaluator_.Evaluate(q_);
  if (fresh.size() != answers.size()) {
    audit.Violation() << "cached result has " << answers.size()
                      << " answers, from-scratch evaluation has "
                      << fresh.size();
  }
  for (const AnswerInfo& want : fresh.answers()) {
    const std::string tuple = relational::TupleToString(want.tuple);
    const AnswerInfo* got = result_.Find(want.tuple);
    if (got == nullptr) {
      audit.Violation() << "answer " << tuple << " is missing from the view";
      continue;
    }
    provenance::WitnessSet got_w = got->witnesses;
    provenance::WitnessSet want_w = want.witnesses;
    provenance::WitnessLess less{&db_->dict()};
    std::sort(got_w.begin(), got_w.end(), less);
    std::sort(want_w.begin(), want_w.end(), less);
    if (got_w != want_w) {
      audit.Violation() << "witness set of " << tuple
                        << " differs from from-scratch evaluation";
    }
  }
  for (const AnswerInfo& info : answers) {
    if (fresh.Find(info.tuple) == nullptr) {
      audit.Violation() << "answer " << relational::TupleToString(info.tuple)
                        << " is cached but not produced by from-scratch "
                        << "evaluation";
    }
  }
  return audit.Finish();
}

IncrementalUnionView::IncrementalUnionView(const UnionQuery& q,
                                           const relational::Database* db) {
  views_.reserve(q.disjuncts().size());
  for (const CQuery& disjunct : q.disjuncts()) {
    views_.emplace_back(disjunct, db);
  }
}

std::vector<relational::Tuple> IncrementalUnionView::AnswerTuples() const {
  std::vector<relational::Tuple> merged;
  for (const IncrementalView& view : views_) {
    std::vector<relational::Tuple> part = view.result().AnswerTuples();
    std::vector<relational::Tuple> out;
    out.reserve(merged.size() + part.size());
    std::set_union(merged.begin(), merged.end(), part.begin(), part.end(),
                   std::back_inserter(out));
    merged = std::move(out);
  }
  return merged;
}

provenance::WitnessSet IncrementalUnionView::Witnesses(
    const relational::Tuple& t) const {
  provenance::WitnessSet combined;
  for (const IncrementalView& view : views_) {
    const provenance::WitnessSet& part = view.Witnesses(t);
    combined.insert(combined.end(), part.begin(), part.end());
  }
  return combined;
}

void IncrementalUnionView::OnInsert(const relational::Fact& f) {
  for (IncrementalView& view : views_) view.OnInsert(f);
}

void IncrementalUnionView::OnErase(const relational::Fact& f) {
  for (IncrementalView& view : views_) view.OnErase(f);
}

common::Status IncrementalUnionView::AuditInvariants() const {
  common::InvariantAuditor audit("query::IncrementalUnionView");
  for (size_t i = 0; i < views_.size(); ++i) {
    audit.Merge("disjunct " + std::to_string(i),
                views_[i].AuditInvariants());
  }
  return audit.Finish();
}

}  // namespace qoco::query
