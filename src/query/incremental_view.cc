#include "src/query/incremental_view.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

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

/// Q(D) with each answer's witness set; the assignments are released.
/// A fresh evaluator, so a view's own ColumnStats start empty on every
/// construction path.
std::vector<ViewAnswer> EvaluateAnswers(const CQuery& q,
                                        const relational::Database& db) {
  EvalResult result = Evaluator(&db).Evaluate(q);
  std::vector<ViewAnswer> answers;
  answers.reserve(result.size());
  for (AnswerInfo& info : result.mutable_answers()) {
    answers.push_back(
        {std::move(info.tuple), std::make_shared<const provenance::WitnessSet>(
                                    std::move(info.witnesses))});
  }
  return answers;
}

/// The first answer whose tuple is not below `t`.
template <typename Answers>
auto LowerBound(Answers& answers, const relational::Tuple& t) {
  return std::lower_bound(
      answers.begin(), answers.end(), t,
      [](const ViewAnswer& a, const relational::Tuple& key) {
        return a.tuple < key;
      });
}

}  // namespace

ViewSeed MakeViewSeed(const CQuery& q, const relational::Database& db) {
  ViewSeed seed;
  seed.answers = EvaluateAnswers(q, db);
  std::vector<relational::RelationId> relations;
  for (const Atom& atom : q.atoms()) relations.push_back(atom.relation);
  std::sort(relations.begin(), relations.end());
  relations.erase(std::unique(relations.begin(), relations.end()),
                  relations.end());
  for (relational::RelationId rel : relations) {
    const relational::Relation& instance = db.relation(rel);
    for (size_t col = 0; col < instance.arity(); ++col) {
      if (instance.IndexBuilt(col)) {
        seed.columns.push_back({rel, col, instance.ColumnPostings(col)});
      }
    }
  }
  return seed;
}

IncrementalView::IncrementalView(CQuery q, const relational::Database* db)
    : q_(std::move(q)),
      db_(db),
      evaluator_(db),
      answers_(EvaluateAnswers(q_, *db)) {}

IncrementalView::IncrementalView(CQuery q, const relational::Database* db,
                                 const ViewSeed& seed)
    : q_(std::move(q)), db_(db), evaluator_(db), answers_(seed.answers) {
  for (const ViewSeed::Column& c : seed.columns) {
    db_->relation(c.relation).InstallPostings(c.column, c.postings);
  }
}

std::vector<relational::Tuple> IncrementalView::AnswerTuples() const {
  std::vector<relational::Tuple> tuples;
  tuples.reserve(answers_.size());
  for (const ViewAnswer& answer : answers_) tuples.push_back(answer.tuple);
  return tuples;
}

const provenance::WitnessSet& IncrementalView::Witnesses(
    const relational::Tuple& t) const {
  static const provenance::WitnessSet kNone;
  auto it = LowerBound(answers_, t);
  return it != answers_.end() && it->tuple == t ? *it->witnesses : kNone;
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
  // extensions over the current (post-insert) database. New witnesses go
  // to an edited copy of their answer's set (few answers gain any).
  std::vector<std::pair<relational::Tuple, provenance::WitnessSet>> edited;
  for (const Atom& atom : q_.atoms()) {
    if (atom.relation != f.relation) continue;
    Assignment pinned(q_.num_vars(), &db_->dict());
    if (!PinAtomToTuple(atom, fi->tuple, &pinned)) continue;
    for (const Assignment& a :
         evaluator_.FindExtensions(q_, pinned, /*limit=*/0)) {
      std::optional<relational::Tuple> answer = a.ApplyHead(q_.head());
      if (!answer.has_value()) continue;
      provenance::Witness w = Evaluator::WitnessFor(q_, a);
      auto it = std::find_if(edited.begin(), edited.end(),
                             [&](const auto& e) { return e.first == *answer; });
      // Merge-dedup on the witness: the same assignment surfaces once per
      // atom it pins f at, and again if the caller replays an already-seen
      // notification; either way its witness is already listed.
      const provenance::WitnessSet& listed =
          it != edited.end() ? it->second : Witnesses(*answer);
      if (std::find(listed.begin(), listed.end(), w) != listed.end()) continue;
      if (it == edited.end()) {
        it = edited.emplace(edited.end(), std::move(*answer), listed);
      }
      it->second.push_back(std::move(w));
    }
  }
  for (auto& [tuple, witnesses] : edited) {
    auto shared =
        std::make_shared<const provenance::WitnessSet>(std::move(witnesses));
    auto it = LowerBound(answers_, tuple);
    if (it != answers_.end() && it->tuple == tuple) {
      it->witnesses = std::move(shared);
    } else {
      answers_.insert(it, ViewAnswer{std::move(tuple), std::move(shared)});
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
  // assignments' witnesses. An answer whose set changes gets an edited
  // copy; one left with no witness has lost its last assignment and is
  // erased.
  auto holds = [&](const provenance::Witness& w) { return w.Contains(*fi); };
  for (ViewAnswer& answer : answers_) {
    const provenance::WitnessSet& current = *answer.witnesses;
    if (std::none_of(current.begin(), current.end(), holds)) continue;
    provenance::WitnessSet kept;
    std::remove_copy_if(current.begin(), current.end(),
                        std::back_inserter(kept), holds);
    answer.witnesses =
        kept.empty() ? nullptr
                     : std::make_shared<const provenance::WitnessSet>(
                           std::move(kept));
  }
  std::erase_if(answers_,
                [](const ViewAnswer& a) { return a.witnesses == nullptr; });
}

common::Status IncrementalView::AuditInvariants() const {
  common::InvariantAuditor audit("query::IncrementalView");

  // Structural invariants of the maintained answers.
  for (size_t i = 0; i < answers_.size(); ++i) {
    const ViewAnswer& answer = answers_[i];
    const std::string tuple = relational::TupleToString(answer.tuple);
    if (i + 1 < answers_.size() && !(answer.tuple < answers_[i + 1].tuple)) {
      audit.Violation() << "answers not strictly sorted at " << tuple;
    }
    if (answer.witnesses == nullptr || answer.witnesses->empty()) {
      audit.Violation() << "answer " << tuple << " has no witnesses";
      continue;
    }
    for (const provenance::Witness& w : *answer.witnesses) {
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

  // Semantic invariant: the delta-maintained answers must equal a
  // from-scratch evaluation over the current database.
  EvalResult fresh = evaluator_.Evaluate(q_);
  if (fresh.size() != answers_.size()) {
    audit.Violation() << "view has " << answers_.size()
                      << " answers, from-scratch evaluation has "
                      << fresh.size();
  }
  for (const AnswerInfo& want : fresh.answers()) {
    const std::string tuple = relational::TupleToString(want.tuple);
    auto got = LowerBound(answers_, want.tuple);
    if (got == answers_.end() || got->tuple != want.tuple) {
      audit.Violation() << "answer " << tuple << " is missing from the view";
      continue;
    }
    provenance::WitnessSet got_w = got->witnesses != nullptr
                                       ? *got->witnesses
                                       : provenance::WitnessSet();
    provenance::WitnessSet want_w = want.witnesses;
    provenance::WitnessLess less{&db_->dict()};
    std::sort(got_w.begin(), got_w.end(), less);
    std::sort(want_w.begin(), want_w.end(), less);
    if (got_w != want_w) {
      audit.Violation() << "witness set of " << tuple
                        << " differs from from-scratch evaluation";
    }
  }
  for (const ViewAnswer& answer : answers_) {
    if (fresh.Find(answer.tuple) == nullptr) {
      audit.Violation() << "answer " << relational::TupleToString(answer.tuple)
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
    std::vector<relational::Tuple> part = view.AnswerTuples();
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
