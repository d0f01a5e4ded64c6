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

/// True iff assignment `a` maps some atom of `q` over f.relation to `f` —
/// i.e. f belongs to the witness of `a`.
bool AssignmentUsesFact(const CQuery& q, const Assignment& a,
                        const relational::IFact& f) {
  for (const Atom& atom : q.atoms()) {
    if (atom.relation != f.relation) continue;
    std::optional<relational::IFact> ground = a.GroundAtomIds(atom);
    if (ground.has_value() && ground->tuple == f.tuple) return true;
  }
  return false;
}

}  // namespace

IncrementalView::IncrementalView(CQuery q, const relational::Database* db)
    : q_(std::move(q)),
      db_(db),
      evaluator_(db),
      result_(evaluator_.Evaluate(q_)) {}

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
    std::vector<Assignment> found =
        evaluator_.FindExtensions(q_, pinned, /*limit=*/0);
    for (Assignment& a : found) {
      std::optional<relational::Tuple> answer = a.ApplyHead(q_.head());
      if (!answer.has_value()) continue;
      AnswerInfo* info = result_.FindOrInsert(*answer);
      // Merge-dedup: the same assignment surfaces once per atom it pins f
      // at, and again if the caller replays an already-seen notification.
      if (std::find(info->assignments.begin(), info->assignments.end(), a) !=
          info->assignments.end()) {
        continue;
      }
      EvalResult::AddWitnessIfNew(info, Evaluator::WitnessFor(q_, a));
      info->assignments.push_back(std::move(a));
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
  // Delta rule, delete side: drop every assignment whose witness contains
  // f, filter the witness lists of answers that lost assignments, and
  // erase answers whose assignment set becomes empty.
  std::vector<AnswerInfo>& answers = result_.mutable_answers();
  for (AnswerInfo& info : answers) {
    size_t before = info.assignments.size();
    std::erase_if(info.assignments, [&](const Assignment& a) {
      return AssignmentUsesFact(q_, a, *fi);
    });
    if (info.assignments.size() == before) continue;
    // An assignment uses f iff f is in its witness, so the assignments that
    // share a witness are dropped or kept together: filtering the witness
    // list keeps exactly the survivors' witnesses in first-occurrence order.
    std::erase_if(info.witnesses, [&](const provenance::Witness& w) {
      return w.Contains(*fi);
    });
  }
  std::erase_if(answers,
                [](const AnswerInfo& info) { return info.assignments.empty(); });
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
    if (info.assignments.empty()) {
      audit.Violation() << "answer " << tuple
                        << " has no assignments (survived GC empty)";
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
    // The witness list must be the first-occurrence dedup of the cached
    // assignments' witnesses, in order: hitting-set element numbers (and
    // so transcripts) follow it.
    provenance::WitnessSet first_occurrence;
    for (const Assignment& a : info.assignments) {
      std::optional<relational::Tuple> head = a.ApplyHead(q_.head());
      if (!head.has_value() || *head != info.tuple) {
        audit.Violation() << "answer " << tuple
                          << " caches an assignment grounding to a "
                          << "different head";
        continue;
      }
      provenance::Witness w = Evaluator::WitnessFor(q_, a);
      if (std::find(first_occurrence.begin(), first_occurrence.end(), w) ==
          first_occurrence.end()) {
        first_occurrence.push_back(std::move(w));
      }
    }
    if (info.witnesses != first_occurrence) {
      audit.Violation() << "witnesses of " << tuple
                        << " are not its assignments' witnesses in first "
                        << "occurrence order";
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
    if (got->assignments.size() != want.assignments.size()) {
      audit.Violation() << "answer " << tuple << " caches "
                        << got->assignments.size() << " assignments, "
                        << "from-scratch evaluation finds "
                        << want.assignments.size();
      continue;
    }
    for (const Assignment& a : want.assignments) {
      if (std::find(got->assignments.begin(), got->assignments.end(), a) ==
          got->assignments.end()) {
        audit.Violation() << "an assignment of " << tuple
                          << " is missing from the view";
      }
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

provenance::WitnessSet IncrementalUnionView::CombinedWitnesses(
    const relational::Tuple& t) const {
  provenance::WitnessSet combined;
  for (const IncrementalView& view : views_) {
    const AnswerInfo* info = view.result().Find(t);
    if (info == nullptr) continue;
    for (const provenance::Witness& w : info->witnesses) {
      if (std::find(combined.begin(), combined.end(), w) == combined.end()) {
        combined.push_back(w);
      }
    }
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
