#include "src/crowd/async_oracle.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/relational/csv.h"

namespace qoco::crowd {

namespace {

/// Structural signature of a union query: disjunct signatures joined with
/// ';' (CQuery::Signature is catalog-free; so is this). A disjunct's
/// signature never starts with ';' and uses a bare ';' only to end an
/// inequality, so the join splits back into exactly its disjuncts.
std::string UnionSignature(const query::UnionQuery& q) {
  std::string sig;
  for (const query::CQuery& d : q.disjuncts()) {
    if (!sig.empty()) sig += ";";
    sig += d.Signature();
  }
  return sig;
}

/// Appends `part` and a ';' terminator to `key`. A ';' or backslash inside
/// `part` gets a backslash in front, so a key of several parts splits back
/// into exactly those parts; a part holding neither is appended verbatim.
void AppendKeyPart(std::string_view part, std::string* key) {
  for (char c : part) {
    if (c == ';' || c == '\\') *key += '\\';
    *key += c;
  }
  *key += ';';
}

/// Renders a partial assignment as "0=(v);3=(w);": slot index plus encoded
/// value for every bound variable, in slot order.
std::string BindingKey(const query::Assignment& a) {
  std::string key;
  for (size_t v = 0; v < a.num_vars(); ++v) {
    query::VarId var = static_cast<query::VarId>(v);
    if (!a.IsBound(var)) continue;
    std::string part = std::to_string(v) + "=";
    part += relational::EncodeTupleKey({a.ValueOf(var)});
    AppendKeyPart(part, &key);
  }
  return key;
}

/// Renders an enumeration context as its sorted tuple keys: the oracle's
/// answer depends on the *set* of already-known answers, so two sessions
/// holding the same set in different orders ask the same question.
std::string CurrentSetKey(const std::vector<relational::Tuple>& current) {
  std::vector<std::string> rendered;
  rendered.reserve(current.size());
  for (const relational::Tuple& t : current) {
    rendered.push_back(relational::EncodeTupleKey(t));
  }
  std::sort(rendered.begin(), rendered.end());
  std::string key;
  for (const std::string& r : rendered) AppendKeyPart(r, &key);
  return key;
}

}  // namespace

Question Question::FactTrue(relational::Fact f) {
  Question q;
  q.kind = Kind::kIsFactTrue;
  q.fact = std::move(f);
  return q;
}

Question Question::AnswerTrue(const query::CQuery& cq, relational::Tuple t) {
  Question q;
  q.kind = Kind::kIsAnswerTrue;
  q.cquery = cq;
  q.tuple = std::move(t);
  return q;
}

Question Question::AnswerTrue(const query::UnionQuery& uq,
                              relational::Tuple t) {
  Question q;
  q.kind = Kind::kIsUnionAnswerTrue;
  q.union_query = uq;
  q.tuple = std::move(t);
  return q;
}

Question Question::Complete(const query::CQuery& cq,
                            query::Assignment partial) {
  Question q;
  q.kind = Kind::kComplete;
  q.cquery = cq;
  q.partial = std::move(partial);
  return q;
}

Question Question::MissingAnswer(const query::CQuery& cq,
                                 std::vector<relational::Tuple> current) {
  Question q;
  q.kind = Kind::kMissingAnswer;
  q.cquery = cq;
  q.current = std::move(current);
  return q;
}

Question Question::MissingAnswer(const query::UnionQuery& uq,
                                 std::vector<relational::Tuple> current) {
  Question q;
  q.kind = Kind::kUnionMissingAnswer;
  q.union_query = uq;
  q.current = std::move(current);
  return q;
}

std::string Question::Signature() const {
  std::string sig;
  switch (kind) {
    case Kind::kIsFactTrue:
      sig = "F|" + scope + "|" + std::to_string(fact.relation) + "|" +
            relational::EncodeTupleKey(fact.tuple);
      break;
    case Kind::kIsAnswerTrue:
      sig = "A|" + scope + "|" + cquery.Signature() + "|" +
            relational::EncodeTupleKey(tuple);
      break;
    case Kind::kIsUnionAnswerTrue:
      sig = "UA|" + scope + "|" + UnionSignature(union_query) + "|" +
            relational::EncodeTupleKey(tuple);
      break;
    case Kind::kComplete:
      sig = "C|" + scope + "|" + cquery.Signature() + "|" +
            (partial.has_value() ? BindingKey(*partial) : std::string());
      break;
    case Kind::kMissingAnswer:
      sig = "M|" + scope + "|" + cquery.Signature() + "|" +
            CurrentSetKey(current);
      break;
    case Kind::kUnionMissingAnswer:
      sig = "UM|" + scope + "|" + UnionSignature(union_query) + "|" +
            CurrentSetKey(current);
      break;
  }
  return sig;
}

Answer AskOracleBlocking(Oracle* oracle, const Question& q) {
  Answer a;
  switch (q.kind) {
    case Question::Kind::kIsFactTrue:
      a.yes = oracle->IsFactTrue(q.fact);
      break;
    case Question::Kind::kIsAnswerTrue:
      a.yes = oracle->IsAnswerTrue(q.cquery, q.tuple);
      break;
    case Question::Kind::kIsUnionAnswerTrue:
      a.yes = oracle->IsAnswerTrue(q.union_query, q.tuple);
      break;
    case Question::Kind::kComplete:
      a.assignment = oracle->Complete(q.cquery, *q.partial);
      a.yes = a.assignment.has_value();
      break;
    case Question::Kind::kMissingAnswer:
      a.tuple = oracle->MissingAnswer(q.cquery, q.current);
      a.yes = a.tuple.has_value();
      break;
    case Question::Kind::kUnionMissingAnswer:
      a.tuple = oracle->MissingAnswer(q.union_query, q.current);
      a.yes = a.tuple.has_value();
      break;
  }
  return a;
}

void BlockingOracleAdapter::Ask(const Question& q, Completion done) {
  if (dispatch_ == nullptr) {
    done(AskOracleBlocking(inner_, q));
    return;
  }
  Oracle* inner = inner_;
  common::Status submitted = dispatch_->Submit(
      [inner, q, done] { done(AskOracleBlocking(inner, q)); });
  if (!submitted.ok()) done(submitted);
}

}  // namespace qoco::crowd
