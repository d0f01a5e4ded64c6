#include "src/query/query.h"

#include <algorithm>
#include <set>

#include "src/relational/csv.h"

namespace qoco::query {

namespace {

std::string TermToString(const Term& term, const CQuery& q) {
  if (term.is_variable()) return q.var_name(term.var());
  const relational::Value& v = term.constant();
  if (v.is_string()) return "'" + v.AsString() + "'";
  return v.ToString();
}

/// A term's key in CQuery::Signature: "v" and the variable id, or "c" and
/// the constant's EncodeCsvField text with a backslash before every '\',
/// '!' and ';'. Keys end at ",", "!=" or ";", and EncodeCsvField quotes
/// every string holding a ',', so a reader that skips escaped characters
/// and quoted text finds where each constant ends. A constant holding none
/// of the three characters keeps its bytes.
std::string TermSignature(const Term& t) {
  if (t.is_variable()) return "v" + std::to_string(t.var());
  std::string key = "c";
  for (char c : relational::EncodeCsvField(t.constant())) {
    if (c == '\\' || c == '!' || c == ';') key += '\\';
    key += c;
  }
  return key;
}

void CollectVars(const std::vector<Term>& terms, std::set<VarId>* out) {
  for (const Term& t : terms) {
    if (t.is_variable()) out->insert(t.var());
  }
}

Term Substitute(const Term& term, const std::vector<const relational::Value*>&
                                      binding) {
  if (term.is_constant()) return term;
  const relational::Value* v = binding[static_cast<size_t>(term.var())];
  if (v == nullptr) return term;
  return Term::MakeConst(*v);
}

}  // namespace

common::Result<CQuery> CQuery::Make(std::vector<Term> head,
                                    std::vector<Atom> atoms,
                                    std::vector<Inequality> inequalities,
                                    std::vector<std::string> var_names) {
  auto check_var = [&](const Term& t) -> common::Status {
    if (t.is_variable() &&
        (t.var() < 0 || static_cast<size_t>(t.var()) >= var_names.size())) {
      return common::Status::InvalidArgument("variable id out of range");
    }
    return common::Status::OK();
  };

  std::set<VarId> body_vars;
  for (const Atom& atom : atoms) {
    for (const Term& t : atom.terms) {
      QOCO_RETURN_NOT_OK(check_var(t));
      if (t.is_variable()) body_vars.insert(t.var());
    }
  }
  for (const Term& t : head) {
    QOCO_RETURN_NOT_OK(check_var(t));
    if (t.is_variable() && !body_vars.contains(t.var())) {
      return common::Status::InvalidArgument(
          "unsafe query: head variable '" +
          var_names[static_cast<size_t>(t.var())] +
          "' does not occur in the body");
    }
  }
  for (const Inequality& ineq : inequalities) {
    QOCO_RETURN_NOT_OK(check_var(ineq.lhs));
    QOCO_RETURN_NOT_OK(check_var(ineq.rhs));
    for (const Term* side : {&ineq.lhs, &ineq.rhs}) {
      if (side->is_variable() && !body_vars.contains(side->var())) {
        return common::Status::InvalidArgument(
            "unsafe query: inequality variable '" +
            var_names[static_cast<size_t>(side->var())] +
            "' does not occur in any relational atom");
      }
    }
  }

  CQuery q;
  q.head_ = std::move(head);
  q.atoms_ = std::move(atoms);
  q.inequalities_ = std::move(inequalities);
  q.var_names_ = std::move(var_names);
  return q;
}

std::vector<VarId> CQuery::BodyVars() const {
  std::set<VarId> vars;
  for (const Atom& atom : atoms_) CollectVars(atom.terms, &vars);
  return std::vector<VarId>(vars.begin(), vars.end());
}

std::vector<VarId> CQuery::AtomVars(size_t index) const {
  std::set<VarId> vars;
  CollectVars(atoms_[index].terms, &vars);
  return std::vector<VarId>(vars.begin(), vars.end());
}

std::vector<VarId> CQuery::HeadVars() const {
  std::set<VarId> vars;
  CollectVars(head_, &vars);
  return std::vector<VarId>(vars.begin(), vars.end());
}

CQuery CQuery::Subquery(const std::vector<size_t>& atom_indices) const {
  CQuery sub;
  sub.var_names_ = var_names_;
  std::set<VarId> kept_vars;
  for (size_t idx : atom_indices) {
    sub.atoms_.push_back(atoms_[idx]);
    CollectVars(atoms_[idx].terms, &kept_vars);
  }
  for (const Inequality& ineq : inequalities_) {
    bool applicable = true;
    for (const Term* side : {&ineq.lhs, &ineq.rhs}) {
      if (side->is_variable() && !kept_vars.contains(side->var())) {
        applicable = false;
      }
    }
    if (applicable) sub.inequalities_.push_back(ineq);
  }
  for (VarId v : kept_vars) sub.head_.push_back(Term::MakeVar(v));
  return sub;
}

common::Result<CQuery> CQuery::InstantiateAnswer(
    const relational::Tuple& t) const {
  if (t.size() != head_.size()) {
    return common::Status::InvalidArgument(
        "answer arity " + std::to_string(t.size()) +
        " does not match head arity " + std::to_string(head_.size()));
  }
  // Build the partial binding induced by t (the paper's abuse of notation:
  // the answer *is* the partial assignment mapping head vars to constants).
  std::vector<const relational::Value*> binding(var_names_.size(), nullptr);
  for (size_t i = 0; i < head_.size(); ++i) {
    if (head_[i].is_constant()) {
      if (head_[i].constant() != t[i]) {
        return common::Status::InvalidArgument(
            "answer incompatible with constant in head position " +
            std::to_string(i));
      }
      continue;
    }
    VarId v = head_[i].var();
    const relational::Value*& slot = binding[static_cast<size_t>(v)];
    if (slot != nullptr && *slot != t[i]) {
      return common::Status::InvalidArgument(
          "answer binds head variable '" + var_name(v) +
          "' to two different constants");
    }
    slot = &t[i];
  }

  CQuery out;
  out.var_names_ = var_names_;
  for (const Atom& atom : atoms_) {
    Atom substituted;
    substituted.relation = atom.relation;
    substituted.terms.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      substituted.terms.push_back(Substitute(term, binding));
    }
    out.atoms_.push_back(std::move(substituted));
  }
  for (const Inequality& ineq : inequalities_) {
    out.inequalities_.push_back(
        Inequality{Substitute(ineq.lhs, binding), Substitute(ineq.rhs, binding)});
  }
  std::set<VarId> remaining;
  for (const Atom& atom : out.atoms_) CollectVars(atom.terms, &remaining);
  for (VarId v : remaining) out.head_.push_back(Term::MakeVar(v));
  return out;
}

std::string CQuery::ToString(const relational::Catalog& catalog) const {
  std::string out = "(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ", ";
    out += TermToString(head_[i], *this);
  }
  out += ") :- ";
  for (size_t i = 0; i < atoms_.size(); ++i) {
    if (i > 0) out += ", ";
    out += catalog.relation_name(atoms_[i].relation) + "(";
    for (size_t j = 0; j < atoms_[i].terms.size(); ++j) {
      if (j > 0) out += ", ";
      out += TermToString(atoms_[i].terms[j], *this);
    }
    out += ")";
  }
  for (const Inequality& ineq : inequalities_) {
    out += ", " + TermToString(ineq.lhs, *this) + " != " +
           TermToString(ineq.rhs, *this);
  }
  return out;
}

std::string CQuery::Signature() const {
  std::string sig;
  for (const Term& t : head_) sig += TermSignature(t) + ",";
  sig += ":-";
  for (const Atom& atom : atoms_) {
    sig += "R" + std::to_string(atom.relation) + "(";
    for (const Term& t : atom.terms) sig += TermSignature(t) + ",";
    sig += ")";
  }
  for (const Inequality& ineq : inequalities_) {
    sig += TermSignature(ineq.lhs) + "!=" + TermSignature(ineq.rhs) + ";";
  }
  return sig;
}

common::Result<UnionQuery> UnionQuery::Make(std::vector<CQuery> disjuncts) {
  if (disjuncts.empty()) {
    return common::Status::InvalidArgument(
        "a union query needs at least one disjunct");
  }
  size_t arity = disjuncts.front().head().size();
  for (const CQuery& q : disjuncts) {
    if (q.head().size() != arity) {
      return common::Status::InvalidArgument(
          "union disjuncts must share head arity");
    }
  }
  UnionQuery u;
  u.disjuncts_ = std::move(disjuncts);
  return u;
}

}  // namespace qoco::query
