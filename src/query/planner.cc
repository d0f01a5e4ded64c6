#include "src/query/planner.h"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>

#include "src/relational/id_posting_map.h"
#include "src/relational/value_id.h"

namespace qoco::query {

namespace {

using relational::kAbsentConstant;
using relational::kInvalidId;
using relational::Relation;
using relational::ValueId;

/// Semi-join reduction only pays for itself on scans long enough that
/// intersecting column domains is cheaper than visiting doomed candidates.
constexpr size_t kMinRootCandidatesForSemiJoin = 32;

/// An allowed set is kept only if it rejects at least half of the loosest
/// slot's domain: |acc| * kMinSemiJoinShrink <= max slot domain. A set near
/// the size of every domain it intersected (e.g. two relations over the
/// same key universe) prunes almost nothing, yet would charge a
/// binary_search on every fresh binding of the variable in the hot
/// unification loop.
constexpr size_t kMinSemiJoinShrink = 2;

/// Exact scoring of one atom under the initial binding: the same numbers
/// the adaptive engine's ScoreAtom computes at the root, plus the
/// fully-resolved refinement (set semantics: at most one stored row can
/// equal a ground atom, so its true output is <= 1 whatever its posting
/// lists say).
struct RootScore {
  double est = 0.0;
  size_t bound = 0;
  size_t candidates = 0;
  bool fully_resolved = true;
  bool use_posting = false;
  size_t probe_column = 0;
  std::span<const uint32_t> posting;  // Borrowed from the index.
  bool dead = false;  // Some resolved column has an empty posting list.
};

}  // namespace

Plan Planner::MakePlan(const CQuery& q, const Assignment& binding,
                       bool predict_suffix) const {
  Plan plan;
  const relational::ValueDictionary& dict = db_->dict();
  const std::vector<Atom>& atoms = q.atoms();

  // Resolves a term under the initial binding: the constant's interned id
  // (kAbsentConstant when never interned — equal to no stored id), a bound
  // variable's id, or kInvalidId for an unbound variable.
  auto resolve = [&](const Term& t) -> ValueId {
    if (t.is_constant()) {
      std::optional<ValueId> id = dict.Find(t.constant());
      return id.has_value() ? *id : kAbsentConstant;
    }
    return binding.IdOf(t.var());
  };

  // A fully-resolved inequality that fails makes every extension invalid.
  for (const Inequality& ineq : q.inequalities()) {
    if (ineq.DistinctConstants()) continue;  // Holds under every binding.
    ValueId a = resolve(ineq.lhs);
    ValueId b = resolve(ineq.rhs);
    if (a != kInvalidId && b != kInvalidId && a == b) {
      plan.infeasible = true;
      return plan;
    }
  }
  if (atoms.empty()) {
    plan.trivial = true;
    return plan;
  }

  // Exact root scoring. Probe-column selection replicates the adaptive rule
  // (first strictly-smaller posting wins, scanning columns left to right)
  // so the candidate iteration order of the chosen root is the one the
  // adaptive engine would produce.
  std::vector<RootScore> scores(atoms.size());
  for (size_t i = 0; i < atoms.size(); ++i) {
    const Relation& rel = db_->relation(atoms[i].relation);
    RootScore& s = scores[i];
    s.candidates = rel.size();
    for (size_t col = 0; col < atoms[i].terms.size(); ++col) {
      ValueId id = resolve(atoms[i].terms[col]);
      if (id == kInvalidId) {
        s.fully_resolved = false;
        continue;
      }
      ++s.bound;
      std::span<const uint32_t> rows = rel.RowsWithId(col, id);
      if (rows.size() < s.candidates) {
        s.candidates = rows.size();
        s.posting = rows;
        s.probe_column = col;
        s.use_posting = true;
      }
    }
    if (s.bound > 0 && s.candidates == 0) s.dead = true;
    s.est = s.fully_resolved ? std::min<double>(1.0, s.candidates)
                             : static_cast<double>(s.candidates);
    if (s.dead) {
      // No stored row can match this atom: the query is empty. Executing
      // would enumerate nothing either, so the shortcut is output-exact.
      plan.infeasible = true;
      return plan;
    }
  }

  // Root: smallest exact estimate, then most resolved positions, then the
  // earliest atom — a total, documented order, so plans are deterministic.
  size_t root = 0;
  for (size_t i = 1; i < atoms.size(); ++i) {
    const RootScore& a = scores[i];
    const RootScore& b = scores[root];
    bool better;
    if (a.est != b.est) {
      better = a.est < b.est;
    } else if (a.bound != b.bound) {
      better = a.bound > b.bound;
    } else {
      better = false;  // Earlier index wins ties.
    }
    if (better) root = i;
  }
  const RootScore& rs = scores[root];
  const Relation& root_rel = db_->relation(atoms[root].relation);
  plan.root_use_posting = rs.use_posting;
  plan.root_probe_column = rs.probe_column;
  if (rs.use_posting) {
    plan.root_posting = rs.posting;  // Borrowed; valid until a mutation.
  } else {
    plan.root_num_rows = root_rel.size();
  }
  plan.root_prefilter = plan.RootCandidateCount();

  // Semi-join reduction: a variable shared by several atom slots can only
  // bind ids present in every slot's column domain. Intersect the sorted
  // domains (galloping; see IntersectSortedIds) into per-variable allowed
  // sets, then drop root candidates outside them. Removing a candidate or
  // pruning a subtree this way only ever discards zero-output work, so the
  // surviving enumeration is the identical subsequence — order-preserving
  // by construction.
  if (atoms.size() >= 2 &&
      plan.RootCandidateCount() >= kMinRootCandidatesForSemiJoin) {
    plan.semijoin = true;
    std::vector<std::vector<std::pair<size_t, size_t>>> slots(q.num_vars());
    for (size_t i = 0; i < atoms.size(); ++i) {
      for (size_t col = 0; col < atoms[i].terms.size(); ++col) {
        const Term& t = atoms[i].terms[col];
        if (t.is_variable() && binding.IdOf(t.var()) == kInvalidId) {
          slots[static_cast<size_t>(t.var())].push_back({i, col});
        }
      }
    }
    plan.allowed.resize(q.num_vars());
    for (size_t v = 0; v < slots.size(); ++v) {
      if (slots[v].size() < 2) continue;
      // Intersect the first two domains directly (no copy of either), then
      // fold the rest into the accumulator.
      std::vector<const std::vector<ValueId>*> domains;
      domains.reserve(slots[v].size());
      size_t max_domain = 0;
      for (const auto& [ai, col] : slots[v]) {
        const ColumnSummary& summary =
            stats_->ForRelation(atoms[ai].relation).columns[col];
        domains.push_back(&summary.domain);
        max_domain = std::max(max_domain, summary.domain.size());
      }
      std::vector<ValueId> acc =
          relational::IntersectSortedIds(*domains[0], *domains[1]);
      for (size_t k = 2; k < domains.size() && !acc.empty(); ++k) {
        acc = relational::IntersectSortedIds(acc, *domains[k]);
      }
      if (acc.empty()) {
        // The variable has no consistent value: the query is empty.
        plan.infeasible = true;
        return plan;
      }
      // Keep the set only if it is selective enough to repay the
      // per-binding membership check (it can only ever discard zero-output
      // work, so dropping it is purely a cost decision).
      if (acc.size() * kMinSemiJoinShrink > max_domain) continue;
      plan.allowed[v] = std::move(acc);
    }

    // Filter the root scan through the allowed sets of its own columns.
    std::vector<std::pair<size_t, const std::vector<ValueId>*>> filters;
    for (size_t col = 0; col < atoms[root].terms.size(); ++col) {
      const Term& t = atoms[root].terms[col];
      if (!t.is_variable()) continue;
      auto v = static_cast<size_t>(t.var());
      if (v < plan.allowed.size() && !plan.allowed[v].empty()) {
        filters.push_back({col, &plan.allowed[v]});
      }
    }
    if (!filters.empty()) {
      std::vector<uint32_t> kept;
      const size_t n = plan.RootCandidateCount();
      kept.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t pos = plan.RootCandidateAt(i);
        const relational::ITuple& row = root_rel.rows()[pos];
        bool ok = true;
        for (const auto& [col, ids] : filters) {
          if (!std::binary_search(ids->begin(), ids->end(), row[col])) {
            ok = false;
            break;
          }
        }
        if (ok) kept.push_back(pos);
      }
      plan.root_candidates = std::move(kept);
      plan.root_materialized = true;
    }
  }

  plan.steps.push_back({root, rs.est, rs.bound, /*connected=*/false});
  if (!predict_suffix) return plan;

  // Predicted suffix, for EXPLAIN only: greedy over (connected, estimate,
  // bound positions, index). Exact posting probes for ids known now; the
  // column's average posting length (ColumnStats) for variables the prefix
  // will have bound by then. The executor re-ranks with exact counts at
  // run time instead.
  std::vector<bool> done(atoms.size(), false);
  done[root] = true;
  std::vector<bool> var_in_prefix(q.num_vars(), false);
  auto absorb_atom_vars = [&](size_t idx) {
    for (const Term& t : atoms[idx].terms) {
      if (t.is_variable()) var_in_prefix[static_cast<size_t>(t.var())] = true;
    }
  };
  absorb_atom_vars(root);

  // Estimates one pending atom against the current prefix: exact posting
  // probes for ids known now, the column's average posting length for
  // variables the prefix will have bound, full row count otherwise.
  auto estimate_step = [&](size_t i) {
    const Relation& rel = db_->relation(atoms[i].relation);
    PlanStep step{i, static_cast<double>(rel.size()), 0, false};
    bool fully = true;
    for (size_t col = 0; col < atoms[i].terms.size(); ++col) {
      const Term& t = atoms[i].terms[col];
      ValueId id = resolve(t);
      if (id != kInvalidId) {
        ++step.bound_positions;
        if (t.is_variable()) step.connected = true;
        double exact = static_cast<double>(rel.CountRowsWithId(col, id));
        step.est = std::min(step.est, exact);
      } else if (var_in_prefix[static_cast<size_t>(t.var())]) {
        ++step.bound_positions;
        step.connected = true;
        fully = false;
        const ColumnSummary& summary =
            stats_->ForRelation(atoms[i].relation).columns[col];
        step.est = std::min(step.est, summary.avg_posting);
      } else {
        fully = false;
      }
    }
    if (fully) step.est = std::min(step.est, 1.0);
    return step;
  };
  while (plan.steps.size() < atoms.size()) {
    size_t best = atoms.size();
    PlanStep best_step;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (done[i]) continue;
      PlanStep step = estimate_step(i);
      bool better;
      if (best == atoms.size()) {
        better = true;
      } else if (step.connected != best_step.connected) {
        better = step.connected;
      } else if (step.est != best_step.est) {
        better = step.est < best_step.est;
      } else if (step.bound_positions != best_step.bound_positions) {
        better = step.bound_positions > best_step.bound_positions;
      } else {
        better = false;  // Earlier index wins ties.
      }
      if (better) {
        best = i;
        best_step = step;
      }
    }
    done[best] = true;
    absorb_atom_vars(best);
    plan.steps.push_back(best_step);
  }
  return plan;
}

namespace {

std::string RenderTerm(const Term& t, const CQuery& q) {
  if (t.is_variable()) return q.var_name(t.var());
  return t.constant().ToString();
}

std::string RenderAtom(const Atom& atom, const CQuery& q,
                       const relational::Catalog& catalog) {
  std::string out = catalog.relation_name(atom.relation) + "(";
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += RenderTerm(atom.terms[i], q);
  }
  out += ")";
  return out;
}

}  // namespace

std::string Plan::DebugString(const CQuery& q,
                              const relational::Catalog& catalog) const {
  std::ostringstream out;
  if (infeasible) {
    out << "plan: infeasible (provably empty result)\n";
    return out.str();
  }
  if (trivial) {
    out << "plan: trivial (no atoms; the binding is the only extension)\n";
    return out.str();
  }
  out << "plan: " << steps.size() << " atom" << (steps.size() == 1 ? "" : "s")
      << ", adaptive suffix\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    out << "  " << (i + 1) << ". " << RenderAtom(q.atoms()[s.atom], q, catalog)
        << "  est=" << s.est << " bound=" << s.bound_positions;
    if (i == 0) {
      out << "  root scan: ";
      if (root_use_posting) {
        out << "posting col=" << root_probe_column;
      } else {
        out << "full";
      }
      out << ", candidates=" << RootCandidateCount() << "/" << root_prefilter
          << (semijoin ? " (semi-join on)" : " (semi-join off)");
    } else if (s.connected) {
      out << "  connected";
    }
    out << "\n";
  }
  bool any_allowed = false;
  for (size_t v = 0; v < allowed.size(); ++v) {
    if (allowed[v].empty()) continue;
    if (!any_allowed) {
      out << "  allowed:";
      any_allowed = true;
    }
    out << " " << q.var_name(static_cast<VarId>(v)) << ":"
        << allowed[v].size();
  }
  if (any_allowed) out << "\n";
  return out.str();
}

}  // namespace qoco::query
