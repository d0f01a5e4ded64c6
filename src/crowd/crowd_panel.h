#ifndef QOCO_CROWD_CROWD_PANEL_H_
#define QOCO_CROWD_CROWD_PANEL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/crowd/oracle.h"
#include "src/crowd/question_log.h"
#include "src/query/assignment.h"
#include "src/query/query.h"
#include "src/relational/tuple.h"

namespace qoco::crowd {

/// Panel configuration.
struct PanelConfig {
  /// Number of member votes sampled for a closed question. Must be odd.
  /// With 1 the single member is trusted (perfect-oracle mode) and open
  /// answers are not re-verified; with 3 (the paper's setup) a decision is
  /// made as soon as 2 members agree, and every open answer is verified
  /// with closed questions per Section 6.2.
  size_t sample_size = 1;
  /// Composite questions (Section 9 future work): up to this many fact
  /// verifications are posed to the crowd as a single question. Counting:
  /// each composite counts once toward verify_fact and each member answers
  /// it once, so batching divides the question volume by up to this
  /// factor.
  size_t composite_batch_size = 1;
  /// Reliability-weighted voting (Section 6.2 allows any black-box
  /// aggregator, e.g. trust-weighted averaging [49, 56]): each member's
  /// vote is weighted by their estimated accuracy, learned online from
  /// agreement with past panel decisions (Laplace-smoothed). With false,
  /// plain majority voting is used.
  bool weighted_voting = false;
};

/// The crowd abstraction consumed by the cleaning algorithms: poses the
/// four question types to a panel of members, aggregates closed questions
/// by early-terminating majority vote, verifies open answers, caches
/// verdicts so a question is never asked twice, and accounts every
/// interaction in a QuestionCounts.
///
/// A panel instance serves one cleaning session; verdicts are cached per
/// (query signature, tuple) so a question is never repeated.
class CrowdPanel {
 public:
  /// `members` must be non-empty; raw pointers must outlive the panel.
  CrowdPanel(std::vector<Oracle*> members, PanelConfig config);

  /// TRUE(R(ā))? by majority vote (cached): a one-fact VerifyFactsBatch.
  bool VerifyFact(const relational::Fact& fact);

  /// Composite verification: verdicts for all `facts`, posed to the crowd
  /// in composite questions of up to composite_batch_size facts each.
  /// Cached facts cost nothing; the rest cost one verify_fact per
  /// composite, decided by one Vote over its facts. Returns verdicts
  /// aligned with the input order.
  std::vector<bool> VerifyFactsBatch(
      const std::vector<relational::Fact>& facts);

  const PanelConfig& config() const { return config_; }

  /// TRUE(Q, t)? by majority vote (cached per query signature and t).
  bool VerifyAnswer(const query::CQuery& q, const relational::Tuple& t);

  /// Union-query variant of TRUE(Q, t)?.
  bool VerifyAnswer(const query::UnionQuery& q, const relational::Tuple& t);

  /// CrowdVerify of Algorithm 2 over an instantiated body: checks every
  /// *ground* atom of α(body(Q)) with VerifyFact and every resolvable
  /// inequality; returns false as soon as one fails. Non-ground atoms are
  /// skipped (they carry no question).
  bool VerifyPartialBody(const query::CQuery& q, const query::Assignment& a);

  /// COMPL(α, Q): asks members in turn for a completion; with
  /// sample_size > 1 each returned completion's new facts are verified by
  /// the panel and rejected completions trigger the next member. Returns
  /// the accepted completion or nullopt.
  std::optional<query::Assignment> Complete(const query::CQuery& q,
                                            const query::Assignment& partial);

  /// COMPL(Q(D)): asks members in turn for a missing answer; with
  /// sample_size > 1 the candidate is verified with TRUE(Q, t)?. Returns a
  /// verified missing answer or nullopt if the panel believes Q(D) is
  /// complete.
  std::optional<relational::Tuple> MissingAnswer(
      const query::CQuery& q, const std::vector<relational::Tuple>& current);

  /// Union-query variant of COMPL(Q(D)).
  std::optional<relational::Tuple> MissingAnswer(
      const query::UnionQuery& q,
      const std::vector<relational::Tuple>& current);

  const QuestionCounts& counts() const { return counts_; }

  /// Estimated accuracy of member `index` under weighted voting (0.5 when
  /// nothing has been observed).
  double MemberReliability(size_t index) const {
    return index < reliability_.size() ? reliability_[index].Weight() : 0.5;
  }
  QuestionCounts* mutable_counts() { return &counts_; }
  size_t num_members() const { return members_.size(); }

 private:
  /// Decides `n` closed questions posed together, where `ask(o, i)` is
  /// member o's answer to question i: members are asked in rotation from
  /// next_member_, each answering all n at once (one member answer), until
  /// every question holds a majority of sample_size. With weighted_voting
  /// every sampled member answers, each question goes to the
  /// reliability-weighted side, and reliabilities are updated per question.
  std::vector<bool> Vote(size_t n,
                         const std::function<bool(Oracle*, size_t)>& ask);

  std::vector<Oracle*> members_;
  PanelConfig config_;
  QuestionCounts counts_;
  size_t next_member_ = 0;

  /// Online reliability estimates for weighted voting: per member, how
  /// often they agreed with the final panel decision.
  struct Reliability {
    size_t agreements = 0;
    size_t answers = 0;
    double Weight() const {
      return (static_cast<double>(agreements) + 1.0) /
             (static_cast<double>(answers) + 2.0);
    }
  };
  std::vector<Reliability> reliability_;

  std::map<relational::Fact, bool> fact_cache_;
  /// Keyed by query signature + answer tuple, so one panel can serve
  /// several (sub)queries without verdict collisions.
  std::map<std::string, bool> answer_cache_;
};

}  // namespace qoco::crowd

#endif  // QOCO_CROWD_CROWD_PANEL_H_
