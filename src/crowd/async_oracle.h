#ifndef QOCO_CROWD_ASYNC_ORACLE_H_
#define QOCO_CROWD_ASYNC_ORACLE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crowd/oracle.h"

namespace qoco::crowd {

/// A crowd question reified as a value. The blocking Oracle interface poses
/// its six question kinds as virtual calls; the service layer instead needs
/// questions it can copy, key, queue and retry, so each call is captured
/// here together with everything the oracle needs to answer it.
///
/// The canonical Signature() is the identity used for cross-session
/// deduplication (src/service/question_broker.h): two questions with equal
/// signatures receive the same answer from any *pure* oracle — one whose
/// answer is a function of the question content only (SimulatedOracle, or
/// ImperfectOracle in stateless mode). The enumeration context of a
/// MissingAnswer question is canonicalized by sorting its rendered tuples,
/// since the oracle's answer depends on the set, not the order.
struct Question {
  enum class Kind {
    kIsFactTrue,         // TRUE(R(ā))?
    kIsAnswerTrue,       // TRUE(Q, t)?
    kIsUnionAnswerTrue,  // TRUE(Q, t)? over a union query
    kComplete,           // COMPL(α, Q)
    kMissingAnswer,      // COMPL(Q(D))
    kUnionMissingAnswer  // COMPL(Q(D)) over a union query
  };

  Kind kind = Kind::kIsFactTrue;
  /// Dedup scope: questions with different scopes never share answers even
  /// when otherwise identical. The service keys it by panel/member identity
  /// so distinct crowd members keep distinct (possibly erring) voices.
  std::string scope;

  relational::Fact fact;                     // kIsFactTrue
  query::CQuery cquery;                      // kIsAnswerTrue, kComplete, kMissingAnswer
  query::UnionQuery union_query;             // union kinds
  relational::Tuple tuple;                   // kIsAnswerTrue, kIsUnionAnswerTrue
  std::optional<query::Assignment> partial;  // kComplete
  std::vector<relational::Tuple> current;    // kMissingAnswer, kUnionMissingAnswer

  static Question FactTrue(relational::Fact f);
  static Question AnswerTrue(const query::CQuery& q, relational::Tuple t);
  static Question AnswerTrue(const query::UnionQuery& q, relational::Tuple t);
  static Question Complete(const query::CQuery& q, query::Assignment partial);
  static Question MissingAnswer(const query::CQuery& q,
                                std::vector<relational::Tuple> current);
  static Question MissingAnswer(const query::UnionQuery& q,
                                std::vector<relational::Tuple> current);

  /// Canonical content key: kind tag, scope, structural query signature and
  /// tuples/bindings encoded by relational::EncodeTupleKey, so values that
  /// differ in type or hold separators never share a key. Catalog-free and
  /// stable across processes.
  std::string Signature() const;
};

/// The answer to a Question. `yes` carries the boolean kinds; the optional
/// payloads carry the task kinds (COMPL answers), mirroring the return
/// types of the blocking interface.
struct Answer {
  bool yes = false;
  std::optional<query::Assignment> assignment;  // kComplete
  std::optional<relational::Tuple> tuple;       // kMissingAnswer*
};

/// Answers `q` by dispatching to the matching blocking Oracle method.
Answer AskOracleBlocking(Oracle* oracle, const Question& q);

/// Asynchronous oracle interface: completion-callback form of crowd I/O.
/// Ask never blocks on the crowd; `done` is invoked — possibly inline,
/// possibly from another thread — exactly once per delivered answer (a
/// faulty transport may drop or duplicate completions; the QuestionBroker
/// is the layer that makes that safe).
class AsyncOracle {
 public:
  using Completion = std::function<void(common::Result<Answer>)>;

  virtual ~AsyncOracle() = default;

  virtual void Ask(const Question& q, Completion done) = 0;
};

}  // namespace qoco::crowd

#endif  // QOCO_CROWD_ASYNC_ORACLE_H_
