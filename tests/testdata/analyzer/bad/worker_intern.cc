// Fixture: worker-intern must fire exactly once (Intern inside a
// Submit body runs on a pool worker, off the coordinator).
#include "src/common/thread_pool.h"
#include "src/relational/value_dictionary.h"

void InternAll(qoco::common::ThreadPool& pool,
               qoco::relational::ValueDictionary& dict,
               const std::vector<qoco::relational::Value>& values) {
  (void)pool.Submit([&] {
    for (const qoco::relational::Value& v : values) dict.Intern(v);
  });
}
