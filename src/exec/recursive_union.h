#ifndef HDB_EXEC_RECURSIVE_UNION_H_
#define HDB_EXEC_RECURSIVE_UNION_H_

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace hdb::exec {

enum class RecursiveStrategy { kHashProbe, kSortMerge };

struct RecursiveUnionOptions {
  size_t max_iterations = 1000;
  /// Force one strategy (adaptive when unset).
  std::optional<RecursiveStrategy> force;
};

/// Adaptive RECURSIVE UNION evaluation (paper §4.3: "a special operator
/// for execution of RECURSIVE UNION is able to switch between several
/// alternative strategies, possibly using a different one for each
/// recursive iteration, and also possibly sharing work from iteration to
/// iteration").
///
/// Semantics: result = seed ∪ step(delta_0) ∪ step(delta_1) ∪ ... with
/// set-union deduplication, iterating until the delta is empty. Two
/// deduplication strategies are available and chosen per iteration by a
/// simple cost model:
///  * kHashProbe — probe each candidate against a hash set of everything
///    seen (cost ~ |candidates|); the hash set is the work shared across
///    iterations;
///  * kSortMerge — sort the candidate batch and merge against the sorted
///    history (cost ~ |candidates| log |candidates| + |history| fraction),
///    which wins for very large candidate batches relative to history.
class RecursiveUnion {
 public:
  using Options = RecursiveUnionOptions;
  using Strategy = RecursiveStrategy;

  struct IterationInfo {
    size_t candidates = 0;
    size_t new_rows = 0;
    Strategy used = Strategy::kHashProbe;
  };

  using Row = std::vector<Value>;
  /// Produces the next candidate rows from the last iteration's new rows.
  using StepFn = std::function<std::vector<Row>(const std::vector<Row>&)>;

  explicit RecursiveUnion(Options options = {}) : options_(options) {}

  Result<std::vector<Row>> Run(const std::vector<Row>& seed,
                               const StepFn& step);

  const std::vector<IterationInfo>& iterations() const { return iterations_; }

 private:
  Strategy Choose(size_t candidates, size_t history) const;

  Options options_;
  std::vector<IterationInfo> iterations_;
};

}  // namespace hdb::exec

#endif  // HDB_EXEC_RECURSIVE_UNION_H_
