#ifndef HDB_OPTIMIZER_PLAN_H_
#define HDB_OPTIMIZER_PLAN_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "optimizer/query.h"

namespace hdb::optimizer {

struct PlanNode;

/// Measured per-operator execution facts, collected by EXPLAIN ANALYZE
/// (the executor wraps each operator and fills one entry per plan node).
/// Rendered by PlanNode::Explain next to the optimizer's estimates so
/// estimate-vs-actual drift — the paper's §4 feedback signal — is
/// directly readable.
struct OpActuals {
  uint64_t rows = 0;         // rows returned (selected), never batch pulls
  uint64_t invocations = 0;  // Next()/NextBatch() calls (incl. final miss)
  uint64_t batches = 0;      // NextBatch() calls when batch-driven
  uint64_t opens = 0;        // Open() calls (re-opens on NL inner sides)
  int64_t wall_micros = 0;   // wall time inside Open+Next, children included
  uint64_t peak_memory_bytes = 0;  // high-water mark of MemoryBytes()
  uint64_t spilled_bytes = 0;      // cumulative bytes written to SpillFiles
  uint64_t spilled_tuples = 0;     // cumulative tuples written to SpillFiles
  // Rows a scan's own predicates passed and a hash join's key filter then
  // dropped before decode (counted in `rows`, printed as hash_filter=).
  uint64_t hash_filtered = 0;
  // Wait-cause deltas (statement-trace tallies attributed to this
  // operator's Open/Next scope, children included — same nesting rule as
  // wall_micros). Zero unless a statement trace was installed.
  uint64_t wait_lock_micros = 0;
  uint64_t wait_wal_micros = 0;
  uint64_t wait_spill_micros = 0;  // spill write + read
  uint64_t wait_pool_micros = 0;
  // Exchange workers actually granted by the ParallelismGovernor for this
  // node's pipeline (0 = ran serial). EXPLAIN ANALYZE prints `workers=`.
  int workers = 0;
};

using OpActualsMap = std::map<const PlanNode*, OpActuals>;

enum class PlanKind : uint8_t {
  kSeqScan,
  kIndexScan,
  kNLJoin,
  kIndexNLJoin,
  kHashJoin,
  kFilter,
  kProject,
  kHashGroupBy,
  kHashDistinct,
  kSort,
  kLimit,
};

std::string_view PlanKindName(PlanKind k);

/// A physical plan node. One fat struct rather than a class hierarchy: the
/// executor dispatches on `kind`, the plan cache fingerprints the tree, and
/// EXPLAIN renders it. Children: scans none; joins two (outer=0, inner=1);
/// the rest one.
struct PlanNode {
  PlanKind kind = PlanKind::kSeqScan;
  std::vector<std::unique_ptr<PlanNode>> children;

  // --- Scans ---
  int quantifier = -1;
  const catalog::TableDef* table = nullptr;
  const catalog::IndexDef* index = nullptr;
  bool index_is_virtual = false;
  /// Index scan key range in the order-preserving-hash domain.
  std::optional<double> index_lo, index_hi;
  /// Parameterized bounds: evaluated against RowContext::params at Open
  /// (how one cached procedure plan serves every parameter value, §4.1).
  ExprPtr index_lo_expr, index_hi_expr;
  bool index_lo_inclusive = true, index_hi_inclusive = true;
  /// Predicate re-checked against fetched rows (always includes the index
  /// condition: hash collisions must not produce wrong answers).
  ExprPtr residual;

  // --- Joins ---
  /// Equi-join keys (outer side evaluated against outer row, inner against
  /// inner). For index-NL the inner key identifies the probe column.
  ExprPtr outer_key, inner_key;
  /// Extra join condition checked after the equi-match.
  ExprPtr extra_condition;

  // --- Memory-governor annotations (paper §4.3) ---
  /// Pages this memory-intensive operator was costed to use (the
  /// optimizer's prediction of the soft limit share).
  uint32_t memory_quota_pages = 0;
  /// Hash join: alternate strategy annotation — switch to index-NL after
  /// building if the real build cardinality is below the threshold.
  bool alt_index_nl = false;
  const catalog::IndexDef* alt_index = nullptr;
  double alt_switch_threshold_rows = 0;

  // --- Grouping / distinct / sort / limit / projection ---
  std::vector<ExprPtr> group_keys;
  std::vector<AggSpec> aggregates;
  ExprPtr having;
  std::vector<OrderItem> order;
  /// Limit: rows to pass. Sort: top-N bound when a LIMIT sits directly
  /// above it (EXPLAIN shows `Sort top=N`). -1 = none.
  int64_t limit = -1;
  std::vector<SelectItem> projections;

  // --- Estimates (for EXPLAIN, adaptivity thresholds, benches) ---
  double est_rows = 0;
  double est_cost = 0;

  // --- Intra-query parallelism (paper §4.4, DESIGN.md §13) ---
  /// Worker count the optimizer seeded for this node's pipeline from the
  /// cardinality estimate (MarkParallelFragments); 1 = serial. An upper
  /// bound only — the ParallelismGovernor grants the actual count at
  /// pipeline start and may revoke workers at morsel boundaries.
  /// Excluded from Fingerprint(): parallelism is a runtime decision, and
  /// cached plans must keep matching across MPL changes.
  int parallel_workers = 1;

  /// Stable structural fingerprint: equal plans (same shape, same access
  /// choices) fingerprint equal. The plan cache's training test (§4.1).
  std::string Fingerprint() const;

  /// Multi-line EXPLAIN rendering. When `actuals` is non-null (EXPLAIN
  /// ANALYZE), each line appends the operator's measured rows,
  /// invocations, wall time, and peak memory next to the estimates.
  std::string Explain(int indent = 0, const OpActualsMap* actuals = nullptr)
      const;
};

using PlanPtr = std::unique_ptr<PlanNode>;

}  // namespace hdb::optimizer

#endif  // HDB_OPTIMIZER_PLAN_H_
