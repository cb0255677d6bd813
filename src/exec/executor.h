#ifndef HDB_EXEC_EXECUTOR_H_
#define HDB_EXEC_EXECUTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "exec/memory_governor.h"
#include "exec/morsel.h"
#include "exec/parallel_governor.h"
#include "exec/row_batch.h"
#include "index/btree.h"
#include "optimizer/expr.h"
#include "optimizer/plan.h"
#include "stats/feedback.h"
#include "table/table_heap.h"

namespace hdb::exec {

class KeyFilter;

/// Counters the adaptive machinery exposes for tests and benches.
struct RuntimeStats {
  uint64_t rows_scanned = 0;
  /// Heap-scan rows decoded into Values: rows_scanned less the rows the
  /// scan's pre-decode stage dropped on their encoded bytes (DESIGN.md §9).
  uint64_t rows_decoded = 0;
  uint64_t rows_output = 0;
  uint64_t hash_partitions_evicted = 0;
  uint64_t hash_spilled_tuples = 0;
  bool hash_join_used_alternate = false;
  bool group_by_used_fallback = false;
  uint64_t group_by_spilled_groups = 0;
  uint64_t sort_runs_spilled = 0;
  /// Vectorized-execution counters (exec.batch.* metrics): batches and
  /// rows produced by leaf scans, the peak bytes charged for batch row
  /// pools ("arena"), and how often the memory governor shrank an
  /// operator's batch cap below the configured one.
  uint64_t batches = 0;
  uint64_t batch_rows = 0;
  uint64_t batch_arena_peak_bytes = 0;
  uint64_t batch_cap_shrinks = 0;
  /// Spill-scheduler counters (exec.spill.* metrics, DESIGN.md §10):
  /// bytes moved through SpillFiles in each direction, grace-hash
  /// re-partition passes over oversized spilled partitions, and victim
  /// choices made by the statement's spill scheduler.
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  uint64_t spill_repartitions = 0;
  uint64_t spill_decisions = 0;
  /// Intra-query parallelism counters (exec.parallel.* metrics, paper
  /// §4.4): pipelines that ran with more than one worker, workers
  /// launched, workers revoked at a morsel boundary by the
  /// ParallelismGovernor, and morsels dispensed to exchange workers.
  uint64_t parallel_pipelines = 0;
  uint64_t parallel_workers_started = 0;
  uint64_t parallel_workers_revoked = 0;
  uint64_t parallel_morsels = 0;
};

/// Everything an executor needs from the engine.
struct ExecContext {
  storage::BufferPool* pool = nullptr;
  /// Table heap by table oid; index by index oid.
  std::function<table::TableHeap*(uint32_t)> table_heap;
  std::function<index::BTree*(uint32_t)> index;
  /// Optional: execution-feedback statistics collection (paper §3).
  stats::FeedbackCollector* feedback = nullptr;
  /// Optional: memory governor context (paper §4.3).
  TaskMemoryContext* memory = nullptr;
  /// Quantifier count of the query (sizes RowContext).
  size_t num_quantifiers = 0;
  /// A cached procedure plan's :name bindings, propagated into every
  /// RowContext (null for every other statement: its values are literals).
  const optimizer::ParamBindings* params = nullptr;
  /// Row source for virtual `sys.*` tables (by table oid): the engine
  /// materializes live telemetry at scan Open() time; SeqScan iterates
  /// the materialized rows instead of heap pages.
  std::function<Result<std::vector<std::vector<Value>>>(uint32_t)>
      virtual_rows;
  /// Non-null under EXPLAIN ANALYZE: BuildExecutor wraps every operator
  /// with an instrumenting decorator that fills one entry per plan node.
  optimizer::OpActualsMap* actuals = nullptr;
  /// Rows per execution batch; 0 = kDefaultBatchCap. The memory governor
  /// can shrink the effective cap per operator (DESIGN.md §9).
  size_t batch_cap = 0;
  /// Live bytes currently charged for batch row pools (arena accounting);
  /// the peak lands in stats.batch_arena_peak_bytes.
  uint64_t batch_arena_live = 0;
  /// Per-quantifier column-materialization masks (column pruning), filled
  /// by ExecuteToRows from every expression in the plan when the root
  /// projects output. Empty = decode everything. A scan passes
  /// scan_masks[quantifier] (when present and sized to its table) down to
  /// DecodeRowInto so unreferenced columns are skipped, not copied.
  std::vector<std::vector<uint8_t>> scan_masks;
  /// Intra-query parallelism (paper §4.4, DESIGN.md §13). Non-null when
  /// the engine permits parallel pipelines; BuildExecutor consults it for
  /// plan nodes the optimizer marked parallel-eligible and falls back to
  /// the serial operators when the governor grants a single worker.
  ParallelismGovernor* parallel = nullptr;
  /// Worker-fragment fields, set only in the private ExecContext an
  /// exchange operator hands each worker: the shared morsel dispenser
  /// that replaces the scan's own heap iterator (for quantifier
  /// `morsel_quantifier`), and the flag that reroutes arena charges
  /// through TaskMemoryContext::ChargeBytesFromWorker (see the
  /// concurrency contract in memory_governor.h).
  MorselDispenser* morsel_source = nullptr;
  int morsel_quantifier = -1;
  bool in_parallel_worker = false;
  /// Revocation probe, polled by the morsel-consuming scan immediately
  /// before pulling a NEW morsel from `morsel_source` — never mid-morsel,
  /// so a revoked worker can't drop rows the dispenser already handed it.
  /// Returning true makes the scan report end-of-input; the worker then
  /// winds down through its normal drain path (flush packets, merge
  /// partial aggregation state). Null = never revoked.
  std::function<bool()> morsel_revoked;
  RuntimeStats stats;
};

/// Physical operator with one pull method (DESIGN.md §9): NextBatch()
/// resets the caller's RowBatch and fills it with up to capacity() rows.
/// Every operator binds the quantifier slots it produces (joins stamp
/// their outer rows' slots beside the inner ones); Project, and Distinct
/// and Limit above it, also fill the batch's output column — whether a
/// plan's root delivers that column is PlanProducesOutput(). NextBatch()
/// returns false only at end of stream; a true return with
/// ActiveCount()==0 just means every row of the batch was filtered. Slot
/// pointers stay valid until the operator's next NextBatch() or Close().
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  virtual Result<bool> NextBatch(RowBatch* batch) = 0;
  virtual void Close() = 0;
  /// Bytes of working memory currently held (hash build sides, group
  /// tables, sort buffers). Sampled by EXPLAIN ANALYZE for the peak.
  virtual uint64_t MemoryBytes() const { return 0; }
  /// Cumulative spill output of this operator (bytes / tuples written to
  /// SpillFiles). Sampled by EXPLAIN ANALYZE for the `spilled=` actuals.
  virtual uint64_t SpilledBytes() const { return 0; }
  virtual uint64_t SpilledTuples() const { return 0; }

  /// Hash-join key filters (DESIGN.md §9). A hash join offers `f`, a
  /// filter over column `column` of quantifier `quantifier`, to its probe
  /// child; true when taken. Only a heap scan binding that quantifier
  /// takes one and no operator passes an offer on, so a filter never
  /// crosses an operator whose actual rows it would change.
  virtual bool AcceptKeyFilter(int /*quantifier*/, int /*column*/,
                               const KeyFilter* /*f*/) {
    return false;
  }
  /// Withdraws `f` wherever AcceptKeyFilter placed it.
  virtual void WithdrawKeyFilter(const KeyFilter* /*f*/) {}
  /// Rows a key filter dropped inside this operator, cumulative. They
  /// passed the operator's own predicates (EXPLAIN ANALYZE counts them in
  /// actual rows and prints them as hash_filter=).
  virtual uint64_t KeyFilteredRows() const { return 0; }
};

/// True when the plan's root chain (Project or HashDistinct, under any
/// Filter/Limit) delivers projected rows in the batch output column
/// rather than bare quantifier slots.
bool PlanProducesOutput(const optimizer::PlanNode* plan);

/// Compiles a physical plan into an operator tree.
Result<std::unique_ptr<Operator>> BuildExecutor(
    const optimizer::PlanNode* plan, ExecContext* ctx);

/// Runs the plan to completion and returns the projected rows (requires a
/// Project somewhere at the root chain) or flattened quantifier rows.
Result<std::vector<std::vector<Value>>> ExecuteToRows(
    const optimizer::PlanNode* plan, ExecContext* ctx);

}  // namespace hdb::exec

#endif  // HDB_EXEC_EXECUTOR_H_
