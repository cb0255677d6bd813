#ifndef HDB_EXEC_EXCHANGE_H_
#define HDB_EXEC_EXCHANGE_H_

#include <memory>

#include "common/result.h"
#include "exec/executor.h"
#include "optimizer/plan.h"

namespace hdb::exec {

/// Builds the exchange (morsel-parallel) operator for a plan node the
/// optimizer marked parallel-eligible (plan->parallel_workers > 1) and
/// the ParallelismGovernor granted `workers` > 1 workers (DESIGN.md §13,
/// paper §4.4).
///
/// Every exchange runs its workers through one crew runner: each worker
/// executes a private copy of a {Filter, Project}* over SeqScan fragment
/// against one shared MorselDispenser and hands each batch to the
/// exchange's per-batch body; the runner owns the worker contexts, the
/// morsel-boundary revocation probes, trace propagation, the first worker
/// error, one fold of the workers' counters and the release of what they
/// charged. The bodies are the serial operators' batch code — BatchExprs
/// key reads (exec/batch_eval.h) and GroupAccumulator / GroupEmitter
/// (exec/agg.h). Dispatch by kind:
///
///  * kSeqScan / kFilter / kProject — ExchangeScanOp: each worker batch
///    becomes a row packet on a bounded queue the coordinator drains.
///  * kHashJoin — ExchangeHashJoinOp: a build crew stages rows into 32
///    hash partitions per worker; the probe crew merges disjoint
///    partitions, meets at a latch, then probes and streams packets.
///  * kHashGroupBy / kHashDistinct — per-worker GroupTable / KeyTable
///    merged under a latch as each worker drains; serial emission.
///
/// The caller (BuildExecutorNode) is responsible for falling back to the
/// serial operator when the grant is a single worker, so the parallel
/// machinery adds zero overhead to serial plans. Fragments never spill —
/// the governor's memory clamp is the admission control — but Eq. (4)
/// hard-limit kills still fire from any worker via ChargeBytesFromWorker.
Result<std::unique_ptr<Operator>> MakeExchangeOp(
    const optimizer::PlanNode* plan, ExecContext* ctx, int workers);

}  // namespace hdb::exec

#endif  // HDB_EXEC_EXCHANGE_H_
