#ifndef HDB_OBS_METRIC_NAMES_H_
#define HDB_OBS_METRIC_NAMES_H_

// Central list of every metric name registered anywhere in the tree.
// Names are dotted snake_case: `<subsystem>.<signal>[_<unit>]`, matching
// ^[a-z0-9_]+(\.[a-z0-9_]+)+$ — scripts/check_metrics.sh parses this file
// and fails the build-tree tests on duplicates or malformed names, so new
// metrics MUST be added here, never as inline string literals.

namespace hdb::obs {

// storage/ — buffer pool (pull callbacks over BufferPool::stats()) and
// pool-governor resize activity.
inline constexpr char kPoolHits[] = "pool.hits";
inline constexpr char kPoolMisses[] = "pool.misses";
inline constexpr char kPoolEvictions[] = "pool.evictions";
inline constexpr char kPoolHeapSteals[] = "pool.heap_steals";
inline constexpr char kPoolLookasideReuses[] = "pool.lookaside_reuses";
inline constexpr char kPoolCurrentFrames[] = "pool.current_frames";
inline constexpr char kPoolPinnedFrames[] = "pool.pinned_frames";
inline constexpr char kPoolFreeFrames[] = "pool.free_frames";
inline constexpr char kPoolCurrentBytes[] = "pool.current_bytes";
inline constexpr char kPoolGovernorPolls[] = "pool.governor_polls";
inline constexpr char kPoolResizesGrow[] = "pool.resizes_grow";
inline constexpr char kPoolResizesShrink[] = "pool.resizes_shrink";

// exec/ — admission gate, MPL controller, memory governor.
// admission.timeouts is the machine-readable overload signal: statements
// rejected with StatusCode::kOverloaded after the queue wait expired (the
// network front end turns each into an overload frame, DESIGN.md §12).
inline constexpr char kAdmissionTimeouts[] = "admission.timeouts";
inline constexpr char kGateAdmittedImmediately[] = "gate.admitted_immediately";
inline constexpr char kGateAdmittedAfterWait[] = "gate.admitted_after_wait";
inline constexpr char kGateTimedOut[] = "gate.timed_out";
inline constexpr char kGateActive[] = "gate.active";
inline constexpr char kGateWaiting[] = "gate.waiting";
inline constexpr char kGateWaitMicros[] = "gate.wait_micros";
inline constexpr char kMplCurrent[] = "mpl.current";
inline constexpr char kMplChanges[] = "mpl.changes";
inline constexpr char kMplAdaptations[] = "mpl.adaptations";
inline constexpr char kMemReclamations[] = "mem.reclamations";
inline constexpr char kMemReclaimedPages[] = "mem.reclaimed_pages";
inline constexpr char kMemHardLimitKills[] = "mem.hard_limit_kills";
inline constexpr char kMemActiveTasks[] = "mem.active_tasks";
inline constexpr char kMemSoftLimitPages[] = "mem.soft_limit_pages";
inline constexpr char kMemHardLimitPages[] = "mem.hard_limit_pages";

// txn/ — the lock table is no-wait (§2.1), so a "lock wait" surfaces as a
// conflict that aborts the statement; deadlock timeouts cannot occur.
inline constexpr char kLockConflicts[] = "lock.conflicts";
inline constexpr char kLockHeld[] = "lock.held";
inline constexpr char kLockTablePages[] = "lock.table_pages";

// engine/ — statements by kind, outcome, and phase latencies.
inline constexpr char kStmtSelect[] = "stmt.select";
inline constexpr char kStmtInsert[] = "stmt.insert";
inline constexpr char kStmtUpdate[] = "stmt.update";
inline constexpr char kStmtDelete[] = "stmt.delete";
inline constexpr char kStmtCall[] = "stmt.call";
inline constexpr char kStmtDdl[] = "stmt.ddl";
inline constexpr char kStmtTxn[] = "stmt.txn";
inline constexpr char kStmtExplain[] = "stmt.explain";
inline constexpr char kStmtOther[] = "stmt.other";
inline constexpr char kStmtErrors[] = "stmt.errors";
inline constexpr char kLatencyParseMicros[] = "latency.parse_micros";
inline constexpr char kLatencyOptimizeMicros[] = "latency.optimize_micros";
inline constexpr char kLatencyExecuteMicros[] = "latency.execute_micros";

// exec/ operator-level totals, accumulated per statement from RuntimeStats.
inline constexpr char kExecRowsScanned[] = "exec.rows_scanned";
// Scanned rows decoded into Values (the rest were dropped on their bytes).
inline constexpr char kExecRowsDecoded[] = "exec.rows_decoded";
inline constexpr char kExecRowsOutput[] = "exec.rows_output";
inline constexpr char kExecSpilledTuples[] = "exec.spilled_tuples";
inline constexpr char kExecPartitionsEvicted[] = "exec.partitions_evicted";
inline constexpr char kExecSortRunsSpilled[] = "exec.sort_runs_spilled";
inline constexpr char kExecGroupBySpilledGroups[] =
    "exec.group_by_spilled_groups";

// exec/ — statement-scoped spill scheduler (DESIGN.md §10).
inline constexpr char kExecSpillBytesWritten[] = "exec.spill.bytes_written";
inline constexpr char kExecSpillBytesRead[] = "exec.spill.bytes_read";
inline constexpr char kExecSpillRepartitions[] = "exec.spill.repartitions";
inline constexpr char kExecSpillDecisions[] = "exec.spill.decisions";

// exec/ — vectorized batch execution (DESIGN.md §9).
inline constexpr char kExecBatches[] = "exec.batch.batches";
inline constexpr char kExecBatchRows[] = "exec.batch.rows";
inline constexpr char kExecBatchArenaBytes[] = "exec.batch.arena_bytes";
inline constexpr char kExecBatchCapShrinks[] = "exec.batch.cap_shrinks";

// exec/ — intra-query parallelism (paper §4.4, DESIGN.md §13).
inline constexpr char kExecParallelPipelines[] = "exec.parallel.pipelines";
inline constexpr char kExecParallelWorkersStarted[] =
    "exec.parallel.workers_started";
inline constexpr char kExecParallelWorkersRevoked[] =
    "exec.parallel.workers_revoked";
inline constexpr char kExecParallelMorsels[] = "exec.parallel.morsels";

// profile/ — request tracer sink backpressure.
inline constexpr char kTraceEvents[] = "trace.events";
inline constexpr char kTraceDroppedSinkWrites[] = "trace.dropped_sink_writes";
inline constexpr char kTraceDroppedRing[] = "trace.dropped_ring";

// obs/ — statement lifecycle tracing (DESIGN.md §11).
inline constexpr char kTraceSpans[] = "trace.spans";
inline constexpr char kTraceWaitEvents[] = "trace.wait_events";
inline constexpr char kTraceDroppedSpans[] = "trace.dropped_spans";
inline constexpr char kStmtActive[] = "stmt.active";
inline constexpr char kStmtSlowCaptured[] = "stmt.slow_captured";
inline constexpr char kStmtSlowThresholdMicros[] =
    "stmt.slow_threshold_micros";

// net/ — the network front end (DESIGN.md §12): connection lifecycle,
// wire-level traffic, and overload/shedding activity.
inline constexpr char kNetConnectionsAccepted[] = "net.connections_accepted";
inline constexpr char kNetConnectionsClosed[] = "net.connections_closed";
inline constexpr char kNetConnectionsActive[] = "net.connections_active";
inline constexpr char kNetConnectionsShed[] = "net.connections_shed";
inline constexpr char kNetConnectionsRejected[] = "net.connections_rejected";
inline constexpr char kNetFramesIn[] = "net.frames_in";
inline constexpr char kNetFramesOut[] = "net.frames_out";
inline constexpr char kNetBytesIn[] = "net.bytes_in";
inline constexpr char kNetBytesOut[] = "net.bytes_out";
inline constexpr char kNetStatements[] = "net.statements";
inline constexpr char kNetOverloadsSent[] = "net.overloads_sent";
inline constexpr char kNetProtocolErrors[] = "net.protocol_errors";
inline constexpr char kNetWriteStalls[] = "net.write_stalls";

// obs/ — the decision log itself.
inline constexpr char kGovDecisions[] = "gov.decisions";

// wal/ — write-ahead log activity and durability horizon.
inline constexpr char kWalAppends[] = "wal.appends";
inline constexpr char kWalBytes[] = "wal.bytes";
inline constexpr char kWalFsyncs[] = "wal.fsyncs";
inline constexpr char kWalGroupCommitBatches[] = "wal.group_commit_batches";
inline constexpr char kWalAppendedLsn[] = "wal.appended_lsn";
inline constexpr char kWalDurableLsn[] = "wal.durable_lsn";
inline constexpr char kWalBytesSinceCheckpoint[] =
    "wal.bytes_since_checkpoint";

// wal/ — checkpoint governor activity and its self-derived target.
inline constexpr char kCheckpointCount[] = "checkpoint.count";
inline constexpr char kCheckpointPagesFlushed[] = "checkpoint.pages_flushed";
inline constexpr char kCheckpointMicros[] = "checkpoint.micros";
inline constexpr char kCheckpointTargetLogBytes[] =
    "checkpoint.target_log_bytes";

// wal/ — last crash recovery (set once at open).
inline constexpr char kRecoveryRuns[] = "recovery.runs";
inline constexpr char kRecoveryRedoRecords[] = "recovery.redo_records";
inline constexpr char kRecoveryRedoSkipped[] = "recovery.redo_skipped";
inline constexpr char kRecoveryRedoBytes[] = "recovery.redo_bytes";
inline constexpr char kRecoveryUndoRecords[] = "recovery.undo_records";
inline constexpr char kRecoveryLoserTxns[] = "recovery.loser_txns";
inline constexpr char kRecoveryTornPages[] = "recovery.torn_pages";

}  // namespace hdb::obs

#endif  // HDB_OBS_METRIC_NAMES_H_
