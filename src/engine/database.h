#ifndef HDB_ENGINE_DATABASE_H_
#define HDB_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/binder.h"
#include "engine/parser.h"
#include "exec/admission_gate.h"
#include "exec/executor.h"
#include "exec/memory_governor.h"
#include "exec/mpl_controller.h"
#include "index/btree.h"
#include "obs/decision_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "os/memory_env.h"
#include "os/stable_storage.h"
#include "os/virtual_clock.h"
#include "os/virtual_disk.h"
#include "stats/feedback.h"
#include "stats/proc_stats.h"
#include "stats/stats_registry.h"
#include "storage/buffer_pool.h"
#include "storage/pool_governor.h"
#include "table/table_heap.h"
#include "txn/transaction.h"
#include "wal/checkpoint_governor.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

#include "common/lock_rank.h"

namespace hdb::engine {

/// Simulated device backing the database's I/O cost (DESIGN.md
/// substitution #2).
enum class DeviceKind { kNone, kRotational, kFlash };

struct DatabaseOptions {
  uint32_t page_bytes = storage::kDefaultPageBytes;
  size_t initial_pool_frames = 512;
  uint64_t physical_memory_bytes = 256ull << 20;

  DeviceKind device = DeviceKind::kNone;
  os::RotationalDiskOptions rotational;
  os::FlashDiskOptions flash;

  storage::PoolGovernorOptions pool_governor;
  exec::MemoryGovernorOptions memory_governor;
  exec::MplControllerOptions mpl_controller;
  exec::AdmissionGateOptions admission_gate;
  optimizer::GovernorOptions optimizer_governor;
  size_t optimizer_arena_bytes = 0;
  optimizer::PlanCacheOptions plan_cache;

  /// Collect statistics from query execution feedback (paper §3).
  bool auto_feedback = true;

  /// Statement lifecycle tracing (DESIGN.md §11): slow-statement ring size
  /// and threshold floor. Tests set slow_floor_micros = 0 to capture every
  /// statement deterministically.
  obs::StatementRegistryOptions statement_registry;

  /// Rows per execution batch for the vectorized executor (DESIGN.md §9);
  /// 0 = the executor default (exec::kDefaultBatchCap). 1 degenerates to
  /// row-at-a-time — the batch-parity tests sweep this.
  size_t exec_batch_cap = 0;

  /// Intra-query parallelism (paper §4.4, DESIGN.md §13). The default
  /// max_workers = 1 keeps every statement on the serial operators; raise
  /// it to let the optimizer mark exchange-eligible fragments and the
  /// ParallelismGovernor grant workers per pipeline.
  exec::ParallelExecOptions parallel;

  /// Durable medium (DESIGN.md §7). Null = volatile database (all pre-WAL
  /// behavior: nothing survives the Database object). Non-null = the
  /// database's pages live in this StableStorage, which outlives the
  /// Database — reopening over the same media runs crash recovery, so
  /// destroy-without-checkpoint + reopen is exactly kill -9 + restart.
  std::shared_ptr<os::StableStorage> media;

  /// Write-ahead log switches. Forced off when `media` is null (a log
  /// without a durable medium has nothing to recover); additionally forced
  /// off by HDB_WAL=OFF in the environment (the bench's no-WAL baseline).
  wal::WalOptions wal;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  uint64_t rows_affected = 0;
  exec::RuntimeStats exec_stats;
  optimizer::OptimizeDiagnostics diag;
  std::string explain;
  bool used_cached_plan = false;
};

class Connection;

/// An embedded HolisticDB server instance: storage, governors, statistics,
/// optimizer and SQL front end wired together (the paper's thesis is that
/// these only work *in concert*). Databases start on first Connect and can
/// be dropped when the last connection closes — the zero-administration
/// embedding model of §1.
///
/// Thread safety: a Database is shared by concurrently executing
/// Connections (one thread per connection). Queries and DML run under a
/// shared DDL latch; DDL (CREATE/DROP/statistics rebuilds/CALIBRATE) runs
/// exclusive, so it never races object lookups. The heap/btree maps have
/// their own mutex; counters are atomic. A Connection itself is NOT
/// thread-safe — each belongs to one thread at a time.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Result<std::unique_ptr<Connection>> Connect();
  int connection_count() const {
    return connections_.load(std::memory_order_relaxed);
  }

  // --- Subsystem access (benches, tests, profiler) ---
  catalog::Catalog& catalog() { return *catalog_; }
  storage::BufferPool& pool() { return *pool_; }
  storage::DiskManager& disk() { return *disk_; }
  storage::PoolGovernor& pool_governor() { return *pool_governor_; }
  exec::MemoryGovernor& memory_governor() { return *memory_governor_; }
  exec::MplController& mpl_controller() { return *mpl_controller_; }
  exec::AdmissionGate& admission_gate() { return *admission_gate_; }
  exec::ParallelismGovernor& parallel_governor() { return *parallel_governor_; }
  os::VirtualClock& clock() { return clock_; }
  os::MemoryEnv& memory_env() { return *memory_env_; }
  stats::StatsRegistry& stats() { return stats_; }
  stats::ProcStatsRegistry& proc_stats() { return proc_stats_; }
  txn::TransactionManager& txn_manager() { return *txn_manager_; }
  txn::LockManager& lock_manager() { return *lock_manager_; }
  wal::WalManager& wal() { return *wal_; }
  wal::CheckpointGovernor& checkpoint_governor() {
    return *checkpoint_governor_;
  }
  /// What restart recovery found and did at Open (zeroes for a volatile
  /// database or a fresh media).
  const wal::RecoveryStats& recovery_stats() const { return recovery_stats_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::DecisionLog& decision_log() { return decision_log_; }
  obs::StatementRegistry& statement_registry() { return statement_registry_; }
  const DatabaseOptions& options() const { return options_; }

  /// Full telemetry snapshot (counters, histogram rollups, governor
  /// decisions, top statement shapes) as a JSON object — what the benches
  /// embed into their BENCH_*.json artifacts.
  std::string TelemetrySnapshotJson();

  /// Chrome/Perfetto trace-event JSON of the captured slow statements and
  /// the spans of everything currently running — open the output in
  /// ui.perfetto.dev (DESIGN.md §11).
  std::string TraceExportJson() {
    return statement_registry_.ExportChromeTraceJson();
  }

  table::TableHeap* heap(uint32_t table_oid);
  index::BTree* btree(uint32_t index_oid);
  const index::IndexStats* index_stats(uint32_t index_oid);

  /// Advances virtual time and runs the periodic self-management work
  /// (buffer-pool governor polling, MPL adaptation). Safe to call from any
  /// session thread while others execute SQL.
  void Tick(int64_t micros);

  /// Bulk load: appends rows and (re)builds statistics for every column —
  /// the paper's LOAD TABLE histogram-creation path (§3.2).
  Status LoadTable(const std::string& table, const std::vector<table::Row>& rows);

  /// CREATE STATISTICS path: full-column statistics (re)build.
  Status BuildStatistics(const std::string& table, int column);

  /// CALIBRATE DATABASE: probes the device, stores the model in the
  /// catalog (paper §4.2).
  Status Calibrate(const os::CalibrationOptions& opts = {});

  /// One row of sys.connections, produced by the network front end (the
  /// engine knows nothing about sockets; net/ knows nothing about virtual
  /// tables — this struct is the seam).
  struct NetConnectionInfo {
    uint64_t conn_id = 0;
    std::string peer;
    std::string state;  // "handshake" / "ready" / "executing" / "draining"
    bool in_txn = false;
    uint64_t prepared = 0;
    uint64_t statements = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
  };
  using NetConnectionProvider = std::function<std::vector<NetConnectionInfo>()>;
  /// Installed by net::Server at Start, cleared at Stop. The provider is
  /// copied out and invoked UNLOCKED: it takes the server's own mutex,
  /// which ranks below net_provider_mu_.
  void set_net_connection_provider(NetConnectionProvider provider) {
    LockGuard lock(net_provider_mu_);
    net_conn_provider_ = std::move(provider);
  }

  /// Index statistics provider for the optimizer.
  optimizer::IndexStatsProvider IndexStatsProvider();

  /// Index-probing callback for the selectivity estimator (paper §3).
  optimizer::IndexProber IndexProber();

 private:
  friend class Connection;

  explicit Database(DatabaseOptions options);
  Status Init();

  /// Registers engine-level metrics (statement counters, phase latencies)
  /// plus pull callbacks over the pool/gate/lock stats structs.
  void RegisterEngineTelemetry();
  /// Registers the `sys.*` virtual tables in the catalog.
  Status RegisterSysTables();
  /// Materializes the live rows of one `sys.*` table (executor callback).
  Result<std::vector<std::vector<Value>>> VirtualTableRows(uint32_t oid);

  // DDL bodies; callers hold ddl_mu_ exclusively. The REQUIRES makes that
  // contract machine-checked everywhere except Connection::ExecuteParsed,
  // whose latch mode is branch-dependent (DESIGN.md §8.4).
  Status CreateTableImpl(const CreateTableAst& ast) REQUIRES(ddl_mu_);
  Status CreateIndexImpl(const CreateIndexAst& ast) REQUIRES(ddl_mu_);
  Status DropTableImpl(const std::string& name) REQUIRES(ddl_mu_);
  Status DropIndexImpl(const std::string& name) REQUIRES(ddl_mu_);
  Status LoadTableLocked(const std::string& table,
                         const std::vector<table::Row>& rows)
      REQUIRES(ddl_mu_);
  Status BuildStatisticsLocked(const std::string& table, int column)
      REQUIRES(ddl_mu_);
  Status CalibrateLocked(const os::CalibrationOptions& opts)
      REQUIRES(ddl_mu_);

  /// Appends one DDL record and forces it durable — DDL is a barrier, not
  /// part of group commit. No-op when the WAL is off.
  Status LogDdl(wal::WalRecordType type, std::string payload);
  /// Post-recovery derived state: indexes are rebuilt from the heaps (index
  /// pages are not logged) and row counts re-derived by scanning.
  Status RebuildAfterRecovery();

  DatabaseOptions options_;
  os::VirtualClock clock_;

  /// Declared before the subsystems that hold pointers into them, so the
  /// registry and log are destroyed last.
  obs::MetricsRegistry metrics_;
  obs::DecisionLog decision_log_;
  obs::StatementRegistry statement_registry_;

  std::unique_ptr<os::MemoryEnv> memory_env_;
  std::unique_ptr<storage::DiskManager> disk_;
  /// Declared before the pool: the pool's flush barrier calls into the WAL,
  /// so the WAL must outlive any pool flush (including destruction).
  std::unique_ptr<wal::WalManager> wal_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::PoolGovernor> pool_governor_;
  std::unique_ptr<exec::MemoryGovernor> memory_governor_;
  std::unique_ptr<exec::MplController> mpl_controller_;
  std::unique_ptr<exec::AdmissionGate> admission_gate_;
  std::unique_ptr<exec::ParallelismGovernor> parallel_governor_;
  std::unique_ptr<catalog::Catalog> catalog_;
  std::unique_ptr<txn::LockManager> lock_manager_;
  std::unique_ptr<txn::TransactionManager> txn_manager_;
  std::unique_ptr<wal::CheckpointGovernor> checkpoint_governor_;
  wal::RecoveryStats recovery_stats_;
  stats::StatsRegistry stats_;
  stats::ProcStatsRegistry proc_stats_;

  /// Statement-level DDL latch: queries and DML hold it shared, DDL holds
  /// it exclusive. Guarantees heap()/btree() pointers stay valid for the
  /// duration of a statement without per-row object locking.
  mutable RankedSharedMutex<LockRank::kCatalogDdl> ddl_mu_;

  /// Guards the lazily populated object maps below (lookup + creation).
  /// The mapped objects themselves carry their own latches.
  mutable RankedMutex<LockRank::kEngineObjects> objects_mu_;
  std::map<uint32_t, std::unique_ptr<table::TableHeap>> heaps_
      GUARDED_BY(objects_mu_);
  std::map<uint32_t, std::unique_ptr<index::BTree>> btrees_
      GUARDED_BY(objects_mu_);

  mutable RankedMutex<LockRank::kNetProvider> net_provider_mu_;
  NetConnectionProvider net_conn_provider_ GUARDED_BY(net_provider_mu_);
  std::atomic<int> connections_{0};
  std::atomic<uint64_t> next_conn_id_{1};

  // --- Telemetry (DESIGN.md §6) ---
  /// Virtual-table oid → sys table index (order of kSysTableNames).
  std::map<uint32_t, int> sys_tables_;

  // Statement counters and phase-latency histograms (registered in Init;
  // stable pointers for the Database's lifetime).
  obs::Counter* stmt_select_ = nullptr;
  obs::Counter* stmt_insert_ = nullptr;
  obs::Counter* stmt_update_ = nullptr;
  obs::Counter* stmt_delete_ = nullptr;
  obs::Counter* stmt_call_ = nullptr;
  obs::Counter* stmt_ddl_ = nullptr;
  obs::Counter* stmt_txn_ = nullptr;
  obs::Counter* stmt_explain_ = nullptr;
  obs::Counter* stmt_other_ = nullptr;
  obs::Counter* stmt_errors_ = nullptr;
  obs::LatencyHistogram* parse_hist_ = nullptr;
  obs::LatencyHistogram* optimize_hist_ = nullptr;
  obs::LatencyHistogram* execute_hist_ = nullptr;
  obs::Counter* exec_rows_scanned_ = nullptr;
  obs::Counter* exec_rows_decoded_ = nullptr;
  obs::Counter* exec_rows_output_ = nullptr;
  obs::Counter* exec_spilled_tuples_ = nullptr;
  obs::Counter* exec_partitions_evicted_ = nullptr;
  obs::Counter* exec_sort_runs_spilled_ = nullptr;
  obs::Counter* exec_group_by_spilled_groups_ = nullptr;
  obs::Counter* exec_spill_bytes_written_ = nullptr;
  obs::Counter* exec_spill_bytes_read_ = nullptr;
  obs::Counter* exec_spill_repartitions_ = nullptr;
  obs::Counter* exec_spill_decisions_ = nullptr;
  obs::Counter* exec_batches_ = nullptr;
  obs::Counter* exec_batch_rows_ = nullptr;
  obs::Counter* exec_batch_arena_bytes_ = nullptr;
  obs::Counter* exec_batch_cap_shrinks_ = nullptr;
  obs::Counter* exec_parallel_pipelines_ = nullptr;
  obs::Counter* exec_parallel_workers_started_ = nullptr;
  obs::Counter* exec_parallel_workers_revoked_ = nullptr;
  obs::Counter* exec_parallel_morsels_ = nullptr;
};

/// A client connection: SQL execution, per-connection plan cache,
/// autocommit transactions.
///
/// A Connection is single-threaded (one owning thread at a time), but any
/// number of Connections on the same Database may Execute concurrently.
/// Each top-level statement takes the database's DDL latch (shared or
/// exclusive) and — for queries/DML/CALL — an admission-gate slot bounded
/// by the current multiprogramming level.
class Connection {
 public:
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Parses and executes one statement, `params` binding its positional
  /// `?` placeholders in order (see engine::Parse for the placeholder
  /// rules). Values fold in as typed literals; nothing is spliced into
  /// text. May block in the admission gate; returns kOverloaded if the
  /// queue wait times out.
  ///
  /// The statement gets its own registry entry (DESIGN.md §11) unless a
  /// trace is already current on this thread: a net worker opens the
  /// entry itself so that it also covers result encoding and flush.
  Result<QueryResult> Execute(const std::string& sql,
                              const std::vector<Value>& params = {});

  /// EXPLAIN convenience: optimizes and renders without executing.
  Result<std::string> Explain(const std::string& select_sql);

  Database* database() { return db_; }
  const optimizer::PlanCache& plan_cache() const { return plan_cache_; }

  /// Stable id surfaced in sys.active_statements / sys.connections.
  uint64_t conn_id() const { return conn_id_; }
  /// True between an explicit BEGIN and its COMMIT/ROLLBACK. Owning-thread
  /// read only (net/ mirrors it into an atomic for sys.connections).
  bool in_explicit_txn() const { return txn_ != nullptr; }

 private:
  friend class Database;
  explicit Connection(Database* db);

  /// Dispatches a parsed statement with its placeholder values. Assumes
  /// the caller (Execute) already holds the appropriate DDL latch and
  /// admission slot.
  ///
  /// Opted out of the analysis: the latch mode is branch-dependent —
  /// Execute takes ddl_mu_ exclusive for DDL, shared for everything
  /// else, and only the DDL branches here call REQUIRES(ddl_mu_)
  /// bodies. That dispatch invariant is not expressible to the strictly
  /// intra-procedural analysis (DESIGN.md §8.4); the runtime rank
  /// checker still covers the latch itself.
  Result<QueryResult> ExecuteParsed(StatementAst& stmt,
                                    const optimizer::ParamBindings& params)
      NO_THREAD_SAFETY_ANALYSIS;

  /// A non-empty `cache_key` (procedure statements only) keeps the
  /// placeholders symbolic under a cached plan; see the definition.
  Result<QueryResult> ExecuteSelect(const SelectAst& ast,
                                    const optimizer::ParamBindings& params,
                                    const std::string& cache_key,
                                    QueryResult* out);
  /// EXPLAIN ANALYZE: executes the plan with per-operator instrumentation
  /// and renders actual rows/time/memory next to the estimates.
  Result<QueryResult> ExecuteExplainAnalyze(
      const SelectAst& ast, const optimizer::ParamBindings& params,
      QueryResult* out);
  Result<QueryResult> ExecuteInsert(const InsertAst& ast,
                                    const optimizer::ParamBindings& params);
  Result<QueryResult> ExecuteUpdate(const UpdateAst& ast,
                                    const optimizer::ParamBindings& params);
  Result<QueryResult> ExecuteDelete(const DeleteAst& ast,
                                    const optimizer::ParamBindings& params);
  /// Runs a procedure body: each statement is parsed once and handed, with
  /// the CALL's values bound to its :names, to the executors above.
  Result<QueryResult> ExecuteCall(const CallAst& ast,
                                  const optimizer::ParamBindings& params);

  /// Runs a single-table scan collecting matching (rid, row) pairs — the
  /// DML victim scan, planned by the heuristic bypass (paper §4.1).
  Result<std::vector<std::pair<Rid, table::Row>>> CollectDmlVictims(
      const optimizer::Query& scan, optimizer::OptimizeDiagnostics* diag);

  /// Transaction helpers (autocommit when no explicit BEGIN).
  txn::Transaction* CurrentTxn(bool* auto_started);
  Status FinishAuto(txn::Transaction* txn, bool auto_started, bool ok);
  Status ApplyUndo(const txn::UndoRecord& rec);
  /// Undo applier for Abort: runs ApplyUndo under a CLR TxnScope so the
  /// heap ops it performs log as compensation records of `txn`.
  txn::TransactionManager::UndoApplier MakeUndoApplier(txn::Transaction* txn);

  /// Index + statistics maintenance on DML.
  Status MaintainOnInsert(catalog::TableDef* table, Rid rid,
                          const table::Row& row);
  Status MaintainOnDelete(catalog::TableDef* table, Rid rid,
                          const table::Row& row);

  optimizer::OptimizerContext MakeOptimizerContext();

  Database* db_;
  /// Stable id surfaced in sys.active_statements (not the live count).
  uint64_t conn_id_ = 0;
  optimizer::PlanCache plan_cache_;
  txn::Transaction* txn_ = nullptr;  // explicit transaction, if any
  /// Scratch row reused by ApplyUndo across undo records (decode-into,
  /// no per-record allocation churn). Connections are single-threaded.
  table::Row undo_scratch_row_;
};

}  // namespace hdb::engine

#endif  // HDB_ENGINE_DATABASE_H_
