#include "engine/database.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/ophash.h"
#include "obs/metric_names.h"
#include "table/row_codec.h"
#include "wal/ddl_record.h"

namespace hdb::engine {

namespace {

/// Row-materializer dispatch indexes for the sys.* virtual tables.
enum SysTable : int {
  kSysCounters = 0,
  kSysPool,
  kSysGovernors,
  kSysLocks,
  kSysStatements,
  kSysWal,
  kSysActiveStatements,
  kSysSlowStatements,
  kSysConnections,
};

/// HDB_WAL=OFF|off|0 disables the write-ahead log even on durable media —
/// the bench's no-WAL baseline and an escape hatch, not a tuning knob.
bool WalDisabledByEnv() {
  const char* env = std::getenv("HDB_WAL");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "OFF" || v == "off" || v == "0";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

uint64_t HashParams(const optimizer::ParamBindings& params) {
  uint64_t h = 1469598103934665603ull;
  for (const auto& [name, v] : params) h = h * 1099511628211ull ^ v.Hash();
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Database::Database(DatabaseOptions options)
    : options_(options), statement_registry_(options_.statement_registry) {}

Database::~Database() {
  if (wal_ != nullptr && wal_->enabled()) {
    // Clean shutdown: checkpoint so the next open has (almost) no redo
    // work, then stop the flusher. Skipped on crashed media — errors here
    // would mask the fault-injection result, and recovery handles the rest.
    if (checkpoint_governor_ != nullptr && disk_->media() != nullptr &&
        !disk_->media()->crashed()) {
      IgnoreError(checkpoint_governor_->ForceCheckpoint("shutdown"));
    }
    wal_->Shutdown();
  }
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::unique_ptr<Database>(new Database(options));
  HDB_RETURN_IF_ERROR(db->Init());
  return db;
}

Status Database::Init() {
  memory_env_ =
      std::make_unique<os::MemoryEnv>(options_.physical_memory_bytes);

  std::unique_ptr<os::VirtualDisk> device;
  switch (options_.device) {
    case DeviceKind::kRotational:
      options_.rotational.page_bytes = options_.page_bytes;
      device = std::make_unique<os::RotationalDisk>(options_.rotational);
      break;
    case DeviceKind::kFlash:
      options_.flash.page_bytes = options_.page_bytes;
      device = std::make_unique<os::FlashDisk>(options_.flash);
      break;
    case DeviceKind::kNone:
      break;
  }
  disk_ = std::make_unique<storage::DiskManager>(
      options_.page_bytes, std::move(device), &clock_, options_.media);

  wal::WalOptions wal_opts = options_.wal;
  if (options_.media == nullptr || WalDisabledByEnv()) {
    wal_opts.enabled = false;
  }
  wal_ = std::make_unique<wal::WalManager>(disk_.get(), wal_opts);

  storage::BufferPoolOptions pool_opts;
  pool_opts.initial_frames = options_.initial_pool_frames;
  pool_ = std::make_unique<storage::BufferPool>(disk_.get(), pool_opts);
  pool_governor_ = std::make_unique<storage::PoolGovernor>(
      pool_.get(), memory_env_.get(), &clock_, options_.pool_governor);

  options_.memory_governor.max_pool_pages =
      std::max<uint64_t>(1, options_.pool_governor.max_bytes /
                                options_.page_bytes);
  memory_governor_ = std::make_unique<exec::MemoryGovernor>(
      pool_.get(), options_.memory_governor);

  mpl_controller_ = std::make_unique<exec::MplController>(
      memory_governor_.get(), &clock_, options_.mpl_controller);
  admission_gate_ = std::make_unique<exec::AdmissionGate>(
      memory_governor_.get(), options_.admission_gate);
  parallel_governor_ = std::make_unique<exec::ParallelismGovernor>(
      memory_governor_.get(), admission_gate_.get(), options_.parallel);

  catalog_ = std::make_unique<catalog::Catalog>();
  lock_manager_ = std::make_unique<txn::LockManager>(pool_.get());
  txn_manager_ = std::make_unique<txn::TransactionManager>(
      pool_.get(), lock_manager_.get());
  txn_manager_->SetWal(wal_.get());

  // Telemetry (DESIGN.md §6): every governor writes counters into the
  // shared registry and decisions into the shared ring, then the sys.*
  // virtual tables make both queryable from any connection.
  pool_governor_->AttachTelemetry(&metrics_, &decision_log_);
  memory_governor_->AttachTelemetry(&metrics_, &decision_log_, &clock_);
  mpl_controller_->AttachTelemetry(&metrics_, &decision_log_);
  admission_gate_->AttachTelemetry(&metrics_);
  parallel_governor_->AttachTelemetry(&decision_log_, &clock_);
  lock_manager_->AttachTelemetry(&metrics_);
  wal_->AttachTelemetry(&metrics_);
  RegisterEngineTelemetry();
  // Before recovery: sys.* tables consume the first catalog oids at every
  // open in the same order, so replayed user DDL (which carries forced
  // oids) lands past them identically.
  HDB_RETURN_IF_ERROR(RegisterSysTables());

  if (wal_->enabled()) {
    wal::Recovery recovery(disk_.get(), wal_.get(), catalog_.get());
    HDB_ASSIGN_OR_RETURN(recovery_stats_, recovery.Run());
    txn_manager_->SeedNextTxnId(recovery_stats_.max_txn_id + 1);
    HDB_RETURN_IF_ERROR(RebuildAfterRecovery());
    metrics_.RegisterCounter(obs::kRecoveryRuns)
        ->Add(recovery_stats_.log_found ? 1 : 0);
    metrics_.RegisterCounter(obs::kRecoveryRedoRecords)
        ->Add(recovery_stats_.redo_records);
    metrics_.RegisterCounter(obs::kRecoveryRedoSkipped)
        ->Add(recovery_stats_.redo_skipped);
    metrics_.RegisterCounter(obs::kRecoveryRedoBytes)
        ->Add(recovery_stats_.redo_bytes);
    metrics_.RegisterCounter(obs::kRecoveryUndoRecords)
        ->Add(recovery_stats_.undo_records);
    metrics_.RegisterCounter(obs::kRecoveryLoserTxns)
        ->Add(recovery_stats_.loser_txns);
    metrics_.RegisterCounter(obs::kRecoveryTornPages)
        ->Add(recovery_stats_.torn_pages);
  }

  // WAL-before-data: the pool may not write back a logged page whose
  // changes are not yet durable in the log. Unlogged pages (index, temp)
  // carry no LSN and bypass the barrier.
  pool_->SetFlushBarrier(
      [this](storage::Lsn lsn) { return wal_->EnsureDurable(lsn); });
  checkpoint_governor_ = std::make_unique<wal::CheckpointGovernor>(
      wal_.get(), pool_.get(), &clock_);
  checkpoint_governor_->AttachTelemetry(&metrics_, &decision_log_);
  if (wal_->enabled()) {
    if (recovery_stats_.log_found) {
      // Bound the next open's redo work to what happens after this point.
      HDB_RETURN_IF_ERROR(checkpoint_governor_->ForceCheckpoint("recovery"));
    }
    wal_->StartFlusher();
  }
  return Status::OK();
}

Status Database::RebuildAfterRecovery() {
  for (catalog::TableDef* def : catalog_->AllTables()) {
    if (def->is_virtual) continue;
    table::TableHeap* h = heap(def->oid);
    if (h == nullptr) continue;

    // Row count is derived state (not logged); the same scan feeds the
    // index rebuilds so each heap is read once.
    std::vector<std::pair<Rid, table::Row>> rows;
    Status decode_status = Status::OK();
    HDB_RETURN_IF_ERROR(h->ScanAll([&](Rid rid, std::string_view bytes) {
      auto row = table::DecodeRow(*def, bytes.data(), bytes.size());
      if (!row.ok()) {
        decode_status = row.status();
        return false;
      }
      rows.emplace_back(rid, std::move(*row));
      return true;
    }));
    HDB_RETURN_IF_ERROR(decode_status);
    def->row_count = rows.size();

    // Index pages are never logged: recovery leaves the replayed IndexDefs
    // rootless and each tree is rebuilt from its heap. (The pre-crash index
    // pages leak on the media — append-only allocation tolerates that.)
    for (catalog::IndexDef* idx : catalog_->TableIndexes(def->oid)) {
      auto tree = std::make_unique<index::BTree>(pool_.get(), idx);
      HDB_RETURN_IF_ERROR(tree->Init());
      for (const auto& [rid, row] : rows) {
        HDB_RETURN_IF_ERROR(
            tree->Insert(OrderPreservingHash(row[idx->column_indexes[0]]),
                         rid));
      }
      LockGuard lock(objects_mu_);
      btrees_[idx->oid] = std::move(tree);
    }
  }
  return Status::OK();
}

Status Database::LogDdl(wal::WalRecordType type, std::string payload) {
  if (!wal_->enabled()) return Status::OK();
  HDB_ASSIGN_OR_RETURN(const storage::Lsn lsn,
                       wal_->Append(type, 0, std::move(payload)));
  return wal_->EnsureDurable(lsn);
}

void Database::RegisterEngineTelemetry() {
  stmt_select_ = metrics_.RegisterCounter(obs::kStmtSelect);
  stmt_insert_ = metrics_.RegisterCounter(obs::kStmtInsert);
  stmt_update_ = metrics_.RegisterCounter(obs::kStmtUpdate);
  stmt_delete_ = metrics_.RegisterCounter(obs::kStmtDelete);
  stmt_call_ = metrics_.RegisterCounter(obs::kStmtCall);
  stmt_ddl_ = metrics_.RegisterCounter(obs::kStmtDdl);
  stmt_txn_ = metrics_.RegisterCounter(obs::kStmtTxn);
  stmt_explain_ = metrics_.RegisterCounter(obs::kStmtExplain);
  stmt_other_ = metrics_.RegisterCounter(obs::kStmtOther);
  stmt_errors_ = metrics_.RegisterCounter(obs::kStmtErrors);
  parse_hist_ = metrics_.RegisterHistogram(obs::kLatencyParseMicros);
  optimize_hist_ = metrics_.RegisterHistogram(obs::kLatencyOptimizeMicros);
  execute_hist_ = metrics_.RegisterHistogram(obs::kLatencyExecuteMicros);
  exec_rows_scanned_ = metrics_.RegisterCounter(obs::kExecRowsScanned);
  exec_rows_decoded_ = metrics_.RegisterCounter(obs::kExecRowsDecoded);
  exec_rows_output_ = metrics_.RegisterCounter(obs::kExecRowsOutput);
  exec_spilled_tuples_ = metrics_.RegisterCounter(obs::kExecSpilledTuples);
  exec_partitions_evicted_ =
      metrics_.RegisterCounter(obs::kExecPartitionsEvicted);
  exec_sort_runs_spilled_ =
      metrics_.RegisterCounter(obs::kExecSortRunsSpilled);
  exec_group_by_spilled_groups_ =
      metrics_.RegisterCounter(obs::kExecGroupBySpilledGroups);
  exec_spill_bytes_written_ =
      metrics_.RegisterCounter(obs::kExecSpillBytesWritten);
  exec_spill_bytes_read_ = metrics_.RegisterCounter(obs::kExecSpillBytesRead);
  exec_spill_repartitions_ =
      metrics_.RegisterCounter(obs::kExecSpillRepartitions);
  exec_spill_decisions_ = metrics_.RegisterCounter(obs::kExecSpillDecisions);
  exec_batches_ = metrics_.RegisterCounter(obs::kExecBatches);
  exec_batch_rows_ = metrics_.RegisterCounter(obs::kExecBatchRows);
  exec_batch_arena_bytes_ = metrics_.RegisterCounter(obs::kExecBatchArenaBytes);
  exec_batch_cap_shrinks_ = metrics_.RegisterCounter(obs::kExecBatchCapShrinks);
  exec_parallel_pipelines_ =
      metrics_.RegisterCounter(obs::kExecParallelPipelines);
  exec_parallel_workers_started_ =
      metrics_.RegisterCounter(obs::kExecParallelWorkersStarted);
  exec_parallel_workers_revoked_ =
      metrics_.RegisterCounter(obs::kExecParallelWorkersRevoked);
  exec_parallel_morsels_ = metrics_.RegisterCounter(obs::kExecParallelMorsels);

  // Pull callbacks: the pool and the gate already maintain these under
  // their own latches, so the registry reads them at snapshot time instead
  // of double-counting.
  metrics_.RegisterCallback(obs::kPoolHits, [this] {
    return static_cast<double>(pool_->stats().hits);
  });
  metrics_.RegisterCallback(obs::kPoolMisses, [this] {
    return static_cast<double>(pool_->stats().misses);
  });
  metrics_.RegisterCallback(obs::kPoolEvictions, [this] {
    return static_cast<double>(pool_->stats().evictions);
  });
  metrics_.RegisterCallback(obs::kPoolHeapSteals, [this] {
    return static_cast<double>(pool_->stats().heap_steals);
  });
  metrics_.RegisterCallback(obs::kPoolLookasideReuses, [this] {
    return static_cast<double>(pool_->stats().lookaside_reuses);
  });
  metrics_.RegisterCallback(obs::kPoolCurrentFrames, [this] {
    return static_cast<double>(pool_->CurrentFrames());
  });
  metrics_.RegisterCallback(obs::kPoolPinnedFrames, [this] {
    return static_cast<double>(pool_->stats().pinned_frames);
  });
  metrics_.RegisterCallback(obs::kPoolFreeFrames, [this] {
    return static_cast<double>(pool_->stats().free_frames);
  });
  metrics_.RegisterCallback(obs::kPoolCurrentBytes, [this] {
    return static_cast<double>(pool_->CurrentBytes());
  });
  metrics_.RegisterCallback(obs::kGateAdmittedImmediately, [this] {
    return static_cast<double>(admission_gate_->stats().admitted_immediately);
  });
  metrics_.RegisterCallback(obs::kGateAdmittedAfterWait, [this] {
    return static_cast<double>(admission_gate_->stats().admitted_after_wait);
  });
  metrics_.RegisterCallback(obs::kGateTimedOut, [this] {
    return static_cast<double>(admission_gate_->stats().timed_out);
  });
  metrics_.RegisterCallback(obs::kGateActive, [this] {
    return static_cast<double>(admission_gate_->stats().active);
  });
  metrics_.RegisterCallback(obs::kGateWaiting, [this] {
    return static_cast<double>(admission_gate_->stats().waiting);
  });
  metrics_.RegisterCallback(obs::kGovDecisions, [this] {
    return static_cast<double>(decision_log_.total_recorded());
  });

  // Statement lifecycle tracing (DESIGN.md §11): the registry reads the
  // execute-latency histogram to auto-tune its slow-statement threshold.
  statement_registry_.AttachTelemetry(&metrics_, execute_hist_);
}

Status Database::RegisterSysTables() {
  using catalog::ColumnDef;
  const auto add = [this](const std::string& name,
                          std::vector<ColumnDef> cols, int which) -> Status {
    HDB_ASSIGN_OR_RETURN(catalog::TableDef * def,
                         catalog_->CreateVirtualTable(name, std::move(cols)));
    sys_tables_[def->oid] = which;
    return Status::OK();
  };
  HDB_RETURN_IF_ERROR(add("sys.counters",
                          {{"name", TypeId::kVarchar, false},
                           {"value", TypeId::kBigint, false}},
                          kSysCounters));
  HDB_RETURN_IF_ERROR(add("sys.pool",
                          {{"metric", TypeId::kVarchar, false},
                           {"value", TypeId::kBigint, false}},
                          kSysPool));
  HDB_RETURN_IF_ERROR(add("sys.governors",
                          {{"seq", TypeId::kBigint, false},
                           {"at_micros", TypeId::kBigint, false},
                           {"governor", TypeId::kVarchar, false},
                           {"action", TypeId::kVarchar, false},
                           {"reason", TypeId::kVarchar, false},
                           {"input", TypeId::kDouble, false},
                           {"output", TypeId::kDouble, false}},
                          kSysGovernors));
  HDB_RETURN_IF_ERROR(add("sys.locks",
                          {{"metric", TypeId::kVarchar, false},
                           {"value", TypeId::kBigint, false}},
                          kSysLocks));
  HDB_RETURN_IF_ERROR(add("sys.statements",
                          {{"shape", TypeId::kVarchar, false},
                           {"count", TypeId::kBigint, false},
                           {"total_micros", TypeId::kDouble, false},
                           {"avg_micros", TypeId::kDouble, false},
                           {"rows_returned", TypeId::kBigint, false}},
                          kSysStatements));
  HDB_RETURN_IF_ERROR(add("sys.wal",
                          {{"metric", TypeId::kVarchar, false},
                           {"value", TypeId::kBigint, false}},
                          kSysWal));
  // New sys tables go at the END: the oid-order comment in Init() — sys
  // tables consume the first catalog oids at every open in this exact
  // order, so appending keeps replayed user DDL landing past them.
  HDB_RETURN_IF_ERROR(add("sys.active_statements",
                          {{"stmt_id", TypeId::kBigint, false},
                           {"conn_id", TypeId::kBigint, false},
                           {"sql", TypeId::kVarchar, false},
                           {"current_span", TypeId::kVarchar, false},
                           {"elapsed_micros", TypeId::kBigint, false},
                           {"wait_admission_micros", TypeId::kBigint, false},
                           {"wait_lock_micros", TypeId::kBigint, false},
                           {"wait_wal_micros", TypeId::kBigint, false},
                           {"wait_spill_micros", TypeId::kBigint, false},
                           {"wait_pool_micros", TypeId::kBigint, false},
                           {"spilled_bytes", TypeId::kBigint, false},
                           {"quota_pages", TypeId::kBigint, false}},
                          kSysActiveStatements));
  HDB_RETURN_IF_ERROR(add("sys.slow_statements",
                          {{"stmt_id", TypeId::kBigint, false},
                           {"conn_id", TypeId::kBigint, false},
                           {"sql", TypeId::kVarchar, false},
                           {"ok", TypeId::kBoolean, false},
                           {"total_micros", TypeId::kBigint, false},
                           {"threshold_micros", TypeId::kBigint, false},
                           {"wait_admission_micros", TypeId::kBigint, false},
                           {"wait_lock_micros", TypeId::kBigint, false},
                           {"wait_wal_micros", TypeId::kBigint, false},
                           {"wait_spill_micros", TypeId::kBigint, false},
                           {"wait_pool_micros", TypeId::kBigint, false},
                           {"spilled_bytes", TypeId::kBigint, false},
                           {"rows_scanned", TypeId::kBigint, false},
                           {"rows_output", TypeId::kBigint, false},
                           {"spans", TypeId::kVarchar, false},
                           {"plan", TypeId::kVarchar, false}},
                          kSysSlowStatements));
  HDB_RETURN_IF_ERROR(add("sys.connections",
                          {{"conn_id", TypeId::kBigint, false},
                           {"peer", TypeId::kVarchar, false},
                           {"state", TypeId::kVarchar, false},
                           {"in_txn", TypeId::kBoolean, false},
                           {"prepared", TypeId::kBigint, false},
                           {"statements", TypeId::kBigint, false},
                           {"bytes_in", TypeId::kBigint, false},
                           {"bytes_out", TypeId::kBigint, false}},
                          kSysConnections));
  return Status::OK();
}

Result<std::vector<std::vector<Value>>> Database::VirtualTableRows(
    uint32_t oid) {
  const auto it = sys_tables_.find(oid);
  if (it == sys_tables_.end()) {
    return Status::Internal("unknown virtual table oid");
  }
  std::vector<std::vector<Value>> rows;
  switch (it->second) {
    case kSysCounters: {
      for (const obs::MetricSample& m : metrics_.Snapshot()) {
        if (m.kind == obs::MetricKind::kHistogram) {
          // Flatten histogram rollups into the (name, value) shape.
          rows.push_back({Value::String(m.name + ".count"),
                          Value::Bigint(static_cast<int64_t>(m.count))});
          rows.push_back({Value::String(m.name + ".mean"),
                          Value::Bigint(static_cast<int64_t>(m.value))});
          rows.push_back({Value::String(m.name + ".p50"),
                          Value::Bigint(static_cast<int64_t>(m.p50_micros))});
          rows.push_back({Value::String(m.name + ".p95"),
                          Value::Bigint(static_cast<int64_t>(m.p95_micros))});
          rows.push_back({Value::String(m.name + ".p99"),
                          Value::Bigint(static_cast<int64_t>(m.p99_micros))});
        } else {
          rows.push_back({Value::String(m.name),
                          Value::Bigint(static_cast<int64_t>(m.value))});
        }
      }
      break;
    }
    case kSysPool: {
      const storage::BufferPoolStats s = pool_->stats();
      const auto row = [&rows](const char* metric, uint64_t v) {
        rows.push_back({Value::String(metric),
                        Value::Bigint(static_cast<int64_t>(v))});
      };
      row("hits", s.hits);
      row("misses", s.misses);
      row("evictions", s.evictions);
      row("heap_steals", s.heap_steals);
      row("lookaside_reuses", s.lookaside_reuses);
      row("current_frames", s.current_frames);
      row("pinned_frames", s.pinned_frames);
      row("free_frames", s.free_frames);
      row("current_bytes", pool_->CurrentBytes());
      break;
    }
    case kSysGovernors: {
      for (const obs::Decision& d : decision_log_.Snapshot()) {
        rows.push_back({Value::Bigint(static_cast<int64_t>(d.seq)),
                        Value::Bigint(d.at_micros), Value::String(d.governor),
                        Value::String(d.action), Value::String(d.reason),
                        Value::Double(d.input), Value::Double(d.output)});
      }
      break;
    }
    case kSysLocks: {
      rows.push_back({Value::String("held"),
                      Value::Bigint(static_cast<int64_t>(
                          lock_manager_->held_locks()))});
      rows.push_back({Value::String("table_pages"),
                      Value::Bigint(static_cast<int64_t>(
                          lock_manager_->lock_table_pages()))});
      rows.push_back(
          {Value::String("conflicts"),
           Value::Bigint(static_cast<int64_t>(
               metrics_.RegisterCounter(obs::kLockConflicts)->value()))});
      break;
    }
    case kSysWal: {
      const auto row = [&rows](const char* metric, uint64_t v) {
        rows.push_back({Value::String(metric),
                        Value::Bigint(static_cast<int64_t>(v))});
      };
      const wal::WalStats ws = wal_->stats();
      row("enabled", wal_->enabled() ? 1 : 0);
      row("group_commit", wal_->group_commit() ? 1 : 0);
      row("appends", ws.appends);
      row("bytes", ws.bytes);
      row("fsyncs", ws.syncs);
      row("group_commit_batches", ws.group_batches);
      row("clr_records", ws.clr_records);
      row("appended_lsn", ws.appended_lsn);
      row("durable_lsn", ws.durable_lsn);
      row("bytes_since_checkpoint", ws.bytes_since_checkpoint);
      if (checkpoint_governor_ != nullptr) {
        const wal::CheckpointStats cs = checkpoint_governor_->stats();
        row("checkpoints", cs.checkpoints);
        row("checkpoint_pages_flushed", cs.pages_flushed);
        row("checkpoint_micros", cs.micros);
        row("checkpoint_target_log_bytes", cs.target_log_bytes);
      }
      row("recovery_redo_records", recovery_stats_.redo_records);
      row("recovery_undo_records", recovery_stats_.undo_records);
      row("recovery_loser_txns", recovery_stats_.loser_txns);
      row("recovery_torn_pages", recovery_stats_.torn_pages);
      break;
    }
    case kSysStatements: {
      for (const auto& [shape, s] : statement_registry_.ShapeSnapshot()) {
        rows.push_back(
            {Value::String(shape),
             Value::Bigint(static_cast<int64_t>(s.count)),
             Value::Double(s.total_micros),
             Value::Double(s.total_micros / s.count),
             Value::Bigint(static_cast<int64_t>(s.rows_returned))});
      }
      break;
    }
    case kSysActiveStatements: {
      const uint64_t now = obs::TraceNowMicros();
      const auto big = [](uint64_t v) {
        return Value::Bigint(static_cast<int64_t>(v));
      };
      for (const auto& t : statement_registry_.ActiveSnapshot()) {
        rows.push_back(
            {big(t->stmt_id()), big(t->conn_id()), Value::String(t->shape()),
             Value::String(t->current_span()),
             big(now > t->start_micros() ? now - t->start_micros() : 0),
             big(t->wait_micros(obs::WaitCause::kAdmission)),
             big(t->wait_micros(obs::WaitCause::kLock)),
             big(t->wait_micros(obs::WaitCause::kWalDurable)),
             big(t->wait_micros(obs::WaitCause::kSpillWrite) +
                 t->wait_micros(obs::WaitCause::kSpillRead)),
             big(t->wait_micros(obs::WaitCause::kPoolMiss)),
             big(t->spilled_bytes()), big(t->quota_pages())});
      }
      break;
    }
    case kSysSlowStatements: {
      const auto big = [](uint64_t v) {
        return Value::Bigint(static_cast<int64_t>(v));
      };
      const auto wait = [&](const obs::SlowStatement& s, obs::WaitCause c) {
        return s.wait_micros[static_cast<size_t>(c)];
      };
      for (const obs::SlowStatement& s : statement_registry_.SlowSnapshot()) {
        rows.push_back(
            {big(s.stmt_id), big(s.conn_id), Value::String(s.shape),
             Value::Boolean(s.ok), big(s.total_micros),
             big(s.threshold_micros),
             big(wait(s, obs::WaitCause::kAdmission)),
             big(wait(s, obs::WaitCause::kLock)),
             big(wait(s, obs::WaitCause::kWalDurable)),
             big(wait(s, obs::WaitCause::kSpillWrite) +
                 wait(s, obs::WaitCause::kSpillRead)),
             big(wait(s, obs::WaitCause::kPoolMiss)), big(s.spilled_bytes),
             big(s.rows_scanned), big(s.rows_output),
             Value::String(s.span_tree), Value::String(s.plan)});
      }
      break;
    }
    case kSysConnections: {
      // Copy the provider under net_provider_mu_, invoke unlocked (the
      // provider takes the net server's mutex, which ranks below it).
      // Empty when no network front end runs.
      NetConnectionProvider provider;
      {
        LockGuard lock(net_provider_mu_);
        provider = net_conn_provider_;
      }
      if (provider) {
        const auto big = [](uint64_t v) {
          return Value::Bigint(static_cast<int64_t>(v));
        };
        for (const NetConnectionInfo& c : provider()) {
          rows.push_back({big(c.conn_id), Value::String(c.peer),
                          Value::String(c.state), Value::Boolean(c.in_txn),
                          big(c.prepared), big(c.statements), big(c.bytes_in),
                          big(c.bytes_out)});
        }
      }
      break;
    }
  }
  return rows;
}

std::string Database::TelemetrySnapshotJson() {
  char buf[256];
  std::string out = "{\n  \"metrics\": {";
  bool first = true;
  for (const obs::MetricSample& m : metrics_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    if (m.kind == obs::MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    "\n    \"%s\": {\"count\": %llu, \"mean_micros\": %.3f, "
                    "\"p50_micros\": %.1f, \"p95_micros\": %.1f, "
                    "\"p99_micros\": %.1f}",
                    m.name.c_str(), static_cast<unsigned long long>(m.count),
                    m.value, m.p50_micros, m.p95_micros, m.p99_micros);
    } else {
      std::snprintf(buf, sizeof(buf), "\n    \"%s\": %.17g", m.name.c_str(),
                    m.value);
    }
    out += buf;
  }
  out += "\n  },\n  \"decisions\": [";
  first = true;
  for (const obs::Decision& d : decision_log_.Snapshot()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "\n    {\"seq\": %llu, \"at_micros\": %lld, \"governor\": \"%s\", "
        "\"action\": \"%s\", \"reason\": \"%s\", \"input\": %.17g, "
        "\"output\": %.17g}",
        static_cast<unsigned long long>(d.seq),
        static_cast<long long>(d.at_micros), d.governor.c_str(),
        d.action.c_str(), d.reason.c_str(), d.input, d.output);
    out += buf;
  }
  out += "\n  ],\n  \"statements\": [";
  first = true;
  for (const auto& [shape, s] : statement_registry_.ShapeSnapshot()) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  ", \"count\": %llu, \"total_micros\": %.3f, "
                  "\"rows_returned\": %llu}",
                  static_cast<unsigned long long>(s.count), s.total_micros,
                  static_cast<unsigned long long>(s.rows_returned));
    out += "\n    {\"shape\": \"" + JsonEscape(shape) + "\"";
    out += buf;
  }
  out += "\n  ]\n}";
  return out;
}

Result<std::unique_ptr<Connection>> Database::Connect() {
  connections_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Connection>(new Connection(this));
}

table::TableHeap* Database::heap(uint32_t table_oid) {
  LockGuard lock(objects_mu_);
  auto it = heaps_.find(table_oid);
  if (it != heaps_.end()) return it->second.get();
  auto def = catalog_->GetTableByOid(table_oid);
  if (!def.ok() || (*def)->is_virtual) return nullptr;
  auto heap = std::make_unique<table::TableHeap>(pool_.get(), *def, wal_.get());
  table::TableHeap* raw = heap.get();
  heaps_[table_oid] = std::move(heap);
  return raw;
}

index::BTree* Database::btree(uint32_t index_oid) {
  LockGuard lock(objects_mu_);
  auto it = btrees_.find(index_oid);
  return it == btrees_.end() ? nullptr : it->second.get();
}

const index::IndexStats* Database::index_stats(uint32_t index_oid) {
  index::BTree* tree = btree(index_oid);
  return tree == nullptr ? nullptr : &tree->stats();
}

optimizer::IndexStatsProvider Database::IndexStatsProvider() {
  return [this](uint32_t oid) { return index_stats(oid); };
}

optimizer::IndexProber Database::IndexProber() {
  return [this](uint32_t oid, double lo,
                double hi) -> std::optional<double> {
    index::BTree* tree = btree(oid);
    if (tree == nullptr || tree->stats().num_entries == 0) {
      return std::nullopt;
    }
    const auto count = tree->CountRange(lo, hi);
    if (!count.ok()) return std::nullopt;
    return static_cast<double>(*count) /
           static_cast<double>(tree->stats().num_entries);
  };
}

void Database::Tick(int64_t micros) {
  clock_.Advance(micros);
  pool_governor_->MaybePoll();
  // A raised MPL frees admission slots: wake queued requests.
  if (mpl_controller_->MaybeAdapt()) admission_gate_->Poke();
  if (checkpoint_governor_ != nullptr) checkpoint_governor_->MaybeCheckpoint();
}

Status Database::LoadTable(const std::string& table,
                           const std::vector<table::Row>& rows) {
  UniqueLock ddl(ddl_mu_);
  return LoadTableLocked(table, rows);
}

Status Database::LoadTableLocked(const std::string& table,
                                 const std::vector<table::Row>& rows) {
  HDB_ASSIGN_OR_RETURN(catalog::TableDef * def, catalog_->GetTable(table));
  if (def->is_virtual) {
    return Status::InvalidArgument("cannot LOAD into virtual table " + table);
  }
  table::TableHeap* h = heap(def->oid);
  const auto indexes = catalog_->TableIndexes(def->oid);
  // The whole load is one transaction in the WAL: its inserts log under
  // one txn id and the closing commit makes them durable in a single
  // barrier. Each insert also records an undo entry so a mid-load failure
  // rolls the partial load back for real — the deletes run under a CLR
  // scope, so the live database and a post-crash recovery agree the load
  // never happened.
  txn::Transaction* txn = txn_manager_->Begin();
  const Status load_status = [&]() -> Status {
    const wal::WalManager::TxnScope scope(txn->id());
    for (const table::Row& row : rows) {
      HDB_ASSIGN_OR_RETURN(const std::string bytes,
                           table::EncodeRow(*def, row));
      HDB_ASSIGN_OR_RETURN(const Rid rid, h->Insert(bytes));
      txn::UndoRecord undo;
      undo.op = txn::UndoOp::kInsert;
      undo.table_oid = def->oid;
      undo.rid = rid;
      undo.before_image.assign(bytes.begin(), bytes.end());
      txn->RecordUndo(std::move(undo));
      for (catalog::IndexDef* idx : indexes) {
        index::BTree* tree = btree(idx->oid);
        if (tree == nullptr) continue;
        const Value& key = row[idx->column_indexes[0]];
        HDB_RETURN_IF_ERROR(tree->Insert(OrderPreservingHash(key), rid));
      }
    }
    return Status::OK();
  }();
  if (!load_status.ok()) {
    // If an undo step itself fails, Abort returns without the kAbort
    // record and recovery classifies the transaction as a loser, undoing
    // the remainder from the log — both exits are consistent.
    table::Row undo_row;  // reused across undo records: decode-into, no churn
    IgnoreError(txn_manager_->Abort(txn, [&](const txn::UndoRecord& rec) -> Status {
      const wal::WalManager::TxnScope clr_scope(txn->id(), /*clr=*/true);
      const Status st = table::DecodeRowInto(*def, rec.before_image.data(),
                                             rec.before_image.size(), &undo_row);
      if (st.ok()) {
        for (catalog::IndexDef* idx : indexes) {
          index::BTree* tree = btree(idx->oid);
          if (tree == nullptr) continue;
          // Best-effort unhook: the row may never have been indexed.
          IgnoreError(tree->Remove(
              OrderPreservingHash(undo_row[idx->column_indexes[0]]), rec.rid));
        }
      }
      return h->Delete(rec.rid);
    }));
    return load_status;
  }
  HDB_RETURN_IF_ERROR(txn_manager_->Commit(txn));
  // LOAD TABLE (re)creates histograms for every column (paper §3.2).
  for (size_t c = 0; c < def->columns.size(); ++c) {
    HDB_RETURN_IF_ERROR(BuildStatisticsLocked(table, static_cast<int>(c)));
  }
  return Status::OK();
}

Status Database::BuildStatistics(const std::string& table, int column) {
  UniqueLock ddl(ddl_mu_);
  return BuildStatisticsLocked(table, column);
}

Status Database::BuildStatisticsLocked(const std::string& table, int column) {
  HDB_ASSIGN_OR_RETURN(catalog::TableDef * def, catalog_->GetTable(table));
  if (def->is_virtual) {
    return Status::InvalidArgument(
        "cannot build statistics on virtual table " + table);
  }
  if (column < 0 || column >= static_cast<int>(def->columns.size())) {
    return Status::InvalidArgument("bad column index");
  }
  table::TableHeap* h = heap(def->oid);
  std::vector<Value> values;
  values.reserve(def->row_count);
  Status scan_status = Status::OK();
  table::Row row;  // reused across rows: decode-into, no churn
  HDB_RETURN_IF_ERROR(h->ScanAll([&](Rid, std::string_view bytes) {
    const Status st =
        table::DecodeRowInto(*def, bytes.data(), bytes.size(), &row);
    if (!st.ok()) {
      scan_status = st;
      return false;
    }
    values.push_back(row[column]);
    return true;
  }));
  HDB_RETURN_IF_ERROR(scan_status);
  stats_.BuildColumn(*def, column, values);
  return Status::OK();
}

Status Database::Calibrate(const os::CalibrationOptions& opts) {
  UniqueLock ddl(ddl_mu_);
  return CalibrateLocked(opts);
}

Status Database::CalibrateLocked(const os::CalibrationOptions& opts) {
  os::VirtualDisk* device = disk_->device();
  if (device == nullptr) {
    return Status::NotSupported("no device attached to calibrate");
  }
  catalog_->SetDttModel(os::CalibrateDisk(*device, opts));
  return Status::OK();
}

Status Database::CreateTableImpl(const CreateTableAst& ast) {
  std::vector<catalog::ColumnDef> cols;
  for (const auto& c : ast.columns) {
    cols.push_back(catalog::ColumnDef{c.name, c.type, !c.not_null});
  }
  HDB_ASSIGN_OR_RETURN(catalog::TableDef * def,
                       catalog_->CreateTable(ast.name, std::move(cols)));
  HDB_RETURN_IF_ERROR(LogDdl(wal::WalRecordType::kDdlCreateTable,
                             wal::EncodeDdlCreateTable(*def)));
  for (const auto& fk : ast.foreign_keys) {
    HDB_ASSIGN_OR_RETURN(catalog::TableDef * ref,
                         catalog_->GetTable(fk.ref_table));
    catalog::ForeignKey cfk;
    cfk.table_oid = def->oid;
    cfk.column_index = def->ColumnIndex(fk.column);
    cfk.ref_table_oid = ref->oid;
    cfk.ref_column_index = ref->ColumnIndex(fk.ref_column);
    if (cfk.column_index < 0 || cfk.ref_column_index < 0) {
      return Status::InvalidArgument("foreign key column not found");
    }
    HDB_RETURN_IF_ERROR(catalog_->AddForeignKey(cfk));
    HDB_RETURN_IF_ERROR(LogDdl(wal::WalRecordType::kDdlForeignKey,
                               wal::EncodeDdlForeignKey(cfk)));
  }
  return Status::OK();
}

Status Database::CreateIndexImpl(const CreateIndexAst& ast) {
  HDB_ASSIGN_OR_RETURN(catalog::TableDef * def, catalog_->GetTable(ast.table));
  std::vector<int> cols;
  for (const std::string& name : ast.columns) {
    const int c = def->ColumnIndex(name);
    if (c < 0) return Status::NotFound("column " + name);
    cols.push_back(c);
  }
  HDB_ASSIGN_OR_RETURN(
      catalog::IndexDef * idx,
      catalog_->CreateIndex(ast.name, ast.table, cols, ast.unique));
  HDB_RETURN_IF_ERROR(LogDdl(wal::WalRecordType::kDdlCreateIndex,
                             wal::EncodeDdlCreateIndex(*idx)));
  auto tree = std::make_unique<index::BTree>(pool_.get(), idx);
  HDB_RETURN_IF_ERROR(tree->Init());

  // Populate from existing rows.
  table::TableHeap* h = heap(def->oid);
  Status status = Status::OK();
  table::Row row;  // reused across rows: decode-into, no churn
  HDB_RETURN_IF_ERROR(h->ScanAll([&](Rid rid, std::string_view bytes) {
    const Status st =
        table::DecodeRowInto(*def, bytes.data(), bytes.size(), &row);
    if (!st.ok()) {
      status = st;
      return false;
    }
    const Value& key = row[cols[0]];
    if (idx->unique) {
      auto exists = tree->Contains(OrderPreservingHash(key));
      if (exists.ok() && *exists) {
        // A unique index over existing duplicates: tolerate (collisions on
        // the hash make exactness impossible anyway); real enforcement
        // happens on DML via value comparison.
      }
    }
    status = tree->Insert(OrderPreservingHash(key), rid);
    return status.ok();
  }));
  HDB_RETURN_IF_ERROR(status);
  {
    LockGuard lock(objects_mu_);
    btrees_[idx->oid] = std::move(tree);
  }

  // Index creation also creates the leading column's histogram (§3.2).
  return BuildStatisticsLocked(ast.table, cols[0]);
}

Status Database::DropTableImpl(const std::string& name) {
  HDB_ASSIGN_OR_RETURN(catalog::TableDef * def, catalog_->GetTable(name));
  const uint32_t oid = def->oid;
  // Log-before-apply, like every other DDL path: the drop record is made
  // durable before any in-memory state changes, so a crash can only lose
  // the whole drop — it can never resurrect a table the live catalog
  // already forgot, nor leave the catalog diverged from the log after a
  // failed append.
  HDB_RETURN_IF_ERROR(LogDdl(wal::WalRecordType::kDdlDropTable,
                             wal::EncodeDdlDropName(name)));
  {
    LockGuard lock(objects_mu_);
    for (catalog::IndexDef* idx : catalog_->TableIndexes(oid)) {
      btrees_.erase(idx->oid);
    }
    heaps_.erase(oid);
  }
  stats_.DropTable(oid);
  return catalog_->DropTable(name);
}

Status Database::DropIndexImpl(const std::string& name) {
  HDB_ASSIGN_OR_RETURN(catalog::IndexDef * idx, catalog_->GetIndex(name));
  const uint32_t oid = idx->oid;
  // Log-before-apply; see DropTableImpl.
  HDB_RETURN_IF_ERROR(LogDdl(wal::WalRecordType::kDdlDropIndex,
                             wal::EncodeDdlDropName(name)));
  {
    LockGuard lock(objects_mu_);
    btrees_.erase(oid);
  }
  return catalog_->DropIndex(name);
}

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

Connection::Connection(Database* db)
    : db_(db),
      conn_id_(db->next_conn_id_.fetch_add(1, std::memory_order_relaxed)),
      plan_cache_(db->options().plan_cache) {}

Connection::~Connection() {
  if (txn_ != nullptr) {
    // Rollback touches table heaps: hold the DDL latch shared like any
    // other statement would.
    SharedLock ddl(db_->ddl_mu_);
    // Destructor rollback is best-effort (no error channel); if an undo
    // step fails, recovery finishes the job from the log.
    IgnoreError(db_->txn_manager().Abort(txn_, MakeUndoApplier(txn_)));
  }
  db_->connections_.fetch_sub(1, std::memory_order_relaxed);
}

txn::TransactionManager::UndoApplier Connection::MakeUndoApplier(
    txn::Transaction* txn) {
  return [this, id = txn->id()](const txn::UndoRecord& rec) {
    const wal::WalManager::TxnScope scope(id, /*clr=*/true);
    return ApplyUndo(rec);
  };
}

optimizer::OptimizerContext Connection::MakeOptimizerContext() {
  optimizer::OptimizerContext ctx;
  ctx.catalog = &db_->catalog();
  ctx.stats = &db_->stats();
  ctx.pool = &db_->pool();
  ctx.index_stats = db_->IndexStatsProvider();
  ctx.index_prober = db_->IndexProber();
  ctx.predicted_soft_limit_pages =
      static_cast<double>(db_->memory_governor().PredictedSoftLimitPages());
  ctx.governor = db_->options().optimizer_governor;
  ctx.arena_budget_bytes = db_->options().optimizer_arena_bytes;
  ctx.parallel_max_workers = db_->options().parallel.max_workers;
  ctx.parallel_rows_per_worker = db_->options().parallel.rows_per_worker;
  ctx.parallel_min_table_rows = db_->options().parallel.min_table_rows;
  return ctx;
}

txn::Transaction* Connection::CurrentTxn(bool* auto_started) {
  if (txn_ != nullptr) {
    *auto_started = false;
    return txn_;
  }
  *auto_started = true;
  return db_->txn_manager().Begin();
}

Status Connection::FinishAuto(txn::Transaction* txn, bool auto_started,
                              bool ok) {
  if (!auto_started) return Status::OK();
  if (ok) {
    // Covers commit bookkeeping + the WAL WaitDurable underneath.
    obs::ScopedSpan commit_span(obs::kSpanCommit);
    return db_->txn_manager().Commit(txn);
  }
  return db_->txn_manager().Abort(txn, MakeUndoApplier(txn));
}

Status Connection::MaintainOnInsert(catalog::TableDef* table, Rid rid,
                                    const table::Row& row) {
  for (catalog::IndexDef* idx : db_->catalog().TableIndexes(table->oid)) {
    index::BTree* tree = db_->btree(idx->oid);
    if (tree == nullptr) continue;
    HDB_RETURN_IF_ERROR(
        tree->Insert(OrderPreservingHash(row[idx->column_indexes[0]]), rid));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    db_->stats().OnInsertValue(table->oid, static_cast<int>(c), row[c]);
  }
  return Status::OK();
}

Status Connection::MaintainOnDelete(catalog::TableDef* table, Rid rid,
                                    const table::Row& row) {
  for (catalog::IndexDef* idx : db_->catalog().TableIndexes(table->oid)) {
    index::BTree* tree = db_->btree(idx->oid);
    if (tree == nullptr) continue;
    // Index unhook is best-effort: a missing entry means nothing to remove.
    IgnoreError(
        tree->Remove(OrderPreservingHash(row[idx->column_indexes[0]]), rid));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    db_->stats().OnDeleteValue(table->oid, static_cast<int>(c), row[c]);
  }
  return Status::OK();
}

Status Connection::ApplyUndo(const txn::UndoRecord& rec) {
  HDB_ASSIGN_OR_RETURN(catalog::TableDef * table,
                       db_->catalog().GetTableByOid(rec.table_oid));
  table::TableHeap* h = db_->heap(rec.table_oid);
  // One scratch row serves every decode in this record: each image is
  // consumed (index maintenance) before the next decode overwrites it.
  table::Row& row = undo_scratch_row_;
  switch (rec.op) {
    case txn::UndoOp::kInsert: {
      HDB_RETURN_IF_ERROR(table::DecodeRowInto(
          *table, rec.before_image.data(), rec.before_image.size(), &row));
      HDB_RETURN_IF_ERROR(MaintainOnDelete(table, rec.rid, row));
      return h->Delete(rec.rid);
    }
    case txn::UndoOp::kDelete: {
      HDB_ASSIGN_OR_RETURN(
          const Rid rid,
          h->Insert(std::string_view(rec.before_image.data(),
                                     rec.before_image.size())));
      HDB_RETURN_IF_ERROR(table::DecodeRowInto(
          *table, rec.before_image.data(), rec.before_image.size(), &row));
      return MaintainOnInsert(table, rid, row);
    }
    case txn::UndoOp::kUpdate: {
      HDB_ASSIGN_OR_RETURN(const std::string cur_bytes, h->Get(rec.rid));
      HDB_RETURN_IF_ERROR(table::DecodeRowInto(*table, cur_bytes.data(),
                                               cur_bytes.size(), &row));
      HDB_RETURN_IF_ERROR(MaintainOnDelete(table, rec.rid, row));
      HDB_ASSIGN_OR_RETURN(
          const Rid new_rid,
          h->Update(rec.rid, std::string_view(rec.before_image.data(),
                                              rec.before_image.size())));
      HDB_RETURN_IF_ERROR(table::DecodeRowInto(
          *table, rec.before_image.data(), rec.before_image.size(), &row));
      return MaintainOnInsert(table, new_rid, row);
    }
  }
  return Status::Internal("unknown undo op");
}

Result<std::vector<std::pair<Rid, table::Row>>> Connection::CollectDmlVictims(
    const optimizer::Query& scan, optimizer::OptimizeDiagnostics* diag) {
  optimizer::Optimizer opt(MakeOptimizerContext());
  HDB_ASSIGN_OR_RETURN(optimizer::PlanPtr plan,
                       opt.Optimize(scan, /*allow_bypass=*/true, diag));
  // Find the scan node under the (Project) root.
  const optimizer::PlanNode* node = plan.get();
  while (node->kind != optimizer::PlanKind::kSeqScan &&
         node->kind != optimizer::PlanKind::kIndexScan) {
    if (node->children.empty()) {
      return Status::Internal("DML plan has no scan");
    }
    node = node->children[0].get();
  }
  const catalog::TableDef* table = scan.quantifiers[0].table;
  table::TableHeap* h = db_->heap(table->oid);

  std::vector<std::pair<Rid, table::Row>> victims;
  optimizer::RowContext ctx;
  ctx.rows.assign(1, nullptr);

  // Decode into one scratch row; only rows surviving the residual are
  // copied into `victims`, so filtered-out rows allocate nothing.
  table::Row row;
  auto consider = [&](Rid rid, std::string_view bytes) -> Result<bool> {
    HDB_RETURN_IF_ERROR(
        table::DecodeRowInto(*table, bytes.data(), bytes.size(), &row));
    ctx.rows[0] = &row;
    if (node->residual != nullptr) {
      HDB_ASSIGN_OR_RETURN(const bool ok,
                           node->residual->EvaluatesToTrue(ctx));
      if (!ok) return false;
    }
    victims.emplace_back(rid, row);
    return true;
  };

  if (node->kind == optimizer::PlanKind::kIndexScan) {
    index::BTree* tree = db_->btree(node->index->oid);
    if (tree == nullptr) return Status::Internal("missing index");
    std::vector<Rid> rids;
    const double lo = node->index_lo.value_or(
        -std::numeric_limits<double>::infinity());
    const double hi =
        node->index_hi.value_or(std::numeric_limits<double>::infinity());
    HDB_RETURN_IF_ERROR(tree->ScanRange(lo, node->index_lo_inclusive, hi,
                                        node->index_hi_inclusive,
                                        [&rids](double, Rid rid) {
                                          rids.push_back(rid);
                                          return true;
                                        }));
    for (const Rid rid : rids) {
      HDB_ASSIGN_OR_RETURN(const std::string bytes, h->Get(rid));
      HDB_RETURN_IF_ERROR(consider(rid, bytes).status());
    }
  } else {
    Status inner = Status::OK();
    HDB_RETURN_IF_ERROR(h->ScanAll([&](Rid rid, std::string_view bytes) {
      auto r = consider(rid, bytes);
      if (!r.ok()) {
        inner = r.status();
        return false;
      }
      return true;
    }));
    HDB_RETURN_IF_ERROR(inner);
  }
  return victims;
}

Result<QueryResult> Connection::ExecuteSelect(
    const SelectAst& ast, const optimizer::ParamBindings& params,
    const std::string& cache_key, QueryResult* out) {
  // The one place a placeholder may stay symbolic: a procedure SELECT that
  // owns a plan-cache key keeps its :names in the plan, so one cached plan
  // serves every invocation (paper §4.1), and binds them per execution
  // through RowContext::params. Everything else folds the values in as
  // literals and is optimized with the real constants (§3).
  const bool symbolic = !cache_key.empty();
  Binder binder(&db_->catalog(), symbolic ? nullptr : &params);
  HDB_ASSIGN_OR_RETURN(optimizer::Query q, binder.BindSelect(ast));

  auto task = db_->memory_governor().BeginTask();

  std::shared_ptr<const optimizer::PlanNode> plan_to_run;
  if (cache_key.empty()) {
    // Re-optimize at every invocation (paper §4.1).
    const uint64_t opt_start = obs::TraceNowMicros();
    obs::ScopedSpan optimize_span(obs::kSpanOptimize);
    optimizer::Optimizer opt(MakeOptimizerContext());
    HDB_ASSIGN_OR_RETURN(optimizer::PlanPtr plan,
                         opt.Optimize(q, /*allow_bypass=*/false, &out->diag));
    db_->optimize_hist_->Record(obs::TraceNowMicros() - opt_start);
    plan_to_run = std::shared_ptr<const optimizer::PlanNode>(std::move(plan));
  } else {
    const auto decision = plan_cache_.OnInvocation(cache_key);
    if (decision.action == optimizer::PlanCache::Action::kUseCached) {
      plan_to_run = decision.plan;
      out->used_cached_plan = true;
    } else {
      const uint64_t opt_start = obs::TraceNowMicros();
      obs::ScopedSpan optimize_span(obs::kSpanOptimize);
      optimizer::Optimizer opt(MakeOptimizerContext());
      HDB_ASSIGN_OR_RETURN(
          optimizer::PlanPtr plan,
          opt.Optimize(q, /*allow_bypass=*/false, &out->diag));
      db_->optimize_hist_->Record(obs::TraceNowMicros() - opt_start);
      plan_to_run = plan_cache_.OnPlanReady(
          cache_key,
          std::shared_ptr<const optimizer::PlanNode>(std::move(plan)));
    }
  }

  // Feedback from a sys.* scan would pollute column statistics with
  // telemetry rows that have no backing histograms.
  bool any_virtual = false;
  for (const optimizer::Quantifier& quant : q.quantifiers) {
    if (quant.table != nullptr && quant.table->is_virtual) any_virtual = true;
  }

  stats::FeedbackCollector feedback;
  exec::ExecContext ec;
  ec.pool = &db_->pool();
  ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
  ec.index = [this](uint32_t oid) { return db_->btree(oid); };
  ec.virtual_rows = [this](uint32_t oid) {
    return db_->VirtualTableRows(oid);
  };
  ec.feedback =
      db_->options().auto_feedback && !any_virtual ? &feedback : nullptr;
  ec.memory = task.get();
  ec.num_quantifiers = q.quantifiers.size();
  ec.params = symbolic ? &params : nullptr;
  ec.batch_cap = db_->options().exec_batch_cap;
  if (db_->options().parallel.max_workers > 1) {
    ec.parallel = &db_->parallel_governor();
  }

  HDB_ASSIGN_OR_RETURN(out->rows,
                       exec::ExecuteToRows(plan_to_run.get(), &ec));
  // Victim picks live in the task context (the scheduler made them, not
  // an operator); fold them into the statement's stats before copying.
  if (ec.memory != nullptr) {
    ec.stats.spill_decisions = ec.memory->spill_decisions();
  }
  out->exec_stats = ec.stats;
  if (obs::StatementTrace* trace = obs::CurrentStatementTrace();
      trace != nullptr) {
    trace->SetQuotaPages(db_->memory_governor().SoftLimitPages());
    // Materializing the plan text costs an allocation per statement, so
    // only statements already past the slow threshold pay for it.
    const uint64_t elapsed = obs::TraceNowMicros() - trace->start_micros();
    if (db_->statement_registry().LikelySlow(elapsed)) {
      trace->SetPlan(plan_to_run->Explain(0, nullptr));
    }
  }
  for (const auto& item : q.select) out->columns.push_back(item.name);
  if (ec.feedback != nullptr) feedback.Flush(&db_->stats());
  db_->exec_rows_scanned_->Add(ec.stats.rows_scanned);
  db_->exec_rows_decoded_->Add(ec.stats.rows_decoded);
  db_->exec_rows_output_->Add(ec.stats.rows_output);
  db_->exec_spilled_tuples_->Add(ec.stats.hash_spilled_tuples);
  db_->exec_partitions_evicted_->Add(ec.stats.hash_partitions_evicted);
  db_->exec_sort_runs_spilled_->Add(ec.stats.sort_runs_spilled);
  db_->exec_group_by_spilled_groups_->Add(ec.stats.group_by_spilled_groups);
  db_->exec_spill_bytes_written_->Add(ec.stats.spill_bytes_written);
  db_->exec_spill_bytes_read_->Add(ec.stats.spill_bytes_read);
  db_->exec_spill_repartitions_->Add(ec.stats.spill_repartitions);
  db_->exec_spill_decisions_->Add(ec.stats.spill_decisions);
  db_->exec_batches_->Add(ec.stats.batches);
  db_->exec_batch_rows_->Add(ec.stats.batch_rows);
  db_->exec_batch_arena_bytes_->Add(ec.stats.batch_arena_peak_bytes);
  db_->exec_batch_cap_shrinks_->Add(ec.stats.batch_cap_shrinks);
  db_->exec_parallel_pipelines_->Add(ec.stats.parallel_pipelines);
  db_->exec_parallel_workers_started_->Add(ec.stats.parallel_workers_started);
  db_->exec_parallel_workers_revoked_->Add(ec.stats.parallel_workers_revoked);
  db_->exec_parallel_morsels_->Add(ec.stats.parallel_morsels);
  // Move, don't copy: the caller re-assigns the returned value into *out,
  // so the result set (possibly large) takes two moves instead of a deep
  // copy per row.
  return std::move(*out);
}

Result<QueryResult> Connection::ExecuteExplainAnalyze(
    const SelectAst& ast, const optimizer::ParamBindings& params,
    QueryResult* out) {
  Binder binder(&db_->catalog(), &params);
  HDB_ASSIGN_OR_RETURN(optimizer::Query q, binder.BindSelect(ast));

  auto task = db_->memory_governor().BeginTask();
  optimizer::Optimizer opt(MakeOptimizerContext());
  HDB_ASSIGN_OR_RETURN(optimizer::PlanPtr plan,
                       opt.Optimize(q, /*allow_bypass=*/false, &out->diag));

  bool any_virtual = false;
  for (const optimizer::Quantifier& quant : q.quantifiers) {
    if (quant.table != nullptr && quant.table->is_virtual) any_virtual = true;
  }

  stats::FeedbackCollector feedback;
  optimizer::OpActualsMap actuals;
  exec::ExecContext ec;
  ec.pool = &db_->pool();
  ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
  ec.index = [this](uint32_t oid) { return db_->btree(oid); };
  ec.virtual_rows = [this](uint32_t oid) {
    return db_->VirtualTableRows(oid);
  };
  ec.feedback =
      db_->options().auto_feedback && !any_virtual ? &feedback : nullptr;
  ec.memory = task.get();
  ec.num_quantifiers = q.quantifiers.size();
  ec.actuals = &actuals;
  ec.batch_cap = db_->options().exec_batch_cap;
  if (db_->options().parallel.max_workers > 1) {
    ec.parallel = &db_->parallel_governor();
  }

  // The statement runs in full; the result set is discarded and the
  // annotated plan is the output (estimates vs. actuals, §4's cost-model
  // validation loop made visible).
  HDB_ASSIGN_OR_RETURN(const auto rows, exec::ExecuteToRows(plan.get(), &ec));
  out->rows_affected = rows.size();
  if (ec.memory != nullptr) {
    ec.stats.spill_decisions = ec.memory->spill_decisions();
  }
  out->exec_stats = ec.stats;
  out->explain = plan->Explain(0, &actuals);
  if (ec.feedback != nullptr) feedback.Flush(&db_->stats());
  return std::move(*out);
}

Result<QueryResult> Connection::ExecuteInsert(
    const InsertAst& ast, const optimizer::ParamBindings& params) {
  Binder binder(&db_->catalog(), &params);
  HDB_ASSIGN_OR_RETURN(BoundInsert bound, binder.BindInsert(ast));
  table::TableHeap* h = db_->heap(bound.table->oid);

  bool auto_started = false;
  txn::Transaction* txn = CurrentTxn(&auto_started);
  // Heap mutations below log WAL records under this statement's txn id.
  const wal::WalManager::TxnScope wal_scope(txn->id());
  QueryResult out;
  for (const table::Row& row : bound.rows) {
    auto status = [&]() -> Status {
      HDB_ASSIGN_OR_RETURN(const std::string bytes,
                           table::EncodeRow(*bound.table, row));
      HDB_ASSIGN_OR_RETURN(const Rid rid, h->Insert(bytes));
      const uint64_t key = txn::LockManager::RowKey(bound.table->oid, rid);
      HDB_RETURN_IF_ERROR(db_->lock_manager().LockRow(
          txn->id(), bound.table->oid, rid, txn::LockMode::kExclusive));
      txn->RecordLock(key);
      txn::UndoRecord undo;
      undo.op = txn::UndoOp::kInsert;
      undo.table_oid = bound.table->oid;
      undo.rid = rid;
      undo.before_image.assign(bytes.begin(), bytes.end());
      txn->RecordUndo(std::move(undo));
      HDB_RETURN_IF_ERROR(MaintainOnInsert(bound.table, rid, row));
      HDB_RETURN_IF_ERROR(
          db_->txn_manager().AppendRedo(txn->id(), "I " + bytes));
      return Status::OK();
    }();
    if (!status.ok()) {
      // The statement's own error wins; an abort-side failure is
      // finished by recovery from the log.
      IgnoreError(FinishAuto(txn, auto_started, /*ok=*/false));
      return status;
    }
    out.rows_affected++;
  }
  HDB_RETURN_IF_ERROR(FinishAuto(txn, auto_started, /*ok=*/true));
  return out;
}

Result<QueryResult> Connection::ExecuteUpdate(
    const UpdateAst& ast, const optimizer::ParamBindings& params) {
  Binder binder(&db_->catalog(), &params);
  HDB_ASSIGN_OR_RETURN(BoundUpdate bound, binder.BindUpdate(ast));
  QueryResult out;
  HDB_ASSIGN_OR_RETURN(auto victims, CollectDmlVictims(bound.scan, &out.diag));
  table::TableHeap* h = db_->heap(bound.table->oid);

  bool auto_started = false;
  txn::Transaction* txn = CurrentTxn(&auto_started);
  const wal::WalManager::TxnScope wal_scope(txn->id());
  for (const auto& [rid, old_row] : victims) {
    auto status = [&, rid = rid, &old_row = old_row]() -> Status {
      HDB_RETURN_IF_ERROR(db_->lock_manager().LockRow(
          txn->id(), bound.table->oid, rid, txn::LockMode::kExclusive));
      txn->RecordLock(txn::LockManager::RowKey(bound.table->oid, rid));

      table::Row new_row = old_row;
      optimizer::RowContext ctx;
      ctx.rows.assign(1, &old_row);
      for (const auto& [col, expr] : bound.sets) {
        HDB_ASSIGN_OR_RETURN(const Value v, expr->Evaluate(ctx));
        HDB_ASSIGN_OR_RETURN(
            new_row[col],
            CoerceValue(v, bound.table->columns[col].type));
      }
      HDB_ASSIGN_OR_RETURN(const std::string old_bytes,
                           table::EncodeRow(*bound.table, old_row));
      HDB_ASSIGN_OR_RETURN(const std::string new_bytes,
                           table::EncodeRow(*bound.table, new_row));

      txn::UndoRecord undo;
      undo.op = txn::UndoOp::kUpdate;
      undo.table_oid = bound.table->oid;
      undo.rid = rid;
      undo.before_image.assign(old_bytes.begin(), old_bytes.end());

      HDB_ASSIGN_OR_RETURN(const Rid new_rid, h->Update(rid, new_bytes));
      undo.rid = new_rid;  // undo targets wherever the row lives now
      txn->RecordUndo(std::move(undo));

      // Index maintenance: re-key where the key or location changed.
      for (catalog::IndexDef* idx :
           db_->catalog().TableIndexes(bound.table->oid)) {
        index::BTree* tree = db_->btree(idx->oid);
        if (tree == nullptr) continue;
        const double old_key =
            OrderPreservingHash(old_row[idx->column_indexes[0]]);
        const double new_key =
            OrderPreservingHash(new_row[idx->column_indexes[0]]);
        if (old_key != new_key || !(rid == new_rid)) {
          // Best-effort unhook, as in MaintainOnDelete.
          IgnoreError(tree->Remove(old_key, rid));
          HDB_RETURN_IF_ERROR(tree->Insert(new_key, new_rid));
        }
      }
      // Histogram maintenance for changed columns (paper §3.2: UPDATE
      // statements update the histograms for the modified columns).
      for (size_t c = 0; c < new_row.size(); ++c) {
        if (old_row[c].Compare(new_row[c]) != 0) {
          db_->stats().OnDeleteValue(bound.table->oid, static_cast<int>(c),
                                     old_row[c]);
          db_->stats().OnInsertValue(bound.table->oid, static_cast<int>(c),
                                     new_row[c]);
        }
      }
      return db_->txn_manager().AppendRedo(txn->id(), "U " + new_bytes);
    }();
    if (!status.ok()) {
      // The statement's own error wins; an abort-side failure is
      // finished by recovery from the log.
      IgnoreError(FinishAuto(txn, auto_started, /*ok=*/false));
      return status;
    }
    out.rows_affected++;
  }
  HDB_RETURN_IF_ERROR(FinishAuto(txn, auto_started, /*ok=*/true));
  return out;
}

Result<QueryResult> Connection::ExecuteDelete(
    const DeleteAst& ast, const optimizer::ParamBindings& params) {
  Binder binder(&db_->catalog(), &params);
  HDB_ASSIGN_OR_RETURN(BoundDelete bound, binder.BindDelete(ast));
  QueryResult out;
  HDB_ASSIGN_OR_RETURN(auto victims, CollectDmlVictims(bound.scan, &out.diag));
  table::TableHeap* h = db_->heap(bound.table->oid);

  bool auto_started = false;
  txn::Transaction* txn = CurrentTxn(&auto_started);
  const wal::WalManager::TxnScope wal_scope(txn->id());
  for (const auto& [rid, row] : victims) {
    auto status = [&, rid = rid, &row = row]() -> Status {
      HDB_RETURN_IF_ERROR(db_->lock_manager().LockRow(
          txn->id(), bound.table->oid, rid, txn::LockMode::kExclusive));
      txn->RecordLock(txn::LockManager::RowKey(bound.table->oid, rid));
      HDB_ASSIGN_OR_RETURN(const std::string bytes,
                           table::EncodeRow(*bound.table, row));
      txn::UndoRecord undo;
      undo.op = txn::UndoOp::kDelete;
      undo.table_oid = bound.table->oid;
      undo.rid = rid;
      undo.before_image.assign(bytes.begin(), bytes.end());
      txn->RecordUndo(std::move(undo));
      HDB_RETURN_IF_ERROR(MaintainOnDelete(bound.table, rid, row));
      HDB_RETURN_IF_ERROR(h->Delete(rid));
      return db_->txn_manager().AppendRedo(txn->id(), "D " + bytes);
    }();
    if (!status.ok()) {
      // The statement's own error wins; an abort-side failure is
      // finished by recovery from the log.
      IgnoreError(FinishAuto(txn, auto_started, /*ok=*/false));
      return status;
    }
    out.rows_affected++;
  }
  HDB_RETURN_IF_ERROR(FinishAuto(txn, auto_started, /*ok=*/true));
  return out;
}

Result<QueryResult> Connection::ExecuteCall(
    const CallAst& ast, const optimizer::ParamBindings& call_params) {
  HDB_ASSIGN_OR_RETURN(const catalog::ProcedureDef* proc,
                       db_->catalog().GetProcedure(ast.name));
  if (ast.args.size() != proc->param_names.size()) {
    return Status::InvalidArgument("procedure argument count mismatch");
  }
  // The body's :names take the CALL's values, literal or bound.
  optimizer::ParamBindings params;
  for (size_t i = 0; i < ast.args.size(); ++i) {
    const AstExpr& arg = *ast.args[i];
    Value v = arg.literal;
    if (arg.kind == AstExpr::kParam) {
      HDB_ASSIGN_OR_RETURN(v, ParamValue(arg, &call_params));
    }
    params.emplace_back(proc->param_names[i], std::move(v));
  }

  const uint64_t start = obs::TraceNowMicros();
  QueryResult out;
  for (size_t s = 0; s < proc->statements.size(); ++s) {
    HDB_ASSIGN_OR_RETURN(StatementAst stmt, Parse(proc->statements[s]));
    if (const auto* sel = std::get_if<SelectAst>(&stmt)) {
      // Cache-eligible class: statements inside procedures (paper §4.1).
      const std::string key =
          "proc:" + proc->name + ":" + std::to_string(s);
      QueryResult r;
      HDB_ASSIGN_OR_RETURN(out, ExecuteSelect(*sel, params, key, &r));
    } else if (const auto* ins = std::get_if<InsertAst>(&stmt)) {
      HDB_ASSIGN_OR_RETURN(out, ExecuteInsert(*ins, params));
    } else if (const auto* up = std::get_if<UpdateAst>(&stmt)) {
      HDB_ASSIGN_OR_RETURN(out, ExecuteUpdate(*up, params));
    } else if (const auto* del = std::get_if<DeleteAst>(&stmt)) {
      HDB_ASSIGN_OR_RETURN(out, ExecuteDelete(*del, params));
    } else {
      return Status::InvalidArgument(
          "procedure " + proc->name +
          ": a body runs only SELECT, INSERT, UPDATE and DELETE");
    }
  }
  // Procedure invocation statistics: moving average + per-parameter
  // variants (paper §3.2).
  db_->proc_stats().Record(proc->name, HashParams(params),
                           static_cast<double>(obs::TraceNowMicros() - start),
                           static_cast<double>(out.rows.size()));
  return out;
}

Result<QueryResult> Connection::Execute(const std::string& sql,
                                        const std::vector<Value>& params) {
  // Statement lifecycle trace (DESIGN.md §11): a registry entry unless a
  // net worker already made one current. The handle outlives the scope,
  // so End runs the completion subscriber with no trace current.
  obs::StatementRegistry::Handle stmt_trace;
  if (obs::CurrentStatementTrace() == nullptr) {
    stmt_trace = db_->statement_registry().Begin(
        conn_id_, NormalizeStatement(sql), sql);
  }
  obs::ScopedCurrentTrace trace_scope(stmt_trace.trace());

  const uint64_t parse_start = obs::TraceNowMicros();
  Result<StatementAst> parsed = [&] {
    obs::ScopedSpan parse_span(obs::kSpanParse);
    return Parse(sql);
  }();
  db_->parse_hist_->Record(obs::TraceNowMicros() - parse_start);
  if (!parsed.ok()) {
    db_->stmt_errors_->Add();
    stmt_trace.set_ok(false);
    return parsed.status();
  }
  StatementAst stmt = std::move(*parsed);
  optimizer::ParamBindings bindings;
  bindings.reserve(params.size());
  for (const Value& v : params) bindings.emplace_back(std::string(), v);

  // DDL runs exclusive against every other statement; queries, DML and
  // transaction control run shared. CALIBRATE rewrites the catalog's cost
  // model, so it counts as DDL.
  const bool is_ddl =
      std::holds_alternative<CreateTableAst>(stmt) ||
      std::holds_alternative<CreateIndexAst>(stmt) ||
      std::holds_alternative<CreateStatisticsAst>(stmt) ||
      std::holds_alternative<CreateProcedureAst>(stmt) ||
      std::holds_alternative<DropAst>(stmt) ||
      std::holds_alternative<SetOptionAst>(stmt) ||
      (std::holds_alternative<SimpleAst>(stmt) &&
       std::get<SimpleAst>(stmt).kind == SimpleAst::kCalibrate);

  // Statement-kind counters (sys.counters / TelemetrySnapshotJson).
  if (std::holds_alternative<SelectAst>(stmt)) {
    db_->stmt_select_->Add();
  } else if (std::holds_alternative<InsertAst>(stmt)) {
    db_->stmt_insert_->Add();
  } else if (std::holds_alternative<UpdateAst>(stmt)) {
    db_->stmt_update_->Add();
  } else if (std::holds_alternative<DeleteAst>(stmt)) {
    db_->stmt_delete_->Add();
  } else if (std::holds_alternative<CallAst>(stmt)) {
    db_->stmt_call_->Add();
  } else if (std::holds_alternative<ExplainAst>(stmt)) {
    db_->stmt_explain_->Add();
  } else if (is_ddl) {
    db_->stmt_ddl_->Add();
  } else if (std::holds_alternative<SimpleAst>(stmt)) {
    db_->stmt_txn_->Add();
  } else {
    db_->stmt_other_->Add();
  }

  // EXPLAIN ANALYZE runs the statement for real, so it is gated and
  // counted like the SELECT it wraps.
  const bool analyze = std::holds_alternative<ExplainAst>(stmt) &&
                       std::get<ExplainAst>(stmt).analyze;

  // Workload statements pass the admission gate: at most MPL of them run
  // at once, which is what makes the memory governor's per-request soft
  // limit (Eq. (5) = pool / MPL) a real bound.
  const bool gated = std::holds_alternative<SelectAst>(stmt) ||
                     std::holds_alternative<InsertAst>(stmt) ||
                     std::holds_alternative<UpdateAst>(stmt) ||
                     std::holds_alternative<DeleteAst>(stmt) ||
                     std::holds_alternative<CallAst>(stmt) || analyze;

  exec::AdmissionGate::Ticket ticket;
  if (gated) {
    auto admitted = [&] {
      obs::ScopedSpan admission_span(obs::kSpanAdmission);
      return db_->admission_gate().Admit();
    }();
    if (!admitted.ok()) {
      db_->stmt_errors_->Add();
      stmt_trace.set_ok(false);
      return admitted.status();
    }
    ticket = std::move(*admitted);
  }

  const uint64_t exec_start = obs::TraceNowMicros();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    obs::ScopedSpan execute_span(obs::kSpanExecute);
    if (is_ddl) {
      UniqueLock ddl(db_->ddl_mu_);
      return ExecuteParsed(stmt, bindings);
    }
    SharedLock ddl(db_->ddl_mu_);
    return ExecuteParsed(stmt, bindings);
  }();
  db_->execute_hist_->Record(obs::TraceNowMicros() - exec_start);
  if (!result.ok()) db_->stmt_errors_->Add();
  stmt_trace.set_ok(result.ok());

  if (gated) {
    // Release the slot before reporting completion so a queued request
    // can start inside the interval its predecessor just finished in.
    ticket.Release();
    db_->mpl_controller().OnRequestComplete();
    if (db_->mpl_controller().MaybeAdapt()) db_->admission_gate().Poke();
  }
  return result;
}

Result<QueryResult> Connection::ExecuteParsed(
    StatementAst& stmt, const optimizer::ParamBindings& params) {
  QueryResult out;

  if (std::holds_alternative<SelectAst>(stmt)) {
    // Ad hoc statements pass no cache key: re-optimized every time (§4.1).
    HDB_ASSIGN_OR_RETURN(
        out, ExecuteSelect(std::get<SelectAst>(stmt), params, "", &out));
  } else if (std::holds_alternative<ExplainAst>(stmt)) {
    const auto& ex = std::get<ExplainAst>(stmt);
    if (ex.analyze) {
      HDB_ASSIGN_OR_RETURN(out,
                           ExecuteExplainAnalyze(*ex.select, params, &out));
    } else {
      Binder binder(&db_->catalog(), &params);
      HDB_ASSIGN_OR_RETURN(optimizer::Query q, binder.BindSelect(*ex.select));
      optimizer::Optimizer opt(MakeOptimizerContext());
      HDB_ASSIGN_OR_RETURN(optimizer::PlanPtr plan,
                           opt.Optimize(q, false, &out.diag));
      out.explain = plan->Explain();
    }
  } else if (std::holds_alternative<InsertAst>(stmt)) {
    HDB_ASSIGN_OR_RETURN(out,
                         ExecuteInsert(std::get<InsertAst>(stmt), params));
  } else if (std::holds_alternative<UpdateAst>(stmt)) {
    HDB_ASSIGN_OR_RETURN(out,
                         ExecuteUpdate(std::get<UpdateAst>(stmt), params));
  } else if (std::holds_alternative<DeleteAst>(stmt)) {
    HDB_ASSIGN_OR_RETURN(out,
                         ExecuteDelete(std::get<DeleteAst>(stmt), params));
  } else if (std::holds_alternative<CreateTableAst>(stmt)) {
    HDB_RETURN_IF_ERROR(db_->CreateTableImpl(std::get<CreateTableAst>(stmt)));
  } else if (std::holds_alternative<CreateIndexAst>(stmt)) {
    HDB_RETURN_IF_ERROR(db_->CreateIndexImpl(std::get<CreateIndexAst>(stmt)));
  } else if (std::holds_alternative<CreateStatisticsAst>(stmt)) {
    const auto& cs = std::get<CreateStatisticsAst>(stmt);
    HDB_ASSIGN_OR_RETURN(catalog::TableDef * def,
                         db_->catalog().GetTable(cs.table));
    if (cs.columns.empty()) {
      for (size_t c = 0; c < def->columns.size(); ++c) {
        HDB_RETURN_IF_ERROR(
            db_->BuildStatisticsLocked(cs.table, static_cast<int>(c)));
      }
    } else {
      for (const std::string& col : cs.columns) {
        const int c = def->ColumnIndex(col);
        if (c < 0) return Status::NotFound("column " + col);
        HDB_RETURN_IF_ERROR(db_->BuildStatisticsLocked(cs.table, c));
      }
    }
  } else if (std::holds_alternative<CreateProcedureAst>(stmt)) {
    const auto& cp = std::get<CreateProcedureAst>(stmt);
    catalog::ProcedureDef def;
    def.name = cp.name;
    def.param_names = cp.params;
    def.statements = cp.body_statements;
    HDB_RETURN_IF_ERROR(db_->LogDdl(wal::WalRecordType::kDdlCreateProcedure,
                                    wal::EncodeDdlCreateProcedure(def)));
    HDB_RETURN_IF_ERROR(db_->catalog().CreateProcedure(std::move(def)));
  } else if (std::holds_alternative<CallAst>(stmt)) {
    HDB_ASSIGN_OR_RETURN(out, ExecuteCall(std::get<CallAst>(stmt), params));
  } else if (std::holds_alternative<DropAst>(stmt)) {
    const auto& d = std::get<DropAst>(stmt);
    if (d.kind == DropAst::kTable) {
      HDB_RETURN_IF_ERROR(db_->DropTableImpl(d.name));
    } else {
      HDB_RETURN_IF_ERROR(db_->DropIndexImpl(d.name));
    }
  } else if (std::holds_alternative<SetOptionAst>(stmt)) {
    const auto& so = std::get<SetOptionAst>(stmt);
    db_->catalog().SetOption(so.name, so.value);
    HDB_RETURN_IF_ERROR(db_->LogDdl(wal::WalRecordType::kDdlSetOption,
                                    wal::EncodeDdlSetOption(so.name, so.value)));
  } else if (std::holds_alternative<SimpleAst>(stmt)) {
    switch (std::get<SimpleAst>(stmt).kind) {
      case SimpleAst::kBegin:
        if (txn_ != nullptr) {
          return Status::InvalidArgument("transaction already active");
        }
        txn_ = db_->txn_manager().Begin();
        break;
      case SimpleAst::kCommit:
        if (txn_ != nullptr) {
          obs::ScopedSpan commit_span(obs::kSpanCommit);
          HDB_RETURN_IF_ERROR(db_->txn_manager().Commit(txn_));
          txn_ = nullptr;
        }
        break;
      case SimpleAst::kRollback:
        if (txn_ != nullptr) {
          HDB_RETURN_IF_ERROR(
              db_->txn_manager().Abort(txn_, MakeUndoApplier(txn_)));
          txn_ = nullptr;
        }
        break;
      case SimpleAst::kCalibrate:
        HDB_RETURN_IF_ERROR(db_->CalibrateLocked({}));
        break;
    }
  }

  // StatementRegistry::End hands these to sys.statements and the tracer.
  if (obs::StatementTrace* trace = obs::CurrentStatementTrace();
      trace != nullptr) {
    trace->SetRows(out.exec_stats.rows_scanned, out.rows.size());
    trace->SetOutcome({HashParams(params),
                       std::holds_alternative<CallAst>(stmt),
                       out.diag.bypassed});
  }
  return out;
}

Result<std::string> Connection::Explain(const std::string& select_sql) {
  HDB_ASSIGN_OR_RETURN(QueryResult r, Execute("EXPLAIN " + select_sql));
  return r.explain;
}

}  // namespace hdb::engine
