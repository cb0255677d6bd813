#ifndef HDB_OBS_TRACE_H_
#define HDB_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_rank.h"
#include "obs/span_names.h"

namespace hdb::obs {

class Counter;
class LatencyHistogram;
class MetricsRegistry;

/// Statement lifecycle tracing (DESIGN.md §11).
///
/// Every top-level statement owns a StatementTrace: a span tree
/// (admission wait → parse → optimize → execute with per-blocking-operator
/// children → commit) plus a per-cause wait breakdown. Subsystems reach
/// the trace of the statement running on the current thread through a
/// thread-local pointer (CurrentStatementTrace), so a lock conflict deep
/// inside txn/ or a group-commit wait inside wal/ attributes itself to the
/// right statement without plumbing a context argument through every
/// layer. Exchange worker threads (DESIGN.md §13) install the owning
/// statement's trace with ScopedCurrentTrace for the duration of their
/// fragment, so waits incurred inside morsels (pool misses, lock
/// conflicts, WAL) land in the same per-statement tallies; each worker
/// brackets itself with a detached span (OpenDetachedSpan) rather than a
/// stack span, because sibling workers overlap in time.
///
/// Thread-safety: the owning connection thread mutates the span stack;
/// the cumulative wait/byte tallies are relaxed atomics (safe to bump
/// from any thread while holding any subsystem latch), and the span tree
/// + wait-event ring are guarded by a kStatementTrace mutex — the highest
/// rank in the hierarchy, so recording under e.g. the lock-manager or
/// task-memory latch is always hierarchy-legal, from workers too. Readers
/// (sys.active_statements, TraceExportJson) snapshot under the same
/// mutex.
///
/// Under -DHDB_TELEMETRY=OFF every mutation below compiles to a no-op,
/// matching the Counter/Gauge contract in obs/metrics.h.

/// Why a statement was off-CPU (or burning time it didn't choose to).
/// Keep in sync with the wait.* constants in span_names.h and
/// WaitCauseName(); scripts/check_metrics.sh cross-checks the count.
enum class WaitCause : uint8_t {
  kAdmission = 0,   // queued on the admission gate's MPL
  kLock = 1,        // lock-manager conflict (no-wait: the failed acquire)
  kWalDurable = 2,  // WaitDurable/EnsureDurable on the WAL
  kSpillWrite = 3,  // writing spill pages (memory-governor eviction)
  kSpillRead = 4,   // reading spilled tuples back
  kPoolMiss = 5,    // buffer-pool miss -> disk read
  kNetWrite = 6,    // net/ result-flush backpressure: the connection's
                    // write buffer is over its high-water mark and the
                    // worker stalls until the event loop drains it
};
inline constexpr int kWaitCauseCount = 7;

/// The wait.* name for a cause (bijection onto span_names.h).
const char* WaitCauseName(WaitCause cause);

/// Steady-clock microseconds; the one time base for every span/wait
/// timestamp and every engine latency sample.
uint64_t TraceNowMicros();

/// One node of a statement's span tree. `name` points at a span_names.h
/// constant (static storage duration) — never a transient string.
struct SpanRecord {
  uint32_t id = 0;      // 1-based; index into the trace's span vector + 1
  uint32_t parent = 0;  // 0 = statement root
  const char* name = "";
  std::string detail;          // operator label, victim name, ...
  uint64_t start_micros = 0;   // TraceNowMicros at open
  uint64_t end_micros = 0;     // 0 while still open
};

/// One discrete blocking event (admission wait, lock conflict, durable
/// wait, forced spill). High-frequency causes (per-tuple spill I/O, pool
/// misses) are accumulated into the cumulative tallies only.
struct WaitEvent {
  WaitCause cause = WaitCause::kAdmission;
  uint64_t resource = 0;  // lock key / LSN / page id / bytes — cause-typed
  uint64_t start_micros = 0;
  uint64_t duration_micros = 0;
};

/// How a completed statement ran, beyond its row counts (the §5 request
/// tracer's fields; see profile::TraceEvent).
struct StatementOutcome {
  uint64_t params_hash = 0;
  bool from_procedure = false;
  bool bypassed_optimizer = false;
};

class StatementTrace {
 public:
  // Bounds keep a runaway statement's trace O(1): spans/wait events past
  // the cap are counted as dropped, never allocated.
  static constexpr size_t kMaxSpans = 256;
  static constexpr size_t kMaxWaitEvents = 64;

  StatementTrace(uint64_t stmt_id, uint64_t conn_id, std::string shape);

  // --- Mutation (owning thread; no-ops under HDB_NO_TELEMETRY) ----------
  /// Opens a child of the innermost open span; returns the span id (0 if
  /// dropped — CloseSpan(0) is a no-op).
  uint32_t OpenSpan(const char* name, std::string detail = {});
  void CloseSpan(uint32_t id);
  /// Opens a child of the innermost open span WITHOUT pushing it on the
  /// open-span stack — for exchange worker threads, whose spans are
  /// overlapping siblings closed from their own threads. CloseSpan on a
  /// detached id just stamps its end time (the not-on-stack path), so
  /// the coordinating thread's stack discipline is never perturbed.
  /// Safe to call from any thread.
  uint32_t OpenDetachedSpan(const char* name, std::string detail = {});
  /// Records a discrete wait event AND adds it to the cumulative tally.
  void RecordWait(WaitCause cause, uint64_t resource,
                  uint64_t duration_micros);
  /// Cumulative tally only — for per-tuple hot paths where a ring entry
  /// per occurrence would be noise (spill I/O, pool misses).
  void AccumulateWait(WaitCause cause, uint64_t duration_micros);
  void AddSpilledBytes(uint64_t bytes);
  void SetQuotaPages(uint64_t pages);
  void SetPlan(std::string plan);

  // --- Completion fields, set once by the owning thread. Never compiled
  // out: sys.statements and the §5 tracer are paper mechanisms.
  void SetRows(uint64_t scanned, uint64_t output);
  void SetOutcome(const StatementOutcome& outcome) { outcome_ = outcome; }

  // --- Read side (any thread) -------------------------------------------
  uint64_t stmt_id() const { return stmt_id_; }
  uint64_t conn_id() const { return conn_id_; }
  const std::string& shape() const { return shape_; }  // immutable
  /// Empty unless a completion subscriber was attached at Begin.
  const std::string& sql() const { return sql_; }
  const StatementOutcome& outcome() const { return outcome_; }  // owner
  uint64_t start_micros() const { return start_micros_; }
  uint64_t wait_micros(WaitCause cause) const;
  uint64_t wait_count(WaitCause cause) const;
  uint64_t total_wait_micros() const;
  uint64_t spilled_bytes() const;
  uint64_t quota_pages() const;
  uint64_t rows_scanned() const;
  uint64_t rows_output() const;
  uint64_t dropped_spans() const;
  uint64_t dropped_wait_events() const;
  /// Name of the innermost open span ("" when idle/complete).
  std::string current_span() const;
  std::vector<SpanRecord> Spans() const;
  std::vector<WaitEvent> WaitEvents() const;
  std::string plan() const;
  /// Indented one-line-per-span rendering for sys.slow_statements.
  std::string RenderSpanTree() const;

 private:
  friend class StatementRegistry;

  const uint64_t stmt_id_;
  const uint64_t conn_id_;
  const std::string shape_;
  const uint64_t start_micros_;
  // Written by StatementRegistry::Begin before the trace is published.
  std::string sql_;
  StatementOutcome outcome_;

  // Lock-free tallies: safe to bump while holding any subsystem latch.
  std::array<std::atomic<uint64_t>, kWaitCauseCount> wait_micros_{};
  std::array<std::atomic<uint64_t>, kWaitCauseCount> wait_counts_{};
  std::atomic<uint64_t> spilled_bytes_{0};
  std::atomic<uint64_t> quota_pages_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_output_{0};
  std::atomic<uint64_t> dropped_spans_{0};

  mutable RankedMutex<LockRank::kStatementTrace> mu_;
  // id = index + 1; append-only.
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
  // ids of open spans, root→leaf.
  std::vector<uint32_t> open_stack_ GUARDED_BY(mu_);
  // kMaxWaitEvents cap, overwrite.
  std::vector<WaitEvent> wait_ring_ GUARDED_BY(mu_);
  // Total wait events ever recorded.
  uint64_t wait_seq_ GUARDED_BY(mu_) = 0;
  std::string plan_ GUARDED_BY(mu_);
};

// --- Thread-local current statement ---------------------------------------

/// Trace of the statement executing on this thread (null on worker/flusher
/// threads and outside statement execution).
StatementTrace* CurrentStatementTrace();

/// Installs `trace` as the thread's current statement for a scope.
/// Passing null leaves the slot untouched (a statement that finds a trace
/// already current keeps attributing to it).
class ScopedCurrentTrace {
 public:
  explicit ScopedCurrentTrace(StatementTrace* trace);
  ~ScopedCurrentTrace();
  ScopedCurrentTrace(const ScopedCurrentTrace&) = delete;
  ScopedCurrentTrace& operator=(const ScopedCurrentTrace&) = delete;

 private:
  StatementTrace* prev_ = nullptr;
  bool active_ = false;
};

/// RAII span on the current thread's trace; no-op when none is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::string detail = {}) {
#ifndef HDB_NO_TELEMETRY
    trace_ = CurrentStatementTrace();
    if (trace_ != nullptr) id_ = trace_->OpenSpan(name, std::move(detail));
#else
    (void)name;
    (void)detail;
#endif
  }
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->CloseSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  StatementTrace* trace_ = nullptr;
  uint32_t id_ = 0;
};

/// RAII discrete wait event on the current thread's trace: records the
/// scope's duration under `cause` at destruction. Construct it only on
/// paths that are actually about to block (after fast-path outs).
class ScopedWait {
 public:
  ScopedWait(WaitCause cause, uint64_t resource) {
#ifndef HDB_NO_TELEMETRY
    trace_ = CurrentStatementTrace();
    if (trace_ != nullptr) {
      cause_ = cause;
      resource_ = resource;
      start_ = TraceNowMicros();
    }
#else
    (void)cause;
    (void)resource;
#endif
  }
  ~ScopedWait() {
    if (trace_ != nullptr) {
      trace_->RecordWait(cause_, resource_, TraceNowMicros() - start_);
    }
  }
  ScopedWait(const ScopedWait&) = delete;
  ScopedWait& operator=(const ScopedWait&) = delete;

 private:
  StatementTrace* trace_ = nullptr;
  WaitCause cause_ = WaitCause::kAdmission;
  uint64_t resource_ = 0;
  uint64_t start_ = 0;
};

/// Per-operator EXPLAIN ANALYZE rollup: cumulative wait micros of the
/// current thread's trace, collapsed to the four rendered causes. All
/// zeros when no trace is installed.
struct WaitBreakdown {
  uint64_t lock_micros = 0;
  uint64_t wal_micros = 0;
  uint64_t spill_micros = 0;  // write + read
  uint64_t pool_micros = 0;
};
WaitBreakdown CurrentWaitBreakdown();

// --- Statement registry ----------------------------------------------------

/// Fully-materialized capture of a finished slow statement
/// (sys.slow_statements row source).
struct SlowStatement {
  uint64_t stmt_id = 0;
  uint64_t conn_id = 0;
  std::string shape;
  bool ok = true;
  uint64_t start_micros = 0;
  uint64_t total_micros = 0;
  uint64_t threshold_micros = 0;  // threshold in force at capture time
  std::array<uint64_t, kWaitCauseCount> wait_micros{};
  std::array<uint64_t, kWaitCauseCount> wait_counts{};
  uint64_t spilled_bytes = 0;
  uint64_t quota_pages = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  std::vector<SpanRecord> spans;
  std::vector<WaitEvent> waits;
  std::string span_tree;  // rendered at capture
  std::string plan;
};

struct StatementRegistryOptions {
  /// Slow-statement ring capacity.
  size_t slow_ring_capacity = 32;
  /// Threshold floor (µs): nothing faster is ever captured. 0 captures
  /// everything — deterministic test mode.
  uint64_t slow_floor_micros = 10'000;
  /// Histogram samples required before the p99 rule engages; below this
  /// the floor alone governs (a cold server has no meaningful p99).
  uint64_t min_samples_for_p99 = 64;
};

/// Per-shape totals of successful statements (sys.statements).
struct ShapeTotals {
  uint64_t count = 0;
  double total_micros = 0;  // Begin→End
  uint64_t rows_returned = 0;
};

/// Owns the active-statement map, the slow-statement ring and the
/// per-shape totals; one per Database. The slow threshold is zero-knob:
/// max(floor, statement-latency p99) once enough samples exist, so "slow"
/// self-calibrates to the workload instead of a DBA-set cutoff (the
/// paper's §4 governor stance).
class StatementRegistry {
 public:
  /// Bounds the shape map against a workload of unique shapes.
  static constexpr size_t kMaxShapes = 512;

  /// Gets each successful statement and its Begin→End time, on the
  /// finishing thread, unlatched and with no trace current: it may run SQL.
  using CompletionSubscriber =
      std::function<void(const StatementTrace&, uint64_t elapsed_micros)>;

  explicit StatementRegistry(StatementRegistryOptions opts = {});

  /// Registers the trace.*/stmt.* series and the latency histogram the
  /// p99 rule reads (the engine's latency.execute_micros).
  void AttachTelemetry(MetricsRegistry* registry,
                       LatencyHistogram* statement_latency);

  /// RAII statement registration: Begin() → run → handle destruction
  /// ends the statement (End, the one place a completion is recorded):
  /// counters, the slow ring past the threshold and, if it succeeded, its
  /// shape's totals and the completion subscriber.
  class Handle {
   public:
    Handle() = default;
    ~Handle() { Finish(); }
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Finish();
        registry_ = other.registry_;
        trace_ = std::move(other.trace_);
        ok_ = other.ok_;
        other.registry_ = nullptr;
        other.trace_.reset();
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    StatementTrace* trace() const { return trace_.get(); }
    void set_ok(bool ok) { ok_ = ok; }
    /// Ends the statement now (idempotent; the destructor calls it).
    void Finish();

   private:
    friend class StatementRegistry;
    StatementRegistry* registry_ = nullptr;
    std::shared_ptr<StatementTrace> trace_;
    bool ok_ = true;
  };

  /// `sql` is copied into the trace only while a completion subscriber
  /// is attached. Finish the handle after its trace stops being current.
  Handle Begin(uint64_t conn_id, std::string shape, std::string_view sql = {});

  /// Installs the one completion subscriber; empty removes it. A statement
  /// that already copied the old one may still deliver to it.
  void Subscribe(CompletionSubscriber subscriber);

  /// Current auto-tuned slow threshold (µs).
  uint64_t SlowThresholdMicros() const;
  /// True if a statement of `elapsed_micros` would be captured — callers
  /// use it to decide whether materializing the plan is worth it.
  bool LikelySlow(uint64_t elapsed_micros) const {
    return elapsed_micros >= SlowThresholdMicros();
  }

  /// Live statements, stmt-id order (sys.active_statements row source).
  std::vector<std::shared_ptr<const StatementTrace>> ActiveSnapshot() const;
  /// Captured slow statements, oldest first (sys.slow_statements).
  std::vector<SlowStatement> SlowSnapshot() const;
  /// Per-shape totals, shape order (sys.statements).
  std::map<std::string, ShapeTotals> ShapeSnapshot() const;
  uint64_t active_count() const;

  /// Chrome/Perfetto trace-event JSON ("traceEvents" array of complete
  /// "X" events): all captured slow statements plus the open spans of
  /// live statements. Load in ui.perfetto.dev / chrome://tracing.
  std::string ExportChromeTraceJson() const;

 private:
  void End(const std::shared_ptr<StatementTrace>& trace, bool ok);

  const StatementRegistryOptions opts_;
  mutable RankedMutex<LockRank::kStatementRegistry> mu_;
  std::atomic<uint64_t> next_stmt_id_{1};
  std::map<uint64_t, std::shared_ptr<StatementTrace>> active_ GUARDED_BY(mu_);
  // Capacity opts_.slow_ring_capacity.
  std::vector<SlowStatement> slow_ring_ GUARDED_BY(mu_);
  // Total captures ever.
  uint64_t slow_seq_ GUARDED_BY(mu_) = 0;
  // At most kMaxShapes entries.
  std::map<std::string, ShapeTotals> shapes_ GUARDED_BY(mu_);
  CompletionSubscriber subscriber_ GUARDED_BY(mu_);

  // Telemetry (null until AttachTelemetry). Set once before concurrent
  // statement traffic, read lock-free afterwards — deliberately not
  // GUARDED_BY (DESIGN.md §8.4 set-once contract).
  LatencyHistogram* statement_latency_ = nullptr;
  Counter* spans_counter_ = nullptr;
  Counter* wait_events_counter_ = nullptr;
  Counter* dropped_spans_counter_ = nullptr;
  Counter* slow_captured_counter_ = nullptr;
};

}  // namespace hdb::obs

#endif  // HDB_OBS_TRACE_H_
