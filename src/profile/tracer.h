#ifndef HDB_PROFILE_TRACER_H_
#define HDB_PROFILE_TRACER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"

#include "common/lock_rank.h"

namespace hdb::profile {

/// One completed request (paper §5 — the "detailed trace of all server
/// activity", transported in-process instead of over TCP/IP), built from
/// the statement registry's completion record.
struct TraceEvent {
  std::string sql;
  std::string shape;  // engine::NormalizeStatement(sql), from Begin
  /// Begin→End: parse, admission wait and execute; over the wire also
  /// result encoding.
  double elapsed_micros = 0;
  uint64_t rows_returned = 0;
  uint64_t rows_scanned = 0;
  bool bypassed_optimizer = false;
  bool from_procedure = false;
  /// Hash of the values bound to the statement's placeholders. Prepared
  /// executions share one `sql` text, so (sql, params_hash) is what tells
  /// distinct constants apart (the §5 client-side-join signal).
  uint64_t params_hash = 0;
};

/// Captures a detailed trace of all server activity (paper §5). The trace
/// can be held in memory and/or *written into another HolisticDB
/// database* — the paper's architecture, where the trace streams (there,
/// over TCP/IP; here, in process — DESIGN.md substitution #5) into any SQL
/// Anywhere database for analysis, including the monitored database
/// itself (convenience) or a separate one (performance).
///
/// Thread safety: as the statement registry's completion subscriber it
/// runs on whichever session or net worker thread finished a request, so
/// any number of threads may deliver events concurrently.
/// Sink writes are batched (one multi-row INSERT per `batch_size` events)
/// to keep the per-request overhead down; Detach flushes the remainder.
/// A failed batch of N rows counts N dropped writes — droppage is
/// per-event, never per-batch.
///
/// The in-memory event buffer is a bounded ring (`ring_capacity` events):
/// a tracer left attached for days stays O(1) in memory. Overwritten
/// events count into trace.dropped_ring — the sink database, when
/// configured, remains the unbounded record.
class RequestTracer {
 public:
  explicit RequestTracer(size_t batch_size = 16,
                         size_t ring_capacity = 4096);

  /// Starts capturing `monitored`'s requests. If `sink` is non-null, each
  /// event is also inserted into a `profile_trace` table there. Registers
  /// trace.events / trace.dropped_sink_writes in the monitored database's
  /// metrics registry.
  Status Attach(engine::Database* monitored, engine::Database* sink);

  /// Stops capturing (unsubscribes) and flushes buffered sink rows. Quiesce
  /// the monitored database's clients first: a statement that finished
  /// just before may still deliver its event.
  void Detach();

  /// Writes any buffered sink rows now. Safe from any thread.
  void Flush();

  /// Snapshot of the buffered events in recording order (oldest surviving
  /// first once the ring has wrapped). By value: the ring keeps moving
  /// while callers iterate.
  std::vector<TraceEvent> events() const;
  uint64_t dropped_sink_writes() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by ring wrap-around (never includes sink drops).
  uint64_t dropped_ring_events() const {
    return dropped_ring_.load(std::memory_order_relaxed);
  }

 private:
  void OnEvent(const obs::StatementTrace& trace, uint64_t elapsed_micros);
  /// Executes one multi-row INSERT binding `values` (whole rows, in
  /// column order) to its placeholders, on a connection of its own (callers
  /// run concurrently); on failure every row counts as one dropped write.
  void WriteBatch(std::vector<Value> values);

  const size_t batch_size_;
  const size_t ring_capacity_;
  // Set by Attach before it subscribes (i.e. before any concurrent event
  // delivery), read lock-free afterwards — deliberately not GUARDED_BY
  // (DESIGN.md §8.4 set-once contract). Detach unsubscribes first for the
  // same reason.
  engine::Database* monitored_ = nullptr;
  engine::Database* sink_ = nullptr;

  /// Guards events_/event_seq_ and pending_values_; never held across a
  /// sink write.
  mutable RankedMutex<LockRank::kTracer> mu_;
  std::vector<TraceEvent> events_ GUARDED_BY(mu_);  // bounded ring
  uint64_t event_seq_ GUARDED_BY(mu_) = 0;  // events ever delivered
  // Sink rows awaiting a batch INSERT, flattened column by column.
  std::vector<Value> pending_values_ GUARDED_BY(mu_);
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> dropped_ring_{0};

  // Telemetry (registered on Attach; null when the monitored database is
  // gone or Attach was never called). Same set-once-before-subscribe
  // contract as monitored_ above.
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* dropped_ring_counter_ = nullptr;
};

}  // namespace hdb::profile

#endif  // HDB_PROFILE_TRACER_H_
