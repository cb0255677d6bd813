#include "profile/tracer.h"

#include "obs/metric_names.h"

namespace hdb::profile {

namespace {

/// Per-thread reentrancy latch: when the sink is the monitored database
/// itself, the flush's own INSERT completes on the same thread and is
/// delivered here too; the latch makes that a no-op *before* any tracer
/// mutex is taken, so self-tracing can neither recurse nor deadlock.
thread_local bool tl_in_sink_write = false;

/// Columns of one profile_trace row (the schema Attach creates).
constexpr size_t kSinkColumns = 6;

}  // namespace

RequestTracer::RequestTracer(size_t batch_size, size_t ring_capacity)
    : batch_size_(batch_size == 0 ? 1 : batch_size),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

Status RequestTracer::Attach(engine::Database* monitored,
                             engine::Database* sink) {
  monitored_ = monitored;
  sink_ = sink;
  events_counter_ = monitored_->metrics().RegisterCounter(obs::kTraceEvents);
  dropped_counter_ =
      monitored_->metrics().RegisterCounter(obs::kTraceDroppedSinkWrites);
  dropped_ring_counter_ =
      monitored_->metrics().RegisterCounter(obs::kTraceDroppedRing);
  if (sink_ != nullptr) {
    HDB_ASSIGN_OR_RETURN(const auto conn, sink_->Connect());
    // Trace schema: one row per request.
    const auto r = conn->Execute(
        "CREATE TABLE profile_trace (sql VARCHAR, shape VARCHAR, "
        "elapsed_us DOUBLE, rows_returned BIGINT, rows_scanned BIGINT, "
        "bypassed BOOLEAN)");
    if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
      return r.status();
    }
  }
  monitored_->statement_registry().Subscribe(
      [this](const obs::StatementTrace& trace, uint64_t elapsed_micros) {
        OnEvent(trace, elapsed_micros);
      });
  return Status::OK();
}

void RequestTracer::Detach() {
  if (monitored_ != nullptr) monitored_->statement_registry().Subscribe({});
  monitored_ = nullptr;
  Flush();
}

std::vector<TraceEvent> RequestTracer::events() const {
  LockGuard lock(mu_);
  if (event_seq_ <= ring_capacity_) return events_;
  // Wrapped: rebuild recording order, oldest surviving event first.
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (uint64_t seq = event_seq_ - ring_capacity_; seq < event_seq_; ++seq) {
    out.push_back(events_[seq % ring_capacity_]);
  }
  return out;
}

void RequestTracer::Flush() {
  std::vector<Value> batch;
  {
    LockGuard lock(mu_);
    batch.swap(pending_values_);
  }
  if (!batch.empty()) WriteBatch(std::move(batch));
}

void RequestTracer::WriteBatch(std::vector<Value> values) {
  if (sink_ == nullptr) return;
  const size_t rows = values.size() / kSinkColumns;
  std::string insert = "INSERT INTO profile_trace VALUES ";
  for (size_t i = 0; i < rows; ++i) {
    insert += i > 0 ? ", (?, ?, ?, ?, ?, ?)" : "(?, ?, ?, ?, ?, ?)";
  }
  tl_in_sink_write = true;
  auto conn = sink_->Connect();
  const Status st =
      conn.ok() ? (*conn)->Execute(insert, values).status() : conn.status();
  tl_in_sink_write = false;
  if (!st.ok()) {
    // Per-event accounting: a failed batch of N rows is N dropped writes.
    dropped_.fetch_add(rows, std::memory_order_relaxed);
    if (dropped_counter_ != nullptr) dropped_counter_->Add(rows);
  }
}

void RequestTracer::OnEvent(const obs::StatementTrace& trace,
                            uint64_t elapsed_micros) {
  if (tl_in_sink_write) return;  // our own insert when sink == source
  if (events_counter_ != nullptr) events_counter_->Add();

  const obs::StatementOutcome& o = trace.outcome();
  TraceEvent ev{.sql = trace.sql(),
                .shape = trace.shape(),
                .elapsed_micros = static_cast<double>(elapsed_micros),
                .rows_returned = trace.rows_output(),
                .rows_scanned = trace.rows_scanned(),
                .bypassed_optimizer = o.bypassed_optimizer,
                .from_procedure = o.from_procedure,
                .params_hash = o.params_hash};

  std::vector<Value> batch;
  {
    LockGuard lock(mu_);
    if (sink_ != nullptr) {
      pending_values_.insert(
          pending_values_.end(),
          {Value::String(ev.sql), Value::String(ev.shape),
           Value::Double(ev.elapsed_micros),
           Value::Bigint(static_cast<int64_t>(ev.rows_returned)),
           Value::Bigint(static_cast<int64_t>(ev.rows_scanned)),
           Value::Boolean(ev.bypassed_optimizer)});
      if (pending_values_.size() >= batch_size_ * kSinkColumns) {
        batch.swap(pending_values_);
      }
    }
    if (events_.size() < ring_capacity_) {
      events_.push_back(std::move(ev));
    } else {
      // Ring full: overwrite the oldest event. The sink database (when
      // configured) is the unbounded record; in memory the trace stays
      // O(ring_capacity_) forever.
      events_[event_seq_ % ring_capacity_] = std::move(ev);
      dropped_ring_.fetch_add(1, std::memory_order_relaxed);
      if (dropped_ring_counter_ != nullptr) dropped_ring_counter_->Add();
    }
    ++event_seq_;
  }
  if (!batch.empty()) WriteBatch(std::move(batch));
}

}  // namespace hdb::profile
