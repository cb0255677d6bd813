#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace hdb::obs {

namespace {

// Touched only here, never inline from another unit: there GCC's UBSan
// null check branches on the flags of `add x@gottpoff(%rip)`, which GNU ld
// relaxes to a flag-less `lea`, a false "null load" (DESIGN.md §8.3).
thread_local StatementTrace* tl_current_trace = nullptr;

}  // namespace

StatementTrace* CurrentStatementTrace() { return tl_current_trace; }

ScopedCurrentTrace::ScopedCurrentTrace(StatementTrace* trace) {
  if (trace != nullptr) {
    prev_ = tl_current_trace;
    tl_current_trace = trace;
    active_ = true;
  }
}

ScopedCurrentTrace::~ScopedCurrentTrace() {
  if (active_) tl_current_trace = prev_;
}

const char* WaitCauseName(WaitCause cause) {
  switch (cause) {
    case WaitCause::kAdmission:
      return obs::kWaitAdmission;
    case WaitCause::kLock:
      return obs::kWaitLock;
    case WaitCause::kWalDurable:
      return obs::kWaitWalDurable;
    case WaitCause::kSpillWrite:
      return obs::kWaitSpillWrite;
    case WaitCause::kSpillRead:
      return obs::kWaitSpillRead;
    case WaitCause::kPoolMiss:
      return obs::kWaitPoolMiss;
    case WaitCause::kNetWrite:
      return obs::kWaitNetWrite;
  }
  return "wait.unknown";
}

uint64_t TraceNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- StatementTrace --------------------------------------------------------

StatementTrace::StatementTrace(uint64_t stmt_id, uint64_t conn_id,
                               std::string shape)
    : stmt_id_(stmt_id),
      conn_id_(conn_id),
      shape_(std::move(shape)),
      start_micros_(TraceNowMicros()) {}

uint32_t StatementTrace::OpenSpan(const char* name, std::string detail) {
#ifndef HDB_NO_TELEMETRY
  const uint64_t now = TraceNowMicros();
  LockGuard lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_spans_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  SpanRecord s;
  s.id = static_cast<uint32_t>(spans_.size()) + 1;
  s.parent = open_stack_.empty() ? 0 : open_stack_.back();
  s.name = name;
  s.detail = std::move(detail);
  s.start_micros = now;
  spans_.push_back(std::move(s));
  open_stack_.push_back(spans_.back().id);
  return spans_.back().id;
#else
  (void)name;
  (void)detail;
  return 0;
#endif
}

uint32_t StatementTrace::OpenDetachedSpan(const char* name,
                                          std::string detail) {
#ifndef HDB_NO_TELEMETRY
  const uint64_t now = TraceNowMicros();
  LockGuard lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_spans_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  SpanRecord s;
  s.id = static_cast<uint32_t>(spans_.size()) + 1;
  s.parent = open_stack_.empty() ? 0 : open_stack_.back();
  s.name = name;
  s.detail = std::move(detail);
  s.start_micros = now;
  spans_.push_back(std::move(s));
  return spans_.back().id;
#else
  (void)name;
  (void)detail;
  return 0;
#endif
}

void StatementTrace::CloseSpan(uint32_t id) {
#ifndef HDB_NO_TELEMETRY
  if (id == 0) return;
  const uint64_t now = TraceNowMicros();
  LockGuard lock(mu_);
  if (id > spans_.size()) return;
  if (std::find(open_stack_.begin(), open_stack_.end(), id) ==
      open_stack_.end()) {
    // Not on the stack: already closed (e.g. as an orphan when an
    // enclosing span closed first). Never unwind — that would close
    // unrelated open spans below.
    if (spans_[id - 1].end_micros == 0) spans_[id - 1].end_micros = now;
    return;
  }
  spans_[id - 1].end_micros = now;
  // Unwind to (and including) this span: a child left open by an early
  // error exit closes with its parent rather than dangling forever.
  while (!open_stack_.empty()) {
    const uint32_t top = open_stack_.back();
    open_stack_.pop_back();
    if (spans_[top - 1].end_micros == 0) spans_[top - 1].end_micros = now;
    if (top == id) break;
  }
#else
  (void)id;
#endif
}

void StatementTrace::RecordWait(WaitCause cause, uint64_t resource,
                                uint64_t duration_micros) {
#ifndef HDB_NO_TELEMETRY
  AccumulateWait(cause, duration_micros);
  WaitEvent ev;
  ev.cause = cause;
  ev.resource = resource;
  ev.duration_micros = duration_micros;
  ev.start_micros = TraceNowMicros() - duration_micros;
  LockGuard lock(mu_);
  if (wait_ring_.size() < kMaxWaitEvents) {
    wait_ring_.push_back(ev);
  } else {
    wait_ring_[wait_seq_ % kMaxWaitEvents] = ev;
  }
  ++wait_seq_;
#else
  (void)cause;
  (void)resource;
  (void)duration_micros;
#endif
}

void StatementTrace::AccumulateWait(WaitCause cause,
                                    uint64_t duration_micros) {
#ifndef HDB_NO_TELEMETRY
  const auto i = static_cast<size_t>(cause);
  wait_micros_[i].fetch_add(duration_micros, std::memory_order_relaxed);
  wait_counts_[i].fetch_add(1, std::memory_order_relaxed);
#else
  (void)cause;
  (void)duration_micros;
#endif
}

void StatementTrace::AddSpilledBytes(uint64_t bytes) {
#ifndef HDB_NO_TELEMETRY
  spilled_bytes_.fetch_add(bytes, std::memory_order_relaxed);
#else
  (void)bytes;
#endif
}

void StatementTrace::SetQuotaPages(uint64_t pages) {
#ifndef HDB_NO_TELEMETRY
  quota_pages_.store(pages, std::memory_order_relaxed);
#else
  (void)pages;
#endif
}

void StatementTrace::SetRows(uint64_t scanned, uint64_t output) {
  rows_scanned_.store(scanned, std::memory_order_relaxed);
  rows_output_.store(output, std::memory_order_relaxed);
}

void StatementTrace::SetPlan(std::string plan) {
#ifndef HDB_NO_TELEMETRY
  LockGuard lock(mu_);
  plan_ = std::move(plan);
#else
  (void)plan;
#endif
}

uint64_t StatementTrace::wait_micros(WaitCause cause) const {
  return wait_micros_[static_cast<size_t>(cause)].load(
      std::memory_order_relaxed);
}

uint64_t StatementTrace::wait_count(WaitCause cause) const {
  return wait_counts_[static_cast<size_t>(cause)].load(
      std::memory_order_relaxed);
}

uint64_t StatementTrace::total_wait_micros() const {
  uint64_t total = 0;
  for (int i = 0; i < kWaitCauseCount; ++i) {
    total += wait_micros_[i].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t StatementTrace::spilled_bytes() const {
  return spilled_bytes_.load(std::memory_order_relaxed);
}

uint64_t StatementTrace::quota_pages() const {
  return quota_pages_.load(std::memory_order_relaxed);
}

uint64_t StatementTrace::rows_scanned() const {
  return rows_scanned_.load(std::memory_order_relaxed);
}

uint64_t StatementTrace::rows_output() const {
  return rows_output_.load(std::memory_order_relaxed);
}

uint64_t StatementTrace::dropped_spans() const {
  return dropped_spans_.load(std::memory_order_relaxed);
}

uint64_t StatementTrace::dropped_wait_events() const {
  LockGuard lock(mu_);
  return wait_seq_ > kMaxWaitEvents ? wait_seq_ - kMaxWaitEvents : 0;
}

std::string StatementTrace::current_span() const {
  LockGuard lock(mu_);
  if (open_stack_.empty()) return "";
  return spans_[open_stack_.back() - 1].name;
}

std::vector<SpanRecord> StatementTrace::Spans() const {
  LockGuard lock(mu_);
  return spans_;
}

std::vector<WaitEvent> StatementTrace::WaitEvents() const {
  LockGuard lock(mu_);
  if (wait_seq_ <= kMaxWaitEvents) return wait_ring_;
  // Ring has wrapped: return in recording order, oldest surviving first.
  std::vector<WaitEvent> out;
  out.reserve(kMaxWaitEvents);
  for (uint64_t seq = wait_seq_ - kMaxWaitEvents; seq < wait_seq_; ++seq) {
    out.push_back(wait_ring_[seq % kMaxWaitEvents]);
  }
  return out;
}

std::string StatementTrace::plan() const {
  LockGuard lock(mu_);
  return plan_;
}

std::string StatementTrace::RenderSpanTree() const {
  std::vector<SpanRecord> spans = Spans();
  // parent < id always (children open after their parent), so one forward
  // pass resolves every depth.
  std::vector<int> depth(spans.size() + 1, 0);
  std::string out;
  for (const SpanRecord& s : spans) {
    depth[s.id] = s.parent == 0 ? 0 : depth[s.parent] + 1;
    if (!out.empty()) out += '\n';
    out.append(static_cast<size_t>(depth[s.id]) * 2, ' ');
    out += s.name;
    if (!s.detail.empty()) {
      out += '(';
      out += s.detail;
      out += ')';
    }
    char buf[64];
    if (s.end_micros != 0) {
      std::snprintf(buf, sizeof(buf), " %lluus",
                    static_cast<unsigned long long>(s.end_micros -
                                                    s.start_micros));
    } else {
      std::snprintf(buf, sizeof(buf), " open");
    }
    out += buf;
  }
  return out;
}

// --- StatementRegistry -----------------------------------------------------

StatementRegistry::StatementRegistry(StatementRegistryOptions opts)
    : opts_(opts) {
  slow_ring_.reserve(opts_.slow_ring_capacity);
}

void StatementRegistry::AttachTelemetry(MetricsRegistry* registry,
                                        LatencyHistogram* statement_latency) {
  statement_latency_ = statement_latency;
  spans_counter_ = registry->RegisterCounter(obs::kTraceSpans);
  wait_events_counter_ = registry->RegisterCounter(obs::kTraceWaitEvents);
  dropped_spans_counter_ = registry->RegisterCounter(obs::kTraceDroppedSpans);
  slow_captured_counter_ = registry->RegisterCounter(obs::kStmtSlowCaptured);
  registry->RegisterCallback(obs::kStmtActive, [this] {
    return static_cast<double>(active_count());
  });
  registry->RegisterCallback(obs::kStmtSlowThresholdMicros, [this] {
    return static_cast<double>(SlowThresholdMicros());
  });
}

void StatementRegistry::Handle::Finish() {
  if (registry_ != nullptr && trace_ != nullptr) {
    registry_->End(trace_, ok_);
  }
  registry_ = nullptr;
  trace_.reset();
}

StatementRegistry::Handle StatementRegistry::Begin(uint64_t conn_id,
                                                   std::string shape,
                                                   std::string_view sql) {
  const uint64_t id = next_stmt_id_.fetch_add(1, std::memory_order_relaxed);
  auto trace =
      std::make_shared<StatementTrace>(id, conn_id, std::move(shape));
  {
    LockGuard lock(mu_);
    if (subscriber_) trace->sql_.assign(sql);
    active_.emplace(id, trace);
  }
  Handle h;
  h.registry_ = this;
  h.trace_ = std::move(trace);
  return h;
}

uint64_t StatementRegistry::SlowThresholdMicros() const {
  uint64_t threshold = opts_.slow_floor_micros;
  if (statement_latency_ != nullptr &&
      statement_latency_->count() >= opts_.min_samples_for_p99) {
    const auto p99 =
        static_cast<uint64_t>(statement_latency_->QuantileMicros(0.99));
    threshold = std::max(threshold, p99);
  }
  return threshold;
}

void StatementRegistry::End(const std::shared_ptr<StatementTrace>& trace,
                            bool ok) {
  const uint64_t elapsed = TraceNowMicros() - trace->start_micros();
  const uint64_t threshold = SlowThresholdMicros();

  if (spans_counter_ != nullptr) {
    spans_counter_->Add(trace->Spans().size());
    uint64_t events = 0;
    for (int i = 0; i < kWaitCauseCount; ++i) {
      events += trace->wait_count(static_cast<WaitCause>(i));
    }
    wait_events_counter_->Add(events);
    dropped_spans_counter_->Add(trace->dropped_spans());
  }

  SlowStatement capture;
  const bool slow = elapsed >= threshold;
  if (slow) {
    capture.stmt_id = trace->stmt_id();
    capture.conn_id = trace->conn_id();
    capture.shape = trace->shape();
    capture.ok = ok;
    capture.start_micros = trace->start_micros();
    capture.total_micros = elapsed;
    capture.threshold_micros = threshold;
    for (int i = 0; i < kWaitCauseCount; ++i) {
      const auto cause = static_cast<WaitCause>(i);
      capture.wait_micros[static_cast<size_t>(i)] = trace->wait_micros(cause);
      capture.wait_counts[static_cast<size_t>(i)] = trace->wait_count(cause);
    }
    capture.spilled_bytes = trace->spilled_bytes();
    capture.quota_pages = trace->quota_pages();
    capture.rows_scanned = trace->rows_scanned();
    capture.rows_output = trace->rows_output();
    capture.spans = trace->Spans();
    capture.waits = trace->WaitEvents();
    capture.span_tree = trace->RenderSpanTree();
    capture.plan = trace->plan();
    if (slow_captured_counter_ != nullptr) slow_captured_counter_->Add();
  }

  CompletionSubscriber subscriber;
  {
    LockGuard lock(mu_);
    active_.erase(trace->stmt_id());
    if (slow) {
      if (slow_ring_.size() < opts_.slow_ring_capacity) {
        slow_ring_.push_back(std::move(capture));
      } else if (opts_.slow_ring_capacity > 0) {
        slow_ring_[slow_seq_ % opts_.slow_ring_capacity] = std::move(capture);
      }
      ++slow_seq_;
    }
    if (!ok) return;  // a failure counts nowhere but the slow ring
    if (shapes_.size() < kMaxShapes || shapes_.count(trace->shape()) > 0) {
      ShapeTotals& s = shapes_[trace->shape()];
      s.count++;
      s.total_micros += static_cast<double>(elapsed);
      s.rows_returned += trace->rows_output();
    }
    subscriber = subscriber_;
  }
  // Unlatched: the subscriber may run SQL (the self-tracing profiler sink).
  if (subscriber) subscriber(*trace, elapsed);
}

void StatementRegistry::Subscribe(CompletionSubscriber subscriber) {
  LockGuard lock(mu_);
  subscriber_ = std::move(subscriber);
}

std::vector<std::shared_ptr<const StatementTrace>>
StatementRegistry::ActiveSnapshot() const {
  LockGuard lock(mu_);
  std::vector<std::shared_ptr<const StatementTrace>> out;
  out.reserve(active_.size());
  for (const auto& [id, trace] : active_) out.push_back(trace);
  return out;
}

std::vector<SlowStatement> StatementRegistry::SlowSnapshot() const {
  LockGuard lock(mu_);
  if (slow_seq_ <= slow_ring_.size()) return slow_ring_;
  std::vector<SlowStatement> out;
  out.reserve(slow_ring_.size());
  const uint64_t cap = opts_.slow_ring_capacity;
  for (uint64_t seq = slow_seq_ - cap; seq < slow_seq_; ++seq) {
    out.push_back(slow_ring_[seq % cap]);
  }
  return out;
}

std::map<std::string, ShapeTotals> StatementRegistry::ShapeSnapshot() const {
  LockGuard lock(mu_);
  return shapes_;
}

uint64_t StatementRegistry::active_count() const {
  LockGuard lock(mu_);
  return active_.size();
}

namespace {

void JsonEscapeTo(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// One complete ("ph":"X") trace event. tid = statement id, so each
// statement renders as its own track in the Perfetto UI.
void AppendEvent(std::string& out, bool& first, const char* cat,
                 const std::string& name, uint64_t stmt_id, uint64_t ts,
                 uint64_t dur, const std::string& args_detail,
                 uint64_t resource, bool has_resource) {
  if (!first) out += ',';
  first = false;
  out += "{\"name\":\"";
  JsonEscapeTo(out, name);
  out += "\",\"cat\":\"";
  out += cat;
  out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%llu,\"ts\":%llu,\"dur\":%llu",
                static_cast<unsigned long long>(stmt_id),
                static_cast<unsigned long long>(ts),
                static_cast<unsigned long long>(dur));
  out += buf;
  if (!args_detail.empty() || has_resource) {
    out += ",\"args\":{";
    bool first_arg = true;
    if (!args_detail.empty()) {
      out += "\"detail\":\"";
      JsonEscapeTo(out, args_detail);
      out += '"';
      first_arg = false;
    }
    if (has_resource) {
      if (!first_arg) out += ',';
      std::snprintf(buf, sizeof(buf), "\"resource\":%llu",
                    static_cast<unsigned long long>(resource));
      out += buf;
    }
    out += '}';
  }
  out += '}';
}

void AppendStatement(std::string& out, bool& first, uint64_t stmt_id,
                     const std::string& shape, uint64_t start, uint64_t total,
                     const std::vector<SpanRecord>& spans,
                     const std::vector<WaitEvent>& waits, uint64_t now) {
  AppendEvent(out, first, "stmt", shape, stmt_id, start, total, "", 0, false);
  for (const SpanRecord& s : spans) {
    const uint64_t end = s.end_micros != 0 ? s.end_micros : now;
    AppendEvent(out, first, "span", s.name, stmt_id, s.start_micros,
                end > s.start_micros ? end - s.start_micros : 0, s.detail, 0,
                false);
  }
  for (const WaitEvent& w : waits) {
    AppendEvent(out, first, "wait", WaitCauseName(w.cause), stmt_id,
                w.start_micros, w.duration_micros, "", w.resource, true);
  }
}

}  // namespace

std::string StatementRegistry::ExportChromeTraceJson() const {
  const uint64_t now = TraceNowMicros();
  const std::vector<SlowStatement> slow = SlowSnapshot();
  const auto active = ActiveSnapshot();

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SlowStatement& s : slow) {
    AppendStatement(out, first, s.stmt_id, s.shape, s.start_micros,
                    s.total_micros, s.spans, s.waits, now);
  }
  for (const auto& trace : active) {
    AppendStatement(out, first, trace->stmt_id(), trace->shape(),
                    trace->start_micros(), now - trace->start_micros(),
                    trace->Spans(), trace->WaitEvents(), now);
  }
  out += "]}";
  return out;
}

WaitBreakdown CurrentWaitBreakdown() {
  WaitBreakdown b;
#ifndef HDB_NO_TELEMETRY
  const StatementTrace* trace = CurrentStatementTrace();
  if (trace != nullptr) {
    b.lock_micros = trace->wait_micros(WaitCause::kLock);
    b.wal_micros = trace->wait_micros(WaitCause::kWalDurable);
    b.spill_micros = trace->wait_micros(WaitCause::kSpillWrite) +
                     trace->wait_micros(WaitCause::kSpillRead);
    b.pool_micros = trace->wait_micros(WaitCause::kPoolMiss);
  }
#endif
  return b;
}

}  // namespace hdb::obs
