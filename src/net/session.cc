#include "net/session.h"

#include <utility>

#include "engine/database.h"
#include "engine/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdb::net {

namespace {

void Bump(obs::Counter* c) {
  if (c != nullptr) c->Add();
}

}  // namespace

Result<std::unique_ptr<Session>> Session::Create(engine::Database* db,
                                                 std::string peer,
                                                 SessionOptions options,
                                                 SessionCounters counters) {
  HDB_ASSIGN_OR_RETURN(std::unique_ptr<engine::Connection> conn,
                       db->Connect());
  return std::unique_ptr<Session>(new Session(db, std::move(conn),
                                              std::move(peer),
                                              std::move(options), counters));
}

Session::Session(engine::Database* db, std::unique_ptr<engine::Connection> conn,
                 std::string peer, SessionOptions options,
                 SessionCounters counters)
    : db_(db),
      conn_(std::move(conn)),
      peer_(std::move(peer)),
      options_(std::move(options)),
      counters_(counters) {}

Session::~Session() = default;

uint64_t Session::conn_id() const { return conn_->conn_id(); }

SessionAction Session::HandleFrame(const Frame& frame, FrameSink* sink) {
  std::string out;
  if (!IsClientOpcode(frame.opcode)) {
    // Framing is intact (the length field parsed), so an unknown opcode is
    // recoverable: answer with an error frame, keep the connection.
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument,
                     "unknown client opcode " + std::to_string(frame.opcode));
    sink->Write(out);
    return SessionAction::kContinue;
  }
  const Opcode op = static_cast<Opcode>(frame.opcode);
  PayloadReader in(frame.payload, options_.wire);

  // Pre-handshake, only kHello / kPing / kClose are legal.
  if (!hello_done_.load(std::memory_order_relaxed) && op != Opcode::kHello &&
      op != Opcode::kPing && op != Opcode::kClose) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument,
                     "handshake required before opcode " +
                         std::to_string(frame.opcode));
    sink->Write(out);
    return SessionAction::kCloseAfterFlush;
  }

  switch (op) {
    case Opcode::kHello:
      return HandleHello(&in, sink);
    case Opcode::kQuery:
      return HandleQuery(&in, sink);
    case Opcode::kPrepare:
      return HandlePrepare(&in, sink);
    case Opcode::kBind:
      return HandleBind(&in, sink);
    case Opcode::kExecute:
      return HandleExecute(&in, sink);
    case Opcode::kClosePrepared:
      return HandleClosePrepared(&in, sink);
    case Opcode::kPing:
      AppendFrame(&out, Opcode::kPong, {});
      sink->Write(out);
      return SessionAction::kContinue;
    case Opcode::kClose:
      AppendFrame(&out, Opcode::kCloseOk, {});
      sink->Write(out);
      return SessionAction::kCloseAfterFlush;
    default:
      break;  // unreachable: IsClientOpcode filtered already
  }
  return SessionAction::kCloseNow;
}

/// Payload-parse failure: framing survived, so answer and continue.
#define HDB_NET_PARSE(lhs, expr)                                      \
  auto lhs##_or = (expr);                                             \
  if (!lhs##_or.ok()) {                                               \
    Bump(counters_.protocol_errors);                                  \
    std::string err;                                                  \
    AppendErrorFrame(&err, StatusCode::kInvalidArgument,              \
                     "malformed payload: " + lhs##_or.status().message()); \
    sink->Write(err);                                                 \
    return SessionAction::kContinue;                                  \
  }                                                                   \
  auto lhs = std::move(*lhs##_or)

SessionAction Session::HandleHello(PayloadReader* in, FrameSink* sink) {
  std::string out;
  HDB_NET_PARSE(version, in->U32());
  HDB_NET_PARSE(client_name, in->String());
  (void)client_name;
  if (Status end = in->ExpectEnd(); !end.ok()) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, end.message());
    sink->Write(out);
    return SessionAction::kContinue;
  }
  if (hello_done_.load(std::memory_order_relaxed)) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, "duplicate hello");
    sink->Write(out);
    return SessionAction::kContinue;
  }
  if (version != kProtocolVersion) {
    AppendErrorFrame(&out, StatusCode::kNotSupported,
                     "protocol version " + std::to_string(version) +
                         " unsupported; server speaks " +
                         std::to_string(kProtocolVersion));
    sink->Write(out);
    return SessionAction::kCloseAfterFlush;
  }
  hello_done_.store(true, std::memory_order_relaxed);
  std::string payload;
  PutU32(&payload, kProtocolVersion);
  PutU64(&payload, conn_->conn_id());
  PutString(&payload, "holisticdb");
  AppendFrame(&out, Opcode::kHelloOk, payload);
  sink->Write(out);
  return SessionAction::kContinue;
}

SessionAction Session::HandleQuery(PayloadReader* in, FrameSink* sink) {
  HDB_NET_PARSE(sql, in->String());
  if (Status end = in->ExpectEnd(); !end.ok()) {
    Bump(counters_.protocol_errors);
    std::string out;
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, end.message());
    sink->Write(out);
    return SessionAction::kContinue;
  }
  return RunStatement(sql, {}, sink);
}

SessionAction Session::HandlePrepare(PayloadReader* in, FrameSink* sink) {
  std::string out;
  HDB_NET_PARSE(sql, in->String());
  if (Status end = in->ExpectEnd(); !end.ok()) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, end.message());
    sink->Write(out);
    return SessionAction::kContinue;
  }
  if (prepared_.size() >= options_.max_prepared) {
    AppendErrorFrame(&out, StatusCode::kResourceExhausted,
                     "connection holds " + std::to_string(prepared_.size()) +
                         " prepared statements (limit " +
                         std::to_string(options_.max_prepared) + ")");
    sink->Write(out);
    return SessionAction::kContinue;
  }
  Prepared p;
  p.sql = std::move(sql);
  // Text the lexer rejects prepares with no placeholders; Execute then
  // reports the syntax error.
  if (auto tokens = engine::Lex(p.sql); tokens.ok()) {
    for (const engine::Token& t : *tokens) {
      if (t.kind == engine::TokenKind::kParam && t.text.empty()) {
        ++p.param_count;
      }
    }
  }
  const size_t param_count = p.param_count;
  const uint32_t id = next_prepared_id_++;
  prepared_.emplace(id, std::move(p));
  prepared_live_.store(prepared_.size(), std::memory_order_relaxed);
  std::string payload;
  PutU32(&payload, id);
  PutU16(&payload, static_cast<uint16_t>(param_count));
  AppendFrame(&out, Opcode::kPrepareOk, payload);
  sink->Write(out);
  return SessionAction::kContinue;
}

SessionAction Session::HandleBind(PayloadReader* in, FrameSink* sink) {
  std::string out;
  HDB_NET_PARSE(stmt_id, in->U32());
  HDB_NET_PARSE(n, in->U16());
  std::vector<Value> values;
  values.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    HDB_NET_PARSE(v, in->GetValue());
    values.push_back(std::move(v));
  }
  if (Status end = in->ExpectEnd(); !end.ok()) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, end.message());
    sink->Write(out);
    return SessionAction::kContinue;
  }
  const auto it = prepared_.find(stmt_id);
  if (it == prepared_.end()) {
    AppendErrorFrame(&out, StatusCode::kNotFound,
                     "unknown prepared statement " + std::to_string(stmt_id));
    sink->Write(out);
    return SessionAction::kContinue;
  }
  const size_t want = it->second.param_count;
  if (values.size() != want) {
    AppendErrorFrame(&out, StatusCode::kInvalidArgument,
                     "bind of " + std::to_string(values.size()) +
                         " parameters; statement has " + std::to_string(want));
    sink->Write(out);
    return SessionAction::kContinue;
  }
  it->second.bound = std::move(values);
  AppendFrame(&out, Opcode::kBindOk, {});
  sink->Write(out);
  return SessionAction::kContinue;
}

SessionAction Session::HandleExecute(PayloadReader* in, FrameSink* sink) {
  std::string out;
  HDB_NET_PARSE(stmt_id, in->U32());
  if (Status end = in->ExpectEnd(); !end.ok()) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, end.message());
    sink->Write(out);
    return SessionAction::kContinue;
  }
  const auto it = prepared_.find(stmt_id);
  if (it == prepared_.end()) {
    AppendErrorFrame(&out, StatusCode::kNotFound,
                     "unknown prepared statement " + std::to_string(stmt_id));
    sink->Write(out);
    return SessionAction::kContinue;
  }
  const Prepared& p = it->second;
  const size_t want = p.param_count;
  if (p.bound.size() != want) {
    AppendErrorFrame(&out, StatusCode::kInvalidArgument,
                     "execute with " + std::to_string(p.bound.size()) +
                         " of " + std::to_string(want) + " parameters bound");
    sink->Write(out);
    return SessionAction::kContinue;
  }
  // The values bind as typed literals: the engine parses and re-optimizes
  // the statement with them at every execution, so selectivity estimation
  // sees the real constants (paper §3). Ad hoc statements never use the
  // plan cache.
  return RunStatement(p.sql, p.bound, sink);
}

SessionAction Session::HandleClosePrepared(PayloadReader* in, FrameSink* sink) {
  std::string out;
  HDB_NET_PARSE(stmt_id, in->U32());
  if (Status end = in->ExpectEnd(); !end.ok()) {
    Bump(counters_.protocol_errors);
    AppendErrorFrame(&out, StatusCode::kInvalidArgument, end.message());
    sink->Write(out);
    return SessionAction::kContinue;
  }
  if (prepared_.erase(stmt_id) == 0) {
    AppendErrorFrame(&out, StatusCode::kNotFound,
                     "unknown prepared statement " + std::to_string(stmt_id));
    sink->Write(out);
    return SessionAction::kContinue;
  }
  prepared_live_.store(prepared_.size(), std::memory_order_relaxed);
  AppendDoneFrame(&out, 0, 0);
  sink->Write(out);
  return SessionAction::kContinue;
}

#undef HDB_NET_PARSE

SessionAction Session::RunStatement(const std::string& sql,
                                    const std::vector<Value>& params,
                                    FrameSink* sink) {
  statements_.fetch_add(1, std::memory_order_relaxed);
  Bump(counters_.statements);

  std::string out;
  // Fast-path shedding (DESIGN.md §12): when the admission queue is
  // already deep, joining it would park this worker for the full queue
  // timeout while it serves nobody — under a worker pool far smaller than
  // the connection count that converts overload into a stalled server.
  // Answer kOverloaded immediately instead; the gate's own timeout
  // remains the backstop for statements that did join the queue.
  if (options_.overload_waiting_limit > 0 &&
      db_->options().admission_gate.enabled) {
    const exec::AdmissionGateStats gs = db_->admission_gate().stats();
    if (gs.waiting >= options_.overload_waiting_limit) {
      Bump(counters_.overloads);
      AppendOverloadedFrame(&out, options_.overload_retry_ms,
                            "admission queue depth " +
                                std::to_string(gs.waiting) +
                                " at multiprogramming level");
      sink->Write(out);
      return SessionAction::kContinue;
    }
  }

  // The trace is worker-owned so it brackets Execute AND the result
  // encoding below — a client that stops reading shows up as
  // wait.net_write on this statement, not as unattributed server time.
  // Execute finds it current and opens no entry of its own. The statement
  // ends before its last frames are handed to the connection, so a client
  // holding its reply also finds the statement in sys.statements and the
  // §5 tracer. The handle outlives the scope, so its End (which may run
  // the tracer's sink SQL) sees no current trace.
  bool aborted = false;
  {
    obs::StatementRegistry::Handle stmt = db_->statement_registry().Begin(
        conn_->conn_id(), engine::NormalizeStatement(sql), sql);
    obs::ScopedCurrentTrace trace_scope(stmt.trace());

    Result<engine::QueryResult> result = conn_->Execute(sql, params);
    in_txn_.store(conn_->in_explicit_txn(), std::memory_order_relaxed);
    stmt.set_ok(result.ok());
    if (!result.ok()) {
      WriteStatusFrame(result.status(), &out);
    } else if (const engine::QueryResult& q = *result; !q.columns.empty()) {
      // Result set: header, rows (staged), done.
      std::string payload;
      PutU16(&payload, static_cast<uint16_t>(q.columns.size()));
      for (const std::string& c : q.columns) PutString(&payload, c);
      AppendFrame(&out, Opcode::kRowHeader, payload);
      for (const std::vector<Value>& row : q.rows) {
        payload.clear();
        PutU16(&payload, static_cast<uint16_t>(row.size()));
        for (const Value& v : row) PutValue(&payload, v);
        AppendFrame(&out, Opcode::kRow, payload);
        if (out.size() >= options_.flush_stage_bytes) {
          aborted = !sink->Write(out);
          if (aborted) break;
          out.clear();
        }
      }
      AppendDoneFrame(&out, q.rows_affected, q.rows.size());
    } else if (!q.explain.empty()) {
      // EXPLAIN renders as a one-column result set, one row per line.
      std::string payload;
      PutU16(&payload, 1);
      PutString(&payload, "explain");
      AppendFrame(&out, Opcode::kRowHeader, payload);
      uint64_t lines = 0;
      size_t pos = 0;
      while (pos <= q.explain.size()) {
        size_t nl = q.explain.find('\n', pos);
        if (nl == std::string::npos) nl = q.explain.size();
        payload.clear();
        PutU16(&payload, 1);
        PutValue(&payload, Value::String(q.explain.substr(pos, nl - pos)));
        AppendFrame(&out, Opcode::kRow, payload);
        ++lines;
        pos = nl + 1;
      }
      AppendDoneFrame(&out, 0, lines);
    } else {
      // DML / DDL / transaction control: no result set.
      AppendDoneFrame(&out, q.rows_affected, 0);
    }
  }
  if (aborted || !sink->Write(out)) return SessionAction::kCloseNow;
  return SessionAction::kContinue;
}

void Session::WriteStatusFrame(const Status& s, std::string* out) {
  if (s.code() == StatusCode::kOverloaded) {
    Bump(counters_.overloads);
    AppendOverloadedFrame(out, options_.overload_retry_ms, s.message());
  } else {
    AppendErrorFrame(out, s.code(), s.message());
  }
}

}  // namespace hdb::net
