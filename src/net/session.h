#ifndef HDB_NET_SESSION_H_
#define HDB_NET_SESSION_H_

// Per-connection protocol state machine (DESIGN.md §12). A Session owns
// one engine::Connection plus everything that must survive between
// readiness events — handshake state, prepared statements, transaction
// state — which is what decouples a client connection from any OS thread:
// N sessions multiplex onto a small worker pool, and a worker only
// touches a session for the duration of one inbound frame (the paper's
// §2.1 cooperative-task model, with epoll readiness instead of fiber
// yields).
//
// Sessions contain no sockets and no locks: the server serializes frame
// handling per connection (one worker at a time), and the codec tests
// drive a Session directly against an in-memory FrameSink.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/wire.h"

namespace hdb::engine {
class Connection;
class Database;
}  // namespace hdb::engine

namespace hdb::obs {
class Counter;
}  // namespace hdb::obs

namespace hdb::net {

/// Where a session's response frames go. The server's sink appends to the
/// connection's write buffer and may block on backpressure (recording a
/// wait.net_write on the current statement trace); tests use a string.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// Returns false when the connection is gone — the caller must abort
  /// serialization (the session stays consistent; the server reaps it).
  virtual bool Write(std::string_view bytes) = 0;
};

/// What the server should do with the connection after a frame.
enum class SessionAction {
  kContinue,         // keep reading
  kCloseAfterFlush,  // flush the write buffer, then close (graceful)
  kCloseNow,         // framing is lost or the peer is gone: close
};

/// Counters shared by all sessions (registered once by the server; null
/// in codec-only tests — mutation helpers below are null-safe).
struct SessionCounters {
  obs::Counter* statements = nullptr;
  obs::Counter* overloads = nullptr;
  obs::Counter* protocol_errors = nullptr;
};

struct SessionOptions {
  /// Prepared statements one connection may hold open.
  size_t max_prepared = 256;
  /// Retry hint stamped into overload frames.
  uint32_t overload_retry_ms = 250;
  /// Fast-path shedding: when this many statements are already queued on
  /// the admission gate, answer kOverloaded immediately instead of
  /// joining the queue (a worker blocked in the queue serves nobody).
  /// 0 disables the fast path (only gate timeouts shed then).
  size_t overload_waiting_limit = 32;
  /// Serialization staging: row frames accumulate to about this many
  /// bytes before each sink Write, so per-row sink overhead (a lock +
  /// an eventfd wake in the server) amortizes across rows.
  size_t flush_stage_bytes = 32 * 1024;
  WireLimits wire;
};

class Session {
 public:
  /// `db` must outlive the session. The engine connection is created
  /// eagerly; a Connect failure is returned so the server can refuse the
  /// socket with an error frame.
  static Result<std::unique_ptr<Session>> Create(engine::Database* db,
                                                 std::string peer,
                                                 SessionOptions options,
                                                 SessionCounters counters);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Handles one inbound frame, appending response frames to `sink`.
  /// Called by exactly one worker at a time (server-serialized).
  SessionAction HandleFrame(const Frame& frame, FrameSink* sink);

  // --- sys.connections row source (any thread) ---------------------------
  uint64_t conn_id() const;  // the engine connection id
  const std::string& peer() const { return peer_; }
  bool handshake_done() const {
    return hello_done_.load(std::memory_order_relaxed);
  }
  bool in_explicit_txn() const {
    return in_txn_.load(std::memory_order_relaxed);
  }
  uint64_t prepared_count() const {
    return prepared_live_.load(std::memory_order_relaxed);
  }
  uint64_t statements_executed() const {
    return statements_.load(std::memory_order_relaxed);
  }

 private:
  Session(engine::Database* db, std::unique_ptr<engine::Connection> conn,
          std::string peer, SessionOptions options, SessionCounters counters);

  SessionAction HandleHello(PayloadReader* in, FrameSink* sink);
  SessionAction HandleQuery(PayloadReader* in, FrameSink* sink);
  SessionAction HandlePrepare(PayloadReader* in, FrameSink* sink);
  SessionAction HandleBind(PayloadReader* in, FrameSink* sink);
  SessionAction HandleExecute(PayloadReader* in, FrameSink* sink);
  SessionAction HandleClosePrepared(PayloadReader* in, FrameSink* sink);

  /// Runs `sql` with `params` bound to its '?' placeholders through the
  /// engine under a statement trace that spans execution AND result
  /// serialization (so write-backpressure stalls attribute to the
  /// statement), streaming result frames to `sink`.
  SessionAction RunStatement(const std::string& sql,
                             const std::vector<Value>& params,
                             FrameSink* sink);

  /// Appends an error frame for `s`; kOverloaded gets the dedicated
  /// overload frame with a retry hint.
  void WriteStatusFrame(const Status& s, std::string* out);

  struct Prepared {
    std::string sql;
    size_t param_count = 0;  // '?' placeholders, counted by the lexer
    std::vector<Value> bound;
  };

  engine::Database* db_;
  std::unique_ptr<engine::Connection> conn_;
  const std::string peer_;
  const SessionOptions options_;
  SessionCounters counters_;

  std::map<uint32_t, Prepared> prepared_;
  uint32_t next_prepared_id_ = 1;

  // Worker-written, any-thread-read (sys.connections).
  std::atomic<bool> hello_done_{false};
  std::atomic<bool> in_txn_{false};
  std::atomic<uint64_t> prepared_live_{0};
  std::atomic<uint64_t> statements_{0};
};

}  // namespace hdb::net

#endif  // HDB_NET_SESSION_H_
