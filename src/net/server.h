#ifndef HDB_NET_SERVER_H_
#define HDB_NET_SERVER_H_

// Epoll front end (DESIGN.md §12): one event-loop thread owns every
// socket (edge-triggered, nonblocking) and a small worker pool executes
// statements, so thousands of idle connections cost the server nothing
// but a Session each — the MPL gate, not the connection count, bounds
// concurrent execution (paper §2.1, Eq. (5)).
//
// Threading:
//   event loop   accepts, reads into each connection's FrameAssembler,
//                writes out each connection's write buffer, closes fds.
//                It is the only thread that touches a socket.
//   workers      pop a ready connection, drain its complete frames
//                through Session::HandleFrame (which runs SQL under the
//                admission gate), and append response bytes to the
//                connection's write buffer. A worker never holds the
//                connection mutex across engine execution — engine locks
//                rank below kNetSession.
//   backpressure a worker whose connection's write buffer is over the
//                high-water mark sleeps on the connection's cv until the
//                event loop drains it (recorded as wait.net_write on the
//                statement's trace); a stall past the timeout kills the
//                connection instead of hanging the worker forever.
//
// Overload: admission-gate timeouts surface as kOverloaded frames; a deep
// admission queue is shed *before* queueing (Session fast path); sockets
// past max_connections are refused with an overload frame at accept.
// Idle connections past idle_timeout_ms get a Goodbye and a close.
// RequestShutdown() (async-signal-safe — SIGTERM handlers call it) stops
// accepting, sends every connection a Goodbye, flushes, and exits the
// loop once drained or at drain_timeout_ms.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "engine/database.h"
#include "net/session.h"

namespace hdb::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  uint16_t port = 0;
  /// Statement-executing workers. Sized to CPUs, not connections: the MPL
  /// gate inside the engine is the real concurrency bound.
  int workers = 2;
  /// Accept cap; sockets past it are refused with an overload frame.
  size_t max_connections = 4096;
  /// 0 disables idle shedding.
  uint64_t idle_timeout_ms = 0;
  /// How long a SIGTERM drain waits for connections to flush and go.
  uint64_t drain_timeout_ms = 2000;
  /// Write-buffer high-water mark: workers stall (wait.net_write) above it.
  size_t write_high_water = 4u << 20;
  /// A backpressure stall longer than this kills the connection — a
  /// client that stopped reading must not pin a worker forever.
  uint64_t write_stall_timeout_ms = 30'000;
  SessionOptions session;
};

/// Point-in-time server counters (tests and the bench read these; the
/// same values export as net.* metrics).
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
  size_t active = 0;
};

class Server {
 public:
  /// Binds, registers net.* metrics and the sys.connections provider on
  /// `db`, and starts the event loop + workers. `db` must outlive the
  /// server; stop the server before closing the database (the provider
  /// and metric callbacks reach into it, like a profiler subscriber).
  static Result<std::unique_ptr<Server>> Start(engine::Database* db,
                                               ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }

  /// Begins a graceful drain. Async-signal-safe (one eventfd write) —
  /// this is the SIGTERM handler's call. Returns immediately; the event
  /// loop drains connections in the background.
  void RequestShutdown();

  /// RequestShutdown + join everything. Idempotent; ~Server calls it.
  void Stop();

  /// True once the event loop has fully drained and exited.
  bool finished() const { return loop_done_.load(std::memory_order_acquire); }

  ServerStats stats() const;

 private:
  /// Per-connection state. The fd and epoll registration belong to the
  /// event-loop thread; everything under `mu` (rank kNetSession) is shared
  /// between the event loop and whichever worker currently owns the
  /// connection's frames. The atomics at the bottom are read lock-free by
  /// stats()/sys.connections. Defined here (not in the .cc) so the
  /// annotations below can name `mu` from Server's method declarations.
  struct Conn {
    int fd = -1;  // event-loop thread only; -1 once closed
    std::string peer;
    std::unique_ptr<Session> session;

    RankedMutex<LockRank::kNetSession> mu;
    std::condition_variable_any write_cv;  // backpressure waiters
    FrameAssembler assembler GUARDED_BY(mu);
    std::string write_buf GUARDED_BY(mu);
    size_t write_pos GUARDED_BY(mu) = 0;
    // A worker is draining this conn's frames.
    bool busy GUARDED_BY(mu) = false;
    bool queued GUARDED_BY(mu) = false;   // sitting in work_queue_
    bool closing GUARDED_BY(mu) = false;  // close once the write buf drains
    bool goodbye_sent GUARDED_BY(mu) = false;
    // Stalled past the write timeout: hard close.
    bool aborted GUARDED_BY(mu) = false;
    bool closed GUARDED_BY(mu) = false;  // fd is gone; sinks must fail
    bool want_write = false;  // EPOLLOUT armed (event-loop thread only)

    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> last_activity_ms{0};
    std::atomic<bool> executing{false};

    size_t buffered() const REQUIRES(mu) {
      return write_buf.size() - write_pos;
    }
  };
  class ConnSink;

  Server(engine::Database* db, ServerOptions options);

  Status Bind();
  void RegisterTelemetry();
  std::vector<engine::Database::NetConnectionInfo> ConnectionInfos();

  void EventLoop();
  void WorkerLoop();

  // --- Event-loop internals (event thread only unless noted) ------------
  void AcceptPending();
  void ReadConn(const std::shared_ptr<Conn>& c);
  void FlushConn(const std::shared_ptr<Conn>& c);
  void CloseConn(const std::shared_ptr<Conn>& c);
  void BeginDrain();
  void ShedIdle(uint64_t now_ms);
  void ArmWrite(const std::shared_ptr<Conn>& c, bool want);

  // --- Worker-side helpers ----------------------------------------------
  /// Drains the connection's buffered frames through its Session.
  void ProcessConn(const std::shared_ptr<Conn>& c);
  /// Queues `c` for the event loop to write out (any thread).
  void RequestFlush(const std::shared_ptr<Conn>& c);
  /// Appends encoded frames to the write buffer; caller holds c->mu.
  void AppendOutboundLocked(Conn* c, std::string_view bytes)
      REQUIRES(c->mu);

  engine::Database* db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;      // worker → event loop (flush requests)
  int shutdown_fd_ = -1;  // RequestShutdown → event loop (signal-safe)
  uint16_t port_ = 0;

  std::thread loop_thread_;
  std::vector<std::thread> workers_;

  mutable RankedMutex<LockRank::kNetServer> mu_;
  std::condition_variable_any work_cv_;
  std::map<int, std::shared_ptr<Conn>> conns_ GUARDED_BY(mu_);  // by fd
  std::deque<std::shared_ptr<Conn>> work_queue_ GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Conn>> flush_queue_ GUARDED_BY(mu_);
  bool workers_stop_ GUARDED_BY(mu_) = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> loop_done_{false};

  // Mirrored into net.* metrics; kept as atomics so stats() and the
  // sys.connections provider read without extra locking.
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> rejected_{0};
  /// Shared with the net.connections_active metric callback so the
  /// callback outliving the server (registries have no unregister) reads
  /// a zeroed count, not freed memory.
  std::shared_ptr<std::atomic<int64_t>> active_conns_;

  struct Counters {
    obs::Counter* accepted = nullptr;
    obs::Counter* closed = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* frames_in = nullptr;
    obs::Counter* frames_out = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* write_stalls = nullptr;
  } counters_;
  SessionCounters session_counters_;
};

}  // namespace hdb::net

#endif  // HDB_NET_SERVER_H_
