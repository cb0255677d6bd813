#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdb::net {

namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void Bump(obs::Counter* c, uint64_t n = 1) {
  if (c != nullptr && n != 0) c->Add(n);
}

constexpr uint32_t kBaseEvents = EPOLLIN | EPOLLET | EPOLLRDHUP;

}  // namespace

/// Routes a session's response frames into the connection's write buffer,
/// stalling on backpressure. Every Write() payload is a sequence of whole
/// frames (sessions encode complete frames before flushing).
class Server::ConnSink : public FrameSink {
 public:
  ConnSink(Server* server, std::shared_ptr<Conn> conn)
      : server_(server), conn_(std::move(conn)) {}

  bool Write(std::string_view bytes) override {
    {
      UniqueLock<RankedMutex<LockRank::kNetSession>> lock(conn_->mu);
      if (conn_->closed || conn_->aborted) return false;
      if (conn_->buffered() > server_->options_.write_high_water) {
        // The client is not reading fast enough. Park this worker until
        // the event loop drains the buffer — attributed to the statement
        // as wait.net_write — but never forever: a peer that stopped
        // reading entirely gets its connection killed, not a worker.
        Bump(server_->counters_.write_stalls);
        obs::ScopedWait wait(obs::WaitCause::kNetWrite, bytes.size());
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(
                server_->options_.write_stall_timeout_ms);
        // Explicit wait loop rather than a wait_for predicate: the
        // predicate reads mu-guarded connection state, and the analysis
        // checks a lambda as a separate (lock-free) function — the loop
        // keeps the guarded reads here, where `lock` visibly holds
        // conn_->mu. Semantics match wait_for(pred): one final check
        // after a timeout.
        bool drained;
        while (!(drained =
                     conn_->closed || conn_->aborted ||
                     conn_->buffered() <= server_->options_.write_high_water)) {
          if (conn_->write_cv.wait_until(lock, deadline) ==
              std::cv_status::timeout) {
            drained = conn_->closed || conn_->aborted ||
                      conn_->buffered() <= server_->options_.write_high_water;
            break;
          }
        }
        if (conn_->closed || conn_->aborted) return false;
        if (!drained) {
          conn_->aborted = true;
          lock.unlock();
          server_->RequestFlush(conn_);  // event loop sees aborted → close
          return false;
        }
      }
      server_->AppendOutboundLocked(conn_.get(), bytes);
    }
    server_->RequestFlush(conn_);
    return true;
  }

 private:
  Server* server_;
  std::shared_ptr<Conn> conn_;
};

Server::Server(engine::Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      active_conns_(std::make_shared<std::atomic<int64_t>>(0)) {}

Result<std::unique_ptr<Server>> Server::Start(engine::Database* db,
                                              ServerOptions options) {
  std::unique_ptr<Server> server(new Server(db, std::move(options)));
  HDB_RETURN_IF_ERROR(server->Bind());
  server->RegisterTelemetry();
  Server* raw = server.get();
  db->set_net_connection_provider([raw] { return raw->ConnectionInfos(); });
  server->loop_thread_ = std::thread([raw] { raw->EventLoop(); });
  const int workers = std::max(1, raw->options_.workers);
  server->workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    server->workers_.emplace_back([raw] { raw->WorkerLoop(); });
  }
  return server;
}

Server::~Server() { Stop(); }

Status Server::Bind() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Errno("bind " + options_.host + ":" + std::to_string(options_.port));
  }
  if (listen(listen_fd_, 1024) < 0) return Errno("listen");
  HDB_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  shutdown_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || shutdown_fd_ < 0) {
    return Errno("epoll_create1/eventfd");
  }
  for (int fd : {listen_fd_, wake_fd_, shutdown_fd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN | (fd == listen_fd_ ? EPOLLET : 0u);
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Errno("epoll_ctl(ADD)");
    }
  }
  return Status::OK();
}

void Server::RegisterTelemetry() {
  obs::MetricsRegistry& m = db_->metrics();
  counters_.accepted = m.RegisterCounter(obs::kNetConnectionsAccepted);
  counters_.closed = m.RegisterCounter(obs::kNetConnectionsClosed);
  counters_.shed = m.RegisterCounter(obs::kNetConnectionsShed);
  counters_.rejected = m.RegisterCounter(obs::kNetConnectionsRejected);
  counters_.frames_in = m.RegisterCounter(obs::kNetFramesIn);
  counters_.frames_out = m.RegisterCounter(obs::kNetFramesOut);
  counters_.bytes_in = m.RegisterCounter(obs::kNetBytesIn);
  counters_.bytes_out = m.RegisterCounter(obs::kNetBytesOut);
  counters_.write_stalls = m.RegisterCounter(obs::kNetWriteStalls);
  session_counters_.statements = m.RegisterCounter(obs::kNetStatements);
  session_counters_.overloads = m.RegisterCounter(obs::kNetOverloadsSent);
  session_counters_.protocol_errors =
      m.RegisterCounter(obs::kNetProtocolErrors);
  // The callback shares only the counter cell, not `this`: a metrics
  // registry has no unregister, so it may outlive the server.
  std::shared_ptr<std::atomic<int64_t>> active = active_conns_;
  m.RegisterCallback(obs::kNetConnectionsActive, [active] {
    return static_cast<double>(active->load(std::memory_order_relaxed));
  });
}

std::vector<engine::Database::NetConnectionInfo> Server::ConnectionInfos() {
  std::vector<engine::Database::NetConnectionInfo> out;
  LockGuard lock(mu_);
  out.reserve(conns_.size());
  for (const auto& [fd, c] : conns_) {
    engine::Database::NetConnectionInfo info;
    info.conn_id = c->session->conn_id();
    info.peer = c->peer;
    if (draining_.load(std::memory_order_relaxed)) {
      info.state = "draining";
    } else if (c->executing.load(std::memory_order_relaxed)) {
      info.state = "executing";
    } else if (!c->session->handshake_done()) {
      info.state = "handshake";
    } else {
      info.state = "ready";
    }
    info.in_txn = c->session->in_explicit_txn();
    info.prepared = c->session->prepared_count();
    info.statements = c->session->statements_executed();
    info.bytes_in = c->bytes_in.load(std::memory_order_relaxed);
    info.bytes_out = c->bytes_out.load(std::memory_order_relaxed);
    out.push_back(std::move(info));
  }
  return out;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.active = static_cast<size_t>(
      std::max<int64_t>(0, active_conns_->load(std::memory_order_relaxed)));
  return s;
}

void Server::RequestShutdown() {
  // Async-signal-safe: one write on an eventfd, nothing else. The event
  // loop owns the actual drain.
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(shutdown_fd_, &one, sizeof(one));
}

void Server::Stop() {
  if (stopped_.exchange(true)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  RequestShutdown();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    LockGuard lock(mu_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // The provider reaches into this server; detach it before the conn map
  // (and the sessions' engine connections) go away.
  db_->set_net_connection_provider(nullptr);
  {
    // All threads are joined; the lock is uncontended and keeps the
    // guarded-access discipline uniform for the analysis.
    LockGuard lock(mu_);
    conns_.clear();
  }
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_, &shutdown_fd_}) {
    if (*fd >= 0) close(*fd);
    *fd = -1;
  }
}

// --- Event loop ------------------------------------------------------------

void Server::EventLoop() {
  uint64_t drain_deadline_ms = 0;
  std::vector<epoll_event> events(256);
  for (;;) {
    const int n = epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only happens on teardown
    }
    const uint64_t now = NowMs();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == shutdown_fd_) {
        uint64_t tok;
        while (read(shutdown_fd_, &tok, sizeof(tok)) > 0) {
        }
        if (!draining_.load(std::memory_order_relaxed)) {
          drain_deadline_ms = now + options_.drain_timeout_ms;
          BeginDrain();
        }
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t tok;
        while (read(wake_fd_, &tok, sizeof(tok)) > 0) {
        }
        std::vector<std::shared_ptr<Conn>> pending;
        {
          LockGuard lock(mu_);
          pending.swap(flush_queue_);
        }
        for (const std::shared_ptr<Conn>& c : pending) FlushConn(c);
        continue;
      }
      std::shared_ptr<Conn> c;
      {
        LockGuard lock(mu_);
        const auto it = conns_.find(fd);
        if (it != conns_.end()) c = it->second;
      }
      if (!c) continue;  // closed earlier in this batch
      if (ev & (EPOLLHUP | EPOLLERR)) {
        CloseConn(c);
        continue;
      }
      if (ev & EPOLLOUT) FlushConn(c);
      if (ev & (EPOLLIN | EPOLLRDHUP)) ReadConn(c);
    }

    if (options_.idle_timeout_ms > 0 &&
        !draining_.load(std::memory_order_relaxed)) {
      ShedIdle(now);
    }
    if (draining_.load(std::memory_order_relaxed)) {
      bool empty;
      {
        LockGuard lock(mu_);
        empty = conns_.empty();
      }
      if (empty) break;
      if (NowMs() >= drain_deadline_ms) {
        // Drain deadline passed: force-close stragglers.
        std::vector<std::shared_ptr<Conn>> all;
        {
          LockGuard lock(mu_);
          for (const auto& [cfd, conn] : conns_) all.push_back(conn);
        }
        for (const std::shared_ptr<Conn>& c : all) CloseConn(c);
        break;
      }
    }
  }
  // Unblock any backpressure waiters for good: no more draining happens.
  std::vector<std::shared_ptr<Conn>> all;
  {
    LockGuard lock(mu_);
    for (const auto& [fd, c] : conns_) all.push_back(c);
  }
  for (const std::shared_ptr<Conn>& c : all) CloseConn(c);
  loop_done_.store(true, std::memory_order_release);
}

void Server::AcceptPending() {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd = accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                           &len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or listen fd already closed for drain
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    char ip[INET_ADDRSTRLEN] = "?";
    inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
    const std::string peer =
        std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));

    size_t active;
    {
      LockGuard lock(mu_);
      active = conns_.size();
    }
    if (active >= options_.max_connections ||
        draining_.load(std::memory_order_relaxed)) {
      // Refuse with a structured overload frame rather than a silent
      // close — the client sees *why* and backs off (acceptance: no hung
      // sockets under overload). Best-effort write; the frame is tiny.
      // Counted before the write: a client that reads the frame may
      // check the counter straight away.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Bump(counters_.rejected);
      std::string out;
      AppendOverloadedFrame(&out, options_.session.overload_retry_ms,
                            "server at max_connections");
      [[maybe_unused]] ssize_t w = write(fd, out.data(), out.size());
      close(fd);
      continue;
    }

    Result<std::unique_ptr<Session>> session =
        Session::Create(db_, peer, options_.session, session_counters_);
    if (!session.ok()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Bump(counters_.rejected);
      std::string out;
      AppendErrorFrame(&out, session.status().code(),
                       session.status().message());
      [[maybe_unused]] ssize_t w = write(fd, out.data(), out.size());
      close(fd);
      continue;
    }

    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->peer = peer;
    c->session = std::move(*session);
    c->assembler = FrameAssembler(options_.session.wire);
    c->last_activity_ms.store(NowMs(), std::memory_order_relaxed);

    epoll_event ev{};
    ev.events = kBaseEvents;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      continue;
    }
    {
      LockGuard lock(mu_);
      conns_.emplace(fd, std::move(c));
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    Bump(counters_.accepted);
    active_conns_->fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::ReadConn(const std::shared_ptr<Conn>& c) {
  if (c->fd < 0) return;
  char buf[64 * 1024];
  bool peer_gone = false;
  uint64_t total = 0;
  for (;;) {
    const ssize_t n = read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      total += static_cast<uint64_t>(n);
      LockGuard lock(c->mu);
      c->assembler.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      peer_gone = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      peer_gone = true;
    }
    break;
  }
  if (total > 0) {
    c->bytes_in.fetch_add(total, std::memory_order_relaxed);
    Bump(counters_.bytes_in, total);
    c->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
    bool enqueue = false;
    {
      LockGuard lock(c->mu);
      if (!c->busy && !c->queued && !c->closing && !c->closed) {
        c->queued = true;
        enqueue = true;
      }
    }
    if (enqueue) {
      {
        LockGuard lock(mu_);
        work_queue_.push_back(c);
      }
      work_cv_.notify_one();
    }
  }
  if (peer_gone) CloseConn(c);
}

void Server::ArmWrite(const std::shared_ptr<Conn>& c, bool want) {
  if (c->fd < 0 || c->want_write == want) return;
  epoll_event ev{};
  ev.events = kBaseEvents | (want ? EPOLLOUT : 0u);
  ev.data.fd = c->fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
    c->want_write = want;
  }
}

void Server::FlushConn(const std::shared_ptr<Conn>& c) {
  bool close_now = false;
  uint64_t written_total = 0;
  {
    UniqueLock<RankedMutex<LockRank::kNetSession>> lock(c->mu);
    if (c->closed) return;
    if (c->aborted) {
      close_now = true;
    } else {
      while (c->write_pos < c->write_buf.size()) {
        const ssize_t n =
            write(c->fd, c->write_buf.data() + c->write_pos, c->buffered());
        if (n > 0) {
          c->write_pos += static_cast<size_t>(n);
          written_total += static_cast<uint64_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        close_now = true;  // EPIPE / ECONNRESET / ...
        break;
      }
      if (c->write_pos == c->write_buf.size()) {
        c->write_buf.clear();
        c->write_pos = 0;
        if (c->closing) close_now = true;
      }
    }
    if (written_total > 0) {
      c->bytes_out.fetch_add(written_total, std::memory_order_relaxed);
    }
    if (!close_now) {
      ArmWrite(c, c->buffered() > 0);
      if (c->buffered() <= options_.write_high_water) {
        c->write_cv.notify_all();  // backpressure waiters
      }
    }
  }
  if (written_total > 0) Bump(counters_.bytes_out, written_total);
  if (close_now) CloseConn(c);
}

void Server::CloseConn(const std::shared_ptr<Conn>& c) {
  {
    LockGuard lock(c->mu);
    if (c->closed) return;
    c->closed = true;
    if (c->fd >= 0) {
      epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
      close(c->fd);
    }
    c->write_cv.notify_all();  // abort any backpressure waiter
  }
  {
    LockGuard lock(mu_);
    conns_.erase(c->fd);
  }
  c->fd = -1;
  closed_.fetch_add(1, std::memory_order_relaxed);
  Bump(counters_.closed);
  active_conns_->fetch_sub(1, std::memory_order_relaxed);
}

void Server::BeginDrain() {
  draining_.store(true, std::memory_order_relaxed);
  // Stop accepting: deregister + close the listen socket. Connections in
  // the backlog get RST; established ones get a Goodbye below.
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Conn>> all;
  {
    LockGuard lock(mu_);
    for (const auto& [fd, c] : conns_) all.push_back(c);
  }
  for (const std::shared_ptr<Conn>& c : all) {
    {
      LockGuard lock(c->mu);
      if (c->closed || c->goodbye_sent) continue;
      if (c->busy) continue;  // its worker appends the Goodbye when done
      std::string out;
      AppendGoodbyeFrame(&out, "server draining");
      AppendOutboundLocked(c.get(), out);
      c->goodbye_sent = true;
      c->closing = true;
    }
    FlushConn(c);
  }
}

void Server::ShedIdle(uint64_t now_ms) {
  std::vector<std::shared_ptr<Conn>> victims;
  {
    LockGuard lock(mu_);
    for (const auto& [fd, c] : conns_) {
      const uint64_t last = c->last_activity_ms.load(std::memory_order_relaxed);
      if (now_ms >= last && now_ms - last >= options_.idle_timeout_ms) {
        victims.push_back(c);
      }
    }
  }
  for (const std::shared_ptr<Conn>& c : victims) {
    {
      LockGuard lock(c->mu);
      if (c->closed || c->closing || c->busy || c->queued ||
          c->buffered() > 0) {
        continue;
      }
      std::string out;
      AppendGoodbyeFrame(&out, "idle timeout");
      AppendOutboundLocked(c.get(), out);
      c->goodbye_sent = true;
      c->closing = true;
    }
    shed_.fetch_add(1, std::memory_order_relaxed);
    Bump(counters_.shed);
    FlushConn(c);
  }
}

// --- Workers ---------------------------------------------------------------

void Server::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Conn> c;
    {
      UniqueLock<RankedMutex<LockRank::kNetServer>> lock(mu_);
      // Explicit wait loop: the predicate reads mu_-guarded state (see
      // ConnSink::Write for the lambda-analysis rationale).
      while (!(workers_stop_ || !work_queue_.empty())) {
        work_cv_.wait(lock);
      }
      if (workers_stop_ && work_queue_.empty()) return;
      c = std::move(work_queue_.front());
      work_queue_.pop_front();
      // Claim the connection before dropping mu_ so a concurrent enqueue
      // can't hand it to a second worker (nested 16 → 17 acquisition).
      LockGuard conn_lock(c->mu);
      c->queued = false;
      if (c->busy || c->closed || c->closing) continue;
      c->busy = true;
    }
    ProcessConn(c);
  }
}

void Server::ProcessConn(const std::shared_ptr<Conn>& c) {
  ConnSink sink(this, c);
  bool request_flush = false;
  for (;;) {
    std::string payload;
    uint8_t opcode = 0;
    bool have_frame = false;
    {
      LockGuard lock(c->mu);
      if (c->closed || c->closing) {
        c->busy = false;
        break;
      }
      Result<std::optional<Frame>> next = c->assembler.Next();
      if (!next.ok()) {
        // Framing violation — resynchronization is impossible. Answer,
        // say goodbye, close.
        Bump(session_counters_.protocol_errors);
        std::string out;
        AppendErrorFrame(&out, StatusCode::kInvalidArgument,
                         next.status().message());
        AppendGoodbyeFrame(&out, "protocol violation");
        AppendOutboundLocked(c.get(), out);
        c->goodbye_sent = true;
        c->closing = true;
        c->busy = false;
        request_flush = true;
        break;
      }
      if (!next->has_value()) {
        // Drained. If a drain started while we were executing, this
        // worker owes the connection its Goodbye.
        if (draining_.load(std::memory_order_relaxed) && !c->goodbye_sent) {
          std::string out;
          AppendGoodbyeFrame(&out, "server draining");
          AppendOutboundLocked(c.get(), out);
          c->goodbye_sent = true;
          c->closing = true;
          request_flush = true;
        }
        c->busy = false;
        break;
      }
      have_frame = true;
      opcode = (*next)->opcode;
      payload.assign((*next)->payload);
      c->executing.store(true, std::memory_order_relaxed);
    }
    if (!have_frame) break;
    Bump(counters_.frames_in);
    // SQL runs here with no net locks held: the engine's latches (DDL,
    // admission gate, ...) rank below kNetSession, and a blocked
    // statement must not stall the event loop's Feed() on this conn.
    Frame frame{opcode, payload};
    const SessionAction action = c->session->HandleFrame(frame, &sink);
    c->executing.store(false, std::memory_order_relaxed);
    c->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
    if (action != SessionAction::kContinue) {
      LockGuard lock(c->mu);
      c->closing = true;
      c->busy = false;
      request_flush = true;
      break;
    }
  }
  if (request_flush) RequestFlush(c);
}

void Server::RequestFlush(const std::shared_ptr<Conn>& c) {
  bool wake;
  {
    LockGuard lock(mu_);
    flush_queue_.push_back(c);
    wake = flush_queue_.size() == 1;
  }
  if (wake) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

void Server::AppendOutboundLocked(Conn* c, std::string_view bytes) {
  // `bytes` is always a sequence of complete frames; walk the length
  // prefixes to keep net.frames_out honest without a second code path.
  uint64_t frames = 0;
  size_t pos = 0;
  while (pos + 4 <= bytes.size()) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(
                 static_cast<uint8_t>(bytes[pos + static_cast<size_t>(i)]))
             << (8 * i);
    }
    pos += 4 + static_cast<size_t>(len);
    ++frames;
  }
  Bump(counters_.frames_out, frames);
  c->write_buf.append(bytes.data(), bytes.size());
}

}  // namespace hdb::net
