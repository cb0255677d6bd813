#include "wal/wal_manager.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace hdb::wal {

namespace {

// How long the flusher lingers after waking so concurrent commits join the
// same fsync. The virtual-clock fsync is instantaneous in real time, so
// without a window no batch would ever form; 100µs of real time is far
// cheaper than the device fsync it amortizes.
constexpr auto kGroupCommitWindow = std::chrono::microseconds(100);

thread_local WalManager::TxnContext tls_txn;

}  // namespace

WalManager::TxnScope::TxnScope(uint64_t txn_id, bool clr) : prev_(tls_txn) {
  tls_txn = TxnContext{txn_id, clr};
}

WalManager::TxnScope::~TxnScope() { tls_txn = prev_; }

WalManager::TxnContext WalManager::CurrentTxn() { return tls_txn; }

WalManager::WalManager(storage::DiskManager* disk, WalOptions options)
    : disk_(disk), options_(options) {
  page_buf_.assign(disk_->page_bytes(), 0);
}

WalManager::~WalManager() { Shutdown(); }

Status WalManager::AdvancePageLocked() {
  const storage::PageId next =
      cur_page_ == storage::kInvalidPageId ? 0 : cur_page_ + 1;
  // Log pages are strictly sequential; EnsureAllocated (not AllocatePage)
  // keeps the id stream gapless even when reopening over media whose page
  // count already extends past the recovered tail.
  disk_->EnsureAllocated(storage::SpaceId::kLog, next);
  cur_page_ = next;
  cur_offset_ = 0;
  tail_dirty_ = false;
  std::memset(page_buf_.data(), 0, page_buf_.size());
  return Status::OK();
}

Status WalManager::WriteTailPageLocked() {
  if (cur_page_ == storage::kInvalidPageId || !tail_dirty_) {
    return Status::OK();
  }
  HDB_RETURN_IF_ERROR(
      disk_->WritePage(storage::SpaceId::kLog, cur_page_, page_buf_.data()));
  tail_dirty_ = false;
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void WalManager::InflightLsn::Release() {
  if (wal_ == nullptr) return;
  {
    LockGuard lock(wal_->mu_);
    const auto it = wal_->inflight_lsns_.find(lsn_);
    if (it != wal_->inflight_lsns_.end()) wal_->inflight_lsns_.erase(it);
  }
  wal_ = nullptr;
  lsn_ = storage::kNullLsn;
}

storage::Lsn WalManager::MinInflightLsn() const {
  LockGuard lock(mu_);
  return inflight_lsns_.empty() ? storage::kNullLsn : *inflight_lsns_.begin();
}

Result<storage::Lsn> WalManager::Append(WalRecordType type, uint64_t txn_id,
                                        std::string payload, uint8_t flags,
                                        InflightLsn* inflight) {
  if (!options_.enabled) return storage::kNullLsn;
  const uint32_t need = kWalHeaderBytes + static_cast<uint32_t>(payload.size());
  if (need > disk_->page_bytes() || payload.size() > 0xffff) {
    return Status::InvalidArgument("wal record larger than a log page");
  }

  LockGuard lock(mu_);
  if (cur_page_ == storage::kInvalidPageId ||
      cur_offset_ + need > disk_->page_bytes()) {
    HDB_RETURN_IF_ERROR(WriteTailPageLocked());
    HDB_RETURN_IF_ERROR(AdvancePageLocked());
  }
  const storage::Lsn lsn = next_lsn_++;

  char* base = page_buf_.data() + cur_offset_;
  const auto len = static_cast<uint16_t>(payload.size());
  const auto type_byte = static_cast<uint8_t>(type);
  std::memcpy(base + 4, &len, 2);
  std::memcpy(base + 6, &type_byte, 1);
  std::memcpy(base + 7, &flags, 1);
  std::memcpy(base + 8, &epoch_, 4);
  std::memcpy(base + 12, &lsn, 8);
  std::memcpy(base + 20, &txn_id, 8);
  std::memcpy(base + kWalHeaderBytes, payload.data(), payload.size());
  const uint32_t crc = Crc32(base + 4, need - 4);
  std::memcpy(base, &crc, 4);

  cur_offset_ += need;
  tail_dirty_ = true;
  appended_lsn_.store(lsn, std::memory_order_release);
  if (inflight != nullptr && inflight->wal_ == nullptr) {
    // Registered under mu_, i.e. strictly before any later-LSN append —
    // including a checkpoint's kCheckpointBegin. See InflightLsn.
    inflight->wal_ = this;
    inflight->lsn_ = lsn;
    inflight_lsns_.insert(lsn);
  }

  appends_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(need, std::memory_order_relaxed);
  bytes_since_checkpoint_.fetch_add(need, std::memory_order_relaxed);
  if ((flags & kWalFlagClr) != 0) {
    clr_records_.fetch_add(1, std::memory_order_relaxed);
  }
  if (m_appends_ != nullptr) m_appends_->Add(1);
  if (m_bytes_ != nullptr) m_bytes_->Add(need);
  return lsn;
}

Status WalManager::EnsureDurable(storage::Lsn lsn) {
  if (!options_.enabled || lsn == storage::kNullLsn) return Status::OK();
  if (disk_->media() == nullptr) return Status::OK();
  if (durable_lsn() >= lsn) return Status::OK();

  // Fast paths are done: this thread is about to pay a real flush (or wait
  // for one in flight). The flusher thread has no statement trace; a
  // statement thread arriving here (direct commit, or the buffer pool's
  // WAL-before-data barrier) records the wait against itself.
  obs::ScopedWait durable_wait(obs::WaitCause::kWalDurable, lsn);
  const storage::Lsn before = durable_lsn();
  const Status st = SyncTo(lsn);
  // Whoever advances durable_lsn_ wakes the committers, not only the
  // flusher: a direct call (checkpoint, WAL-before-data barrier) can cover
  // a group-commit target between a committer's wakeup of the flusher and
  // the flusher's re-check, and the flusher then finds nothing to do.
  if (durable_lsn() > before) WakeCommitters();
  return st;
}

Status WalManager::SyncTo(storage::Lsn lsn) {
  LockGuard flush_lock(flush_mu_);
  if (durable_lsn() >= lsn) return Status::OK();
  storage::Lsn target;
  {
    LockGuard lock(mu_);
    target = appended_lsn_.load(std::memory_order_relaxed);
    HDB_RETURN_IF_ERROR(WriteTailPageLocked());
  }
  HDB_RETURN_IF_ERROR(disk_->Sync());
  syncs_.fetch_add(1, std::memory_order_relaxed);
  if (m_syncs_ != nullptr) m_syncs_->Add(1);
  // `target` may undercount records that raced in after the snapshot and
  // reached the media inside this sync — undercounting durability is the
  // safe direction.
  storage::Lsn cur = durable_lsn_.load(std::memory_order_relaxed);
  while (cur < target && !durable_lsn_.compare_exchange_weak(
                             cur, target, std::memory_order_release)) {
  }
  return durable_lsn() >= lsn
             ? Status::OK()
             : Status::Internal("wal flush did not reach requested lsn");
}

void WalManager::WakeCommitters() {
  // Notifying under gc_mu_ orders the wake after any committer's
  // predicate check: a committer either already sleeps or re-reads
  // durable_lsn_ after this.
  LockGuard gl(gc_mu_);
  gc_done_cv_.notify_all();
}

Status WalManager::WaitDurable(storage::Lsn lsn) {
  if (!options_.enabled || lsn == storage::kNullLsn) return Status::OK();
  if (disk_->media() == nullptr) return Status::OK();
  if (!options_.group_commit) return EnsureDurable(lsn);

  UniqueLock gl(gc_mu_);
  if (!flusher_running_) {
    gl.unlock();
    return EnsureDurable(lsn);
  }
  if (durable_lsn() >= lsn) return Status::OK();
  if (!gc_error_.ok()) return gc_error_;
  obs::ScopedWait durable_wait(obs::WaitCause::kWalDurable, lsn);
  gc_target_ = std::max(gc_target_, lsn);
  gc_work_cv_.notify_one();
  // Explicit wait loop rather than a predicate lambda: the predicate reads
  // gc_mu_-guarded state, and the analysis checks a lambda as a separate
  // (lock-free) function — the loop keeps the guarded reads in this scope,
  // where gl visibly holds gc_mu_.
  while (!(durable_lsn() >= lsn || !gc_error_.ok() || stop_flusher_)) {
    gc_done_cv_.wait(gl);
  }
  if (durable_lsn() >= lsn) return Status::OK();
  if (!gc_error_.ok()) return gc_error_;
  return Status::Aborted("wal flusher stopped before commit became durable");
}

void WalManager::StartFlusher() {
  if (!options_.enabled || !options_.group_commit) return;
  LockGuard gl(gc_mu_);
  if (flusher_running_) return;
  stop_flusher_ = false;
  flusher_running_ = true;
  flusher_ = std::thread([this] { FlusherLoop(); });
}

void WalManager::FlusherLoop() {
  UniqueLock gl(gc_mu_);
  while (true) {
    // Explicit wait loop (see WaitDurable): keeps the gc_mu_-guarded reads
    // in a scope where the analysis can see the lock held.
    while (!(stop_flusher_ || gc_target_ > durable_lsn())) {
      gc_work_cv_.wait(gl);
    }
    if (stop_flusher_) break;
    gl.unlock();
    // Linger so commits arriving "while the fsync is in flight" join this
    // batch rather than paying their own.
    std::this_thread::sleep_for(kGroupCommitWindow);
    const storage::Lsn target = appended_lsn();
    const Status st = EnsureDurable(target);
    gl.lock();
    group_batches_.fetch_add(1, std::memory_order_relaxed);
    if (m_batches_ != nullptr) m_batches_->Add(1);
    if (!st.ok()) {
      if (gc_error_.ok()) gc_error_ = st;
      gc_target_ = durable_lsn();  // don't spin on a dead media
    }
    gc_done_cv_.notify_all();
  }
  gc_done_cv_.notify_all();
}

void WalManager::Shutdown() {
  {
    LockGuard gl(gc_mu_);
    stop_flusher_ = true;
    gc_work_cv_.notify_all();
    gc_done_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  {
    LockGuard gl(gc_mu_);
    flusher_running_ = false;
  }
  // Best-effort tail flush on clean shutdown; a crashed media just fails.
  if (options_.enabled && disk_->media() != nullptr) {
    IgnoreError(EnsureDurable(appended_lsn()));
  }
}

Result<WalManager::ScanResult> WalManager::ScanLog() {
  ScanResult res;
  if (!options_.enabled || disk_->media() == nullptr) return res;
  const uint64_t npages = disk_->NumPages(storage::SpaceId::kLog);
  const uint32_t page_bytes = disk_->page_bytes();
  std::vector<char> buf(page_bytes);
  storage::Lsn last_lsn = storage::kNullLsn;
  uint32_t last_epoch = 0;

  for (uint64_t page = 0; page < npages; ++page) {
    bool torn = false;
    HDB_RETURN_IF_ERROR(disk_->ReadPageAllowTorn(
        storage::SpaceId::kLog, static_cast<storage::PageId>(page), buf.data(),
        &torn));
    // A torn page is still parsed: record CRCs identify the valid prefix
    // (tail rewrites only append, so previously synced records are
    // byte-identical in both the old and new sector mix).
    uint32_t off = 0;
    bool terminated = false;
    const size_t records_before_page = res.records.size();
    while (off + kWalHeaderBytes <= page_bytes) {
      const char* base = buf.data() + off;
      uint32_t crc;
      uint16_t len;
      uint8_t type_byte, flags;
      uint32_t epoch;
      storage::Lsn lsn;
      uint64_t txn_id;
      std::memcpy(&crc, base, 4);
      std::memcpy(&len, base + 4, 2);
      std::memcpy(&type_byte, base + 6, 1);
      std::memcpy(&flags, base + 7, 1);
      std::memcpy(&epoch, base + 8, 4);
      std::memcpy(&lsn, base + 12, 8);
      std::memcpy(&txn_id, base + 20, 8);
      if (type_byte == 0) {
        terminated = true;
        break;
      }
      const uint32_t need = kWalHeaderBytes + len;
      if (off + need > page_bytes ||
          Crc32(base + 4, need - 4) != crc ||
          lsn != last_lsn + 1 || epoch < last_epoch) {
        terminated = true;
        break;
      }
      WalRecord rec;
      rec.lsn = lsn;
      rec.txn_id = txn_id;
      rec.epoch = epoch;
      rec.type = static_cast<WalRecordType>(type_byte);
      rec.flags = flags;
      rec.payload.assign(base + kWalHeaderBytes, len);
      res.records.push_back(std::move(rec));
      last_lsn = lsn;
      last_epoch = epoch;
      res.max_txn_id = std::max(res.max_txn_id, txn_id);
      off += need;
    }
    // A page that yielded nothing is the end of the log (or, past page 0,
    // an orphan from a dropped batch): the tail stays on the previous
    // page. A page that yielded records becomes the new tail — even if it
    // ends in a terminator, because the writer zero-fills the remainder of
    // a page whenever the next record does not fit and continues on the
    // following page. The next iteration peeks at that page; the CRC +
    // LSN-continuity + epoch checks above accept it only if it really
    // chains, so stale orphan pages beyond the true end still terminate
    // the scan here.
    if (terminated && res.records.size() == records_before_page && page > 0) {
      break;
    }
    res.tail_page = static_cast<storage::PageId>(page);
    res.tail_offset = off;
  }
  res.max_lsn = last_lsn;
  {
    // Recovery runs single-threaded, but max_epoch_seen_ is writer state
    // under mu_ (ResumeAt consumes it there); publish it under the lock so
    // the handoff does not depend on the single-threaded assumption.
    LockGuard lock(mu_);
    max_epoch_seen_ = last_epoch;
  }
  return res;
}

Status WalManager::ResumeAt(storage::PageId tail_page, uint32_t tail_offset,
                            storage::Lsn next_lsn) {
  LockGuard lock(mu_);
  next_lsn_ = next_lsn;
  appended_lsn_.store(next_lsn - 1, std::memory_order_release);
  durable_lsn_.store(storage::kNullLsn, std::memory_order_release);
  epoch_ = max_epoch_seen_ + 1;
  if (tail_page == storage::kInvalidPageId) {
    cur_page_ = storage::kInvalidPageId;
    cur_offset_ = 0;
    tail_dirty_ = false;
    return Status::OK();
  }
  bool torn = false;
  HDB_RETURN_IF_ERROR(disk_->ReadPageAllowTorn(storage::SpaceId::kLog,
                                               tail_page, page_buf_.data(),
                                               &torn));
  // Scrub everything past the valid prefix so garbage (or a torn mix)
  // never reappears behind freshly appended records.
  if (tail_offset < page_buf_.size()) {
    std::memset(page_buf_.data() + tail_offset, 0,
                page_buf_.size() - tail_offset);
  }
  cur_page_ = tail_page;
  cur_offset_ = tail_offset;
  tail_dirty_ = true;  // the scrubbed tail must reach the media again
  return Status::OK();
}

void WalManager::NoteCheckpointBegin(storage::Lsn begin_lsn) {
  last_checkpoint_begin_.store(begin_lsn, std::memory_order_relaxed);
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
}

WalStats WalManager::stats() const {
  WalStats s;
  s.appends = appends_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.syncs = syncs_.load(std::memory_order_relaxed);
  s.group_batches = group_batches_.load(std::memory_order_relaxed);
  s.clr_records = clr_records_.load(std::memory_order_relaxed);
  s.appended_lsn = appended_lsn();
  s.durable_lsn = durable_lsn();
  s.bytes_since_checkpoint = bytes_since_checkpoint();
  s.last_checkpoint_begin = last_checkpoint_begin();
  return s;
}

void WalManager::AttachTelemetry(obs::MetricsRegistry* registry) {
  m_appends_ = registry->RegisterCounter(obs::kWalAppends);
  m_bytes_ = registry->RegisterCounter(obs::kWalBytes);
  m_syncs_ = registry->RegisterCounter(obs::kWalFsyncs);
  m_batches_ = registry->RegisterCounter(obs::kWalGroupCommitBatches);
  registry->RegisterCallback(obs::kWalDurableLsn, [this] {
    return static_cast<double>(durable_lsn());
  });
  registry->RegisterCallback(obs::kWalAppendedLsn, [this] {
    return static_cast<double>(appended_lsn());
  });
  registry->RegisterCallback(obs::kWalBytesSinceCheckpoint, [this] {
    return static_cast<double>(bytes_since_checkpoint());
  });
}

}  // namespace hdb::wal
