#ifndef HDB_WAL_WAL_MANAGER_H_
#define HDB_WAL_WAL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "wal/wal_record.h"

#include "common/lock_rank.h"

namespace hdb::wal {

struct WalOptions {
  /// Master switch (HDB_WAL=OFF / DatabaseOptions). Off = pre-WAL
  /// behavior: no logging, no recovery, no durability.
  bool enabled = true;
  /// Batch commit fsyncs across sessions through the flusher thread. Off =
  /// every commit pays its own fsync (the bench's single-fsync baseline).
  bool group_commit = true;
};

struct WalStats {
  uint64_t appends = 0;
  uint64_t bytes = 0;
  uint64_t flushes = 0;
  uint64_t syncs = 0;
  uint64_t group_batches = 0;
  uint64_t clr_records = 0;
  storage::Lsn appended_lsn = storage::kNullLsn;
  storage::Lsn durable_lsn = storage::kNullLsn;
  uint64_t bytes_since_checkpoint = 0;
  storage::Lsn last_checkpoint_begin = storage::kNullLsn;
};

/// The write-ahead log (DESIGN.md §7).
///
/// Records are packed into kLog-space pages written *directly* through the
/// DiskManager, bypassing the buffer pool. (Deviation from the paper's
/// pool-resident log pages: the pool's flush barrier calls back into the
/// WAL, so the log living outside the pool breaks the cycle by
/// construction.) Log pages are strictly sequential — page ids 0,1,2,…
/// with no gaps — so a scan from page 0 plus per-record CRCs and an
/// LSN-monotonicity guard recovers exactly the durable prefix.
///
/// Durability contract:
///  - Append() only buffers (and eagerly writes filled pages to the
///    media's cache).
///  - EnsureDurable(lsn) writes the tail page and fsyncs: the
///    WAL-before-data barrier (BufferPool calls it before any data-page
///    write-back) and the checkpoint use this.
///  - WaitDurable(lsn) is the commit path: with group commit on, waiters
///    park on the flusher thread, which fsyncs once per batch.
class WalManager {
 public:
  WalManager(storage::DiskManager* disk, WalOptions options);
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  bool enabled() const { return options_.enabled; }
  bool group_commit() const { return options_.group_commit; }

  /// RAII registration of a logged page mutation whose frame has not yet
  /// been published dirty (PageHandle::MarkDirty(lsn)). While one is held,
  /// MinInflightLsn() reports its LSN, so a concurrent fuzzy checkpoint
  /// cannot record a redo start past a change that is in the log but not
  /// yet visible in the pool's dirty-frame table — the window in which a
  /// committed update would otherwise be silently lost after a crash.
  /// Registered by Append (under the same mutex that orders LSNs, which is
  /// what makes the coverage argument airtight) and released by the caller
  /// after the frame publish.
  class InflightLsn {
   public:
    InflightLsn() = default;
    ~InflightLsn() { Release(); }
    InflightLsn(const InflightLsn&) = delete;
    InflightLsn& operator=(const InflightLsn&) = delete;

    /// Unregisters now (idempotent). Call only after the mutation's frame
    /// has been published via MarkDirty(lsn), or when the mutation was
    /// abandoned before touching any page.
    void Release();

   private:
    friend class WalManager;
    WalManager* wal_ = nullptr;
    storage::Lsn lsn_ = storage::kNullLsn;
  };

  /// Appends a record, returning its LSN. Thread-safe. When `inflight` is
  /// non-null the LSN is registered as an in-flight page mutation (see
  /// InflightLsn); `inflight` must be empty.
  Result<storage::Lsn> Append(WalRecordType type, uint64_t txn_id,
                              std::string payload, uint8_t flags = 0,
                              InflightLsn* inflight = nullptr);

  /// Smallest LSN appended with an InflightLsn still unreleased; kNullLsn
  /// when none. The checkpoint governor folds this into the end record's
  /// min recLSN (read it *before* BufferPool::MinDirtyLsn(): a mutator
  /// publishes its frame before releasing, so that order can only
  /// over-cover, never miss).
  storage::Lsn MinInflightLsn() const;

  /// Makes everything up to `lsn` durable: writes the tail page and fsyncs
  /// the media. No-op when disabled or when there is no durable media.
  /// A flush that advances the durable LSN wakes the group-commit waiters
  /// it covered, so callers must not hold the group-commit mutex.
  Status EnsureDurable(storage::Lsn lsn) EXCLUDES(gc_mu_, flush_mu_);

  /// Commit-path durability. With group commit on, blocks on the flusher
  /// thread's next batched fsync; otherwise EnsureDurable directly.
  Status WaitDurable(storage::Lsn lsn);

  /// Starts the group-commit flusher thread (idempotent; engine calls it
  /// once the database is open).
  void StartFlusher();

  /// Stops the flusher and best-effort flushes the tail (clean shutdown;
  /// errors from a crashed media are swallowed).
  void Shutdown();

  storage::Lsn appended_lsn() const {
    return appended_lsn_.load(std::memory_order_acquire);
  }
  storage::Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  uint64_t log_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  // --- recovery-side interface ------------------------------------------

  struct ScanResult {
    std::vector<WalRecord> records;  // the durable-consistent prefix
    storage::PageId tail_page = storage::kInvalidPageId;
    uint32_t tail_offset = 0;
    storage::Lsn max_lsn = storage::kNullLsn;
    uint64_t max_txn_id = 0;
  };

  /// Scans the log from page 0, torn-tolerant: stops at the first zero
  /// terminator, CRC mismatch, or LSN regression, and reports that point
  /// as the tail to resume writing at.
  Result<ScanResult> ScanLog();

  /// Positions the writer at the recovered tail (before recovery's undo
  /// phase appends CLRs). `next_lsn` must exceed every recovered LSN.
  Status ResumeAt(storage::PageId tail_page, uint32_t tail_offset,
                  storage::Lsn next_lsn);

  // --- checkpoint bookkeeping -------------------------------------------

  uint64_t bytes_since_checkpoint() const {
    return bytes_since_checkpoint_.load(std::memory_order_relaxed);
  }
  storage::Lsn last_checkpoint_begin() const {
    return last_checkpoint_begin_.load(std::memory_order_relaxed);
  }
  /// Called by the checkpoint governor after logging a kCheckpointBegin.
  void NoteCheckpointBegin(storage::Lsn begin_lsn);

  WalStats stats() const;
  void AttachTelemetry(obs::MetricsRegistry* registry);

  // --- per-thread transaction attribution -------------------------------
  // TableHeap runs below the txn layer; the engine brackets DML (and undo
  // application) in a TxnScope so heap ops log under the right txn id.

  struct TxnContext {
    uint64_t txn_id = 0;
    bool clr = false;
  };

  class TxnScope {
   public:
    TxnScope(uint64_t txn_id, bool clr = false);
    ~TxnScope();
    TxnScope(const TxnScope&) = delete;
    TxnScope& operator=(const TxnScope&) = delete;

   private:
    TxnContext prev_;
  };

  static TxnContext CurrentTxn();

 private:
  Status WriteTailPageLocked() REQUIRES(mu_);
  Status AdvancePageLocked() REQUIRES(mu_);
  /// Writes the tail page and fsyncs under flush_mu_, advancing
  /// durable_lsn_ to at least `lsn`.
  Status SyncTo(storage::Lsn lsn) EXCLUDES(flush_mu_);
  /// Wakes every group-commit waiter after durable_lsn_ advanced. Takes
  /// gc_mu_, so callers must not hold flush_mu_ (which ranks above it).
  void WakeCommitters() EXCLUDES(gc_mu_, flush_mu_);
  void FlusherLoop();

  storage::DiskManager* disk_;
  const WalOptions options_;

  // Writer state.
  mutable RankedMutex<LockRank::kWalBuffer> mu_;
  std::vector<char> page_buf_ GUARDED_BY(mu_);
  storage::PageId cur_page_ GUARDED_BY(mu_) = storage::kInvalidPageId;
  uint32_t cur_offset_ GUARDED_BY(mu_) = 0;
  // Bytes appended since last WritePage.
  bool tail_dirty_ GUARDED_BY(mu_) = false;
  storage::Lsn next_lsn_ GUARDED_BY(mu_) = 1;
  // See wal_record.h: bumped per recovery.
  uint32_t epoch_ GUARDED_BY(mu_) = 1;
  // Set by ScanLog, consumed by ResumeAt.
  uint32_t max_epoch_seen_ GUARDED_BY(mu_) = 0;
  // See InflightLsn.
  std::multiset<storage::Lsn> inflight_lsns_ GUARDED_BY(mu_);

  std::atomic<storage::Lsn> appended_lsn_{storage::kNullLsn};
  std::atomic<storage::Lsn> durable_lsn_{storage::kNullLsn};

  // Flush serialization (never held while holding mu_ is fine; the flush
  // path takes flush_mu_ then mu_).
  RankedMutex<LockRank::kWalFlush> flush_mu_;

  // Group commit.
  RankedMutex<LockRank::kWalGroupCommit> gc_mu_;
  std::condition_variable_any gc_work_cv_;   // wakes the flusher
  std::condition_variable_any gc_done_cv_;   // wakes committers
  storage::Lsn gc_target_ GUARDED_BY(gc_mu_) = storage::kNullLsn;
  // Sticky media failure, delivered to all waiters.
  Status gc_error_ GUARDED_BY(gc_mu_);
  bool stop_flusher_ GUARDED_BY(gc_mu_) = false;
  bool flusher_running_ GUARDED_BY(gc_mu_) = false;
  // Joined outside gc_mu_ (Shutdown); started/cleared under it.
  std::thread flusher_;

  // Checkpoint bookkeeping.
  std::atomic<uint64_t> bytes_since_checkpoint_{0};
  std::atomic<storage::Lsn> last_checkpoint_begin_{storage::kNullLsn};

  // Stats.
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> group_batches_{0};
  std::atomic<uint64_t> clr_records_{0};

  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Counter* m_syncs_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
};

}  // namespace hdb::wal

#endif  // HDB_WAL_WAL_MANAGER_H_
