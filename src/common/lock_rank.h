#ifndef HDB_COMMON_LOCK_RANK_H_
#define HDB_COMMON_LOCK_RANK_H_

// Ranked-mutex layer: every latch in the engine is declared with an explicit
// LockRank, and (in HDB_LOCK_RANK_ENABLED builds) a per-thread held-rank
// stack aborts the process the moment any thread acquires locks out of
// hierarchy order — naming both the held site and the offending site. With
// the check disabled the wrappers compile down to bare std::mutex /
// std::shared_mutex / std::recursive_mutex with zero overhead.
//
// The rank values encode the engine's global acquisition order (outermost =
// lowest). The full table, with what each latch protects and why it sits
// where it does, lives in DESIGN.md §8; keep the two in sync.

#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

#if defined(HDB_LOCK_RANK_ENABLED)
#include <source_location>
#endif

namespace hdb {

// Lower rank = acquired earlier (outermost). A thread may only acquire a
// lock whose rank is strictly greater than every rank it already holds,
// with two documented exceptions (see OnAcquire): shared locks may stack at
// the same rank (two table scans in one query), and recursive-mutex ranks
// may re-enter their own rank (histogram self/dual locking).
enum class LockRank : uint16_t {
  kCatalogDdl = 10,         // engine/database.h ddl_mu_ (DDL vs statements)
  kMetricsRegistry = 15,    // obs/metrics.h (Snapshot calls subsystem stats())
  kNetServer = 16,          // net/server.h mu_ (conn map, work queue, flush
                            // set; above kMetricsRegistry: net gauge
                            // callbacks run under the registry's Snapshot)
  kNetSession = 17,         // net/server.cc per-connection Conn::mu (read/
                            // write buffers, pending frames, backpressure
                            // cv). Never held across engine Execute — the
                            // worker drains frames, releases, then runs SQL
  kAdmissionGate = 20,      // exec/admission_gate.h (MPL queue + cv)
  kEngineObjects = 25,      // engine/database.h objects_mu_ (heap/index maps)
  kCatalog = 30,            // catalog/catalog.h (schema maps)
  kCheckpointGovernor = 40, // wal/checkpoint_governor.h (fuzzy ckpt runner)
  kPoolGovernor = 45,       // storage/pool_governor.h (resize decisions)
  kTaskMemory = 50,         // exec/memory_governor.h (per-task consumers)
  kMplController = 55,      // exec/mpl_controller.h (MPL poll state)
  kLockManager = 60,        // txn/lock_manager.h (row-lock ext. hash table)
  kTxnManager = 65,         // txn/transaction.h (txn table + redo append)
  kParallelDispenser = 68,  // exec/morsel.h (morsel dispenser; advances the
                            // heap iterator — which latches the heap per
                            // morsel — inside its critical section)
  kTableHeap = 70,          // table/table_heap.h latch_ (heap pages/chain)
  kIndex = 75,              // index/btree.h latch_ (tree structure)
  kStatsRegistry = 80,      // stats/stats_registry.h (column stats map)
  kHistogram = 85,          // stats/histogram.h (recursive; dual-lock joins)
  kProcStats = 88,          // stats/proc_stats.h (procedure cost EMAs)
  kParallelQueue = 93,      // exec/exchange.cc (worker→coordinator packet
                            // queue; pushed/popped holding no other lock)
  kParallelMerge = 95,      // exec/exchange.cc (partial merge + crew error)
  kBufferPool = 100,        // storage/buffer_pool.h (frames + page table)
  kWalGroupCommit = 110,    // wal/wal_manager.h gc_mu_ (commit batching)
  kWalFlush = 115,          // wal/wal_manager.h flush_mu_ (flush sections)
  kWalBuffer = 120,         // wal/wal_manager.h mu_ (log tail + append)
  kDiskManager = 130,       // storage/disk_manager.h (page I/O + bitmap)
  kStableStorage = 140,     // os/stable_storage.h (fault-injecting medium)
  kMemoryEnv = 145,         // os/memory_env.h (working-set accounting)
  kDecisionLog = 150,       // obs/decision_log.h (governor decision ring)
  kTracer = 155,            // profile/tracer.h (trace event buffer)
  kNetProvider = 160,       // engine/database.h net_provider_mu_
                            // (sys.connections provider pointer)
  kStatementRegistry = 168, // obs/trace.h (active/slow/shape maps)
  kStatementTrace = 170,    // obs/trace.h per-statement span tree; highest
                            // rank so any subsystem can record a wait while
                            // holding its own latch
};

// Human-readable name for abort reports and DESIGN.md cross-reference.
const char* LockRankName(LockRank rank);

#if defined(HDB_LOCK_RANK_ENABLED)
using LockSite = std::source_location;
#define HDB_LOCK_SITE ::std::source_location::current()
#else
// Zero-size stand-in so lock()/guard signatures are identical in both
// builds; the compiler erases it entirely.
struct LockSite {};
#define HDB_LOCK_SITE ::hdb::LockSite {}
#endif

namespace lock_rank_internal {

// How an acquisition participates in the rank check.
enum class LockMode : uint8_t {
  kExclusive,  // rank must be strictly greater than every held rank
  kShared,     // same-rank stacking allowed iff all holders at it are shared
  kRecursive,  // same-rank re-entry allowed (even on the same mutex)
};

#if defined(HDB_LOCK_RANK_ENABLED)
// Validates the acquisition against this thread's held stack and pushes it;
// on violation prints both sites and aborts. `mutex` is identity only.
void OnAcquire(const void* mutex, LockRank rank, LockMode mode,
               const LockSite& site);
// Pops the topmost held entry for `mutex`; aborts if this thread does not
// hold it (release on the wrong thread, double unlock).
void OnRelease(const void* mutex);
#else
inline void OnAcquire(const void*, LockRank, LockMode, const LockSite&) {}
inline void OnRelease(const void*) {}
#endif

}  // namespace lock_rank_internal

// --- Mutex wrappers -------------------------------------------------------
//
// The lock()/try_lock()/unlock() methods take a defaulted LockSite so the
// *caller's* file:line is what a violation report names. Always acquire
// through the guard types below (or a defaulted call site); never pass an
// explicit site except when forwarding one (UniqueLock re-lock).
//
// Each wrapper is a Clang Thread Safety Analysis CAPABILITY and each guard
// a SCOPED_CAPABILITY (common/thread_annotations.h), so `GUARDED_BY(mu_)`
// fields and `REQUIRES(mu_)` helpers are checked at compile time on every
// path — the static complement of the runtime rank stack above.

template <LockRank R>
class CAPABILITY("mutex") RankedMutex {
 public:
  RankedMutex() = default;
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock(LockSite site = HDB_LOCK_SITE) ACQUIRE() {
    lock_rank_internal::OnAcquire(this, R,
                                  lock_rank_internal::LockMode::kExclusive,
                                  site);
    mu_.lock();
  }
  bool try_lock(LockSite site = HDB_LOCK_SITE) TRY_ACQUIRE(true) {
    // Check first: a try_lock that *would* deadlock if it ever contended is
    // still a hierarchy bug, and checking unconditionally keeps detection
    // deterministic rather than interleaving-dependent.
    lock_rank_internal::OnAcquire(this, R,
                                  lock_rank_internal::LockMode::kExclusive,
                                  site);
    if (mu_.try_lock()) return true;
    lock_rank_internal::OnRelease(this);
    return false;
  }
  void unlock() RELEASE() {
    lock_rank_internal::OnRelease(this);
    mu_.unlock();
  }

  static constexpr LockRank rank() { return R; }

 private:
  std::mutex mu_;
};

template <LockRank R>
class CAPABILITY("shared_mutex") RankedSharedMutex {
 public:
  RankedSharedMutex() = default;
  RankedSharedMutex(const RankedSharedMutex&) = delete;
  RankedSharedMutex& operator=(const RankedSharedMutex&) = delete;

  void lock(LockSite site = HDB_LOCK_SITE) ACQUIRE() {
    lock_rank_internal::OnAcquire(this, R,
                                  lock_rank_internal::LockMode::kExclusive,
                                  site);
    mu_.lock();
  }
  void unlock() RELEASE() {
    lock_rank_internal::OnRelease(this);
    mu_.unlock();
  }
  void lock_shared(LockSite site = HDB_LOCK_SITE) ACQUIRE_SHARED() {
    lock_rank_internal::OnAcquire(
        this, R, lock_rank_internal::LockMode::kShared, site);
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
    lock_rank_internal::OnRelease(this);
    mu_.unlock_shared();
  }

  static constexpr LockRank rank() { return R; }

 private:
  std::shared_mutex mu_;
};

// NOTE: Clang's analysis has no notion of re-entrant acquisition, so
// same-thread re-entry on one RankedRecursiveMutex — legal at runtime —
// would be flagged as a double acquire. The engine's only recursive rank
// (kHistogram) therefore keeps its re-entry confined behind
// Histogram::Lock()/dual-lock helpers whose bodies opt out of the
// analysis; callers still see ordinary ACQUIRE/RELEASE contracts.
template <LockRank R>
class CAPABILITY("recursive_mutex") RankedRecursiveMutex {
 public:
  RankedRecursiveMutex() = default;
  RankedRecursiveMutex(const RankedRecursiveMutex&) = delete;
  RankedRecursiveMutex& operator=(const RankedRecursiveMutex&) = delete;

  void lock(LockSite site = HDB_LOCK_SITE) ACQUIRE() {
    lock_rank_internal::OnAcquire(this, R,
                                  lock_rank_internal::LockMode::kRecursive,
                                  site);
    mu_.lock();
  }
  void unlock() RELEASE() {
    lock_rank_internal::OnRelease(this);
    mu_.unlock();
  }

  static constexpr LockRank rank() { return R; }

 private:
  std::recursive_mutex mu_;
};

// --- Guard types ----------------------------------------------------------
//
// std::lock_guard-family over a ranked mutex would capture the defaulted
// source_location inside the STL header, so the engine uses these instead.
// They are deliberately minimal: exactly the operations the engine needs.
//
// Each guard is a SCOPED_CAPABILITY so Clang's analysis tracks the lock it
// manages through its whole lifetime, including manual unlock()/lock()
// windows. The member bodies that re-lock through the stored pointer are
// NO_THREAD_SAFETY_ANALYSIS: the guard itself is the trusted base of the
// analysis (the attribute, not the body, is the contract — the same
// arrangement absl::Mutex ships with), and the runtime rank checker still
// validates every one of these paths.

// Scoped exclusive lock (std::lock_guard equivalent).
template <typename MutexT>
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(MutexT& mu, LockSite site = HDB_LOCK_SITE) ACQUIRE(mu)
      : mu_(mu) {
    mu_.lock(site);
  }
  ~LockGuard() RELEASE() { mu_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  MutexT& mu_;
};

// Scoped shared lock (std::shared_lock-as-guard equivalent).
template <typename MutexT>
class SCOPED_CAPABILITY SharedLockGuard {
 public:
  explicit SharedLockGuard(MutexT& mu, LockSite site = HDB_LOCK_SITE)
      ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared(site);
  }
  ~SharedLockGuard() RELEASE_GENERIC() { mu_.unlock_shared(); }
  SharedLockGuard(const SharedLockGuard&) = delete;
  SharedLockGuard& operator=(const SharedLockGuard&) = delete;

 private:
  MutexT& mu_;
};

// Movable exclusive lock (std::unique_lock equivalent): supports defer/try
// construction, manual unlock()/lock() (condition-variable waits, the buffer
// pool's drop-the-latch-around-the-fsync-barrier dance), and move. Re-locks
// report the guard's original construction site.
template <typename MutexT>
class SCOPED_CAPABILITY UniqueLock {
 public:
  UniqueLock() = default;
  explicit UniqueLock(MutexT& mu, LockSite site = HDB_LOCK_SITE) ACQUIRE(mu)
      : mu_(&mu), site_(site) {
    mu_->lock(site_);
    owns_ = true;
  }
  UniqueLock(MutexT& mu, std::defer_lock_t, LockSite site = HDB_LOCK_SITE)
      EXCLUDES(mu)
      : mu_(&mu), site_(site) {}
  // Adopts a mutex the caller already locked (via a successful try_lock):
  // the analysis transfers the held capability into this guard.
  UniqueLock(MutexT& mu, std::adopt_lock_t, LockSite site = HDB_LOCK_SITE)
      REQUIRES(mu)
      : mu_(&mu), site_(site) {
    owns_ = true;
  }
  ~UniqueLock() RELEASE_GENERIC() {
    if (owns_) mu_->unlock();
  }
  // Moves transfer ownership the analysis cannot follow (scoped facts are
  // per-object); the runtime rank checker still sees the eventual unlock.
  UniqueLock(UniqueLock&& other) noexcept
      : mu_(other.mu_), site_(other.site_), owns_(other.owns_) {
    other.mu_ = nullptr;
    other.owns_ = false;
  }
  UniqueLock& operator=(UniqueLock&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) {
      if (owns_) mu_->unlock();
      mu_ = other.mu_;
      site_ = other.site_;
      owns_ = other.owns_;
      other.mu_ = nullptr;
      other.owns_ = false;
    }
    return *this;
  }

  void lock() ACQUIRE() NO_THREAD_SAFETY_ANALYSIS {
    mu_->lock(site_);
    owns_ = true;
  }
  void unlock() RELEASE() NO_THREAD_SAFETY_ANALYSIS {
    mu_->unlock();
    owns_ = false;
  }
  bool owns_lock() const { return owns_; }

 private:
  MutexT* mu_ = nullptr;
  LockSite site_{};
  bool owns_ = false;
};

// Movable shared lock (std::shared_lock equivalent).
template <typename MutexT>
class SCOPED_CAPABILITY SharedLock {
 public:
  SharedLock() = default;
  explicit SharedLock(MutexT& mu, LockSite site = HDB_LOCK_SITE)
      ACQUIRE_SHARED(mu)
      : mu_(&mu), site_(site) {
    mu_->lock_shared(site_);
    owns_ = true;
  }
  ~SharedLock() RELEASE_GENERIC() {
    if (owns_) mu_->unlock_shared();
  }
  SharedLock(SharedLock&& other) noexcept
      : mu_(other.mu_), site_(other.site_), owns_(other.owns_) {
    other.mu_ = nullptr;
    other.owns_ = false;
  }
  SharedLock& operator=(SharedLock&& other) noexcept
      NO_THREAD_SAFETY_ANALYSIS {
    if (this != &other) {
      if (owns_) mu_->unlock_shared();
      mu_ = other.mu_;
      site_ = other.site_;
      owns_ = other.owns_;
      other.mu_ = nullptr;
      other.owns_ = false;
    }
    return *this;
  }

  void lock() ACQUIRE_SHARED() NO_THREAD_SAFETY_ANALYSIS {
    mu_->lock_shared(site_);
    owns_ = true;
  }
  void unlock() RELEASE_SHARED() NO_THREAD_SAFETY_ANALYSIS {
    mu_->unlock_shared();
    owns_ = false;
  }
  bool owns_lock() const { return owns_; }

 private:
  MutexT* mu_ = nullptr;
  LockSite site_{};
  bool owns_ = false;
};

}  // namespace hdb

#endif  // HDB_COMMON_LOCK_RANK_H_
