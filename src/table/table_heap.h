#ifndef HDB_TABLE_TABLE_HEAP_H_
#define HDB_TABLE_TABLE_HEAP_H_

#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "catalog/schema.h"
#include "storage/buffer_pool.h"
#include "table/heap_page.h"
#include "table/row_codec.h"
#include "wal/wal_manager.h"

#include "common/lock_rank.h"

namespace hdb::table {

/// Heap file of slotted pages holding one table's rows. Pages are chained
/// in allocation order (main space, PageType::kTable), so a full scan is a
/// sequential sweep — the access pattern the DTT model prices at band
/// size 1. Row count and page count are maintained live on the TableDef
/// (the paper's real-time table statistics, §3.2).
///
/// Thread safety: the heap carries a table-level reader/writer latch.
/// Page *frames* are latched by the buffer pool, but page *bytes* are
/// written through pinned handles after the pool latch is dropped, so
/// concurrent connections mutating one table's pages must be serialized
/// here. Readers (Get/Scan) take the latch shared, writers
/// (Insert/Delete/Update) exclusive; the latch is held per call, not per
/// statement — transaction-duration isolation is the LockManager's job.
class TableHeap {
 public:
  /// `wal` is nullable: without it (or with logging disabled) the heap
  /// mutates pages silently, which is the pre-WAL behavior and the
  /// HDB_WAL=OFF path. With it, every mutation appends a physiological
  /// record — page/slot position plus row payload — *before* the page
  /// bytes change, stamps the page LSN, and tags the frame so the buffer
  /// pool holds it behind the WAL flush barrier. Transaction attribution
  /// comes from the thread's wal::WalManager::TxnScope.
  TableHeap(storage::BufferPool* pool, catalog::TableDef* def,
            wal::WalManager* wal = nullptr);

  /// Appends an encoded row; returns its Rid.
  Result<Rid> Insert(std::string_view row_bytes);

  /// Reads the row at `rid`.
  Result<std::string> Get(Rid rid) const;

  /// Marks the row deleted. Returns NotFound for dead/invalid rids.
  Status Delete(Rid rid);

  /// In-place update when the new image fits in the old slot; otherwise
  /// delete + re-insert, returning the (possibly new) Rid.
  Result<Rid> Update(Rid rid, std::string_view row_bytes);

  /// Pull-based full scan. The iterator keeps the page it is on pinned
  /// across calls and unpins it when it moves past the page's last slot
  /// (or is destroyed), so a full scan pins each page exactly once
  /// whatever the batch size. Each call still takes the heap's shared
  /// latch and re-reads the page header under it: a concurrent insert may
  /// have added slots or chained a new page since the last call.
  class Iterator {
   public:
    /// Advances to the next live row; false at end of table.
    bool Next(Rid* rid, std::string* row_bytes);

    /// Batched step: decodes up to `max_rows` live rows into
    /// `rows`/`rids`, reusing their Value buffers, with one codec call per
    /// row straight off the pinned page — the scan fast path. Returns the
    /// number of rows produced (0 at end of table); `rows`/`rids` are
    /// grown to `max_rows` but only the first n entries are meaningful.
    /// `decoder` (optional) is a prepared RowDecoder — column pruning plus
    /// fixed-offset decode for scans that reference a subset of the row.
    Result<size_t> NextRows(size_t max_rows, std::vector<Row>* rows,
                            std::vector<Rid>* rids,
                            const RowDecoder* decoder = nullptr);

    /// What one NextRowsIf call did: live rows examined, and how many of
    /// them the gate kept. `examined` is 0 only at end of table.
    struct Step {
      size_t kept = 0;
      size_t examined = 0;
    };

    /// Batched step with a pre-decode gate: `admit(data, len, row)` sees
    /// each live row's encoded bytes in scan order and returns
    /// Result<bool>. A row it keeps it has decoded into `*row` (the next
    /// free entry of `rows`); a row it drops it need never decode. At most
    /// `max_rows` live rows are examined per call, kept or not, so batch
    /// boundaries do not depend on the gate.
    template <typename Admit>
    Result<Step> NextRowsIf(size_t max_rows, std::vector<Row>* rows,
                            std::vector<Rid>* rids, Admit&& admit) {
      if (rows->size() < max_rows) rows->resize(max_rows);
      if (rids->size() < max_rows) rids->resize(max_rows);
      Step step;
      HDB_ASSIGN_OR_RETURN(
          step.examined,
          Walk(max_rows, [&](const char* data, uint16_t len, Rid rid)
                             -> Status {
            HDB_ASSIGN_OR_RETURN(const bool keep,
                                 admit(data, len, &(*rows)[step.kept]));
            if (keep) (*rids)[step.kept++] = rid;
            return Status::OK();
          }));
      return step;
    }

    /// Same batched step, but hands out the raw encoded bytes (string
    /// capacity reused) for consumers that decode elsewhere — the
    /// parallel scan's MorselDispenser (exec/morsel.h).
    Result<size_t> NextBytes(size_t max_rows,
                             std::vector<std::string>* bytes,
                             std::vector<Rid>* rids);

   private:
    friend class TableHeap;
    Iterator(const TableHeap* heap, storage::PageId page)
        : heap_(heap), page_(page) {}

    /// Calls `fn(data, len, rid)` for up to `max_rows` live rows in scan
    /// order, under the heap's shared latch; returns how many it visited.
    template <typename Fn>
    Result<size_t> Walk(size_t max_rows, Fn&& fn) {
      SharedLock latch(heap_->latch_);
      size_t n = 0;
      while (n < max_rows) {
        HDB_ASSIGN_OR_RETURN(const bool more, PinPage());
        if (!more) break;
        const char* page = handle_.data();
        while (n < max_rows && slot_ < slot_count_) {
          const HeapSlot s = ReadHeapSlot(page, slot_);
          const uint16_t current = slot_++;
          if (s.len == 0) continue;
          ++n;
          HDB_RETURN_IF_ERROR(fn(page + s.offset, s.len, Rid{page_, current}));
        }
        if (slot_ >= slot_count_) NextPage();
      }
      return n;
    }

    /// Pins page_ unless already held and reads its slot count and next
    /// page. False at end of table. Caller holds the heap latch.
    Result<bool> PinPage();
    /// Unpins the current page and moves to the next one in the chain.
    void NextPage();

    const TableHeap* heap_;
    storage::PageId page_;
    uint16_t slot_ = 0;
    storage::PageHandle handle_;  // pin on page_, held across calls
    uint16_t slot_count_ = 0;
    storage::PageId next_page_ = storage::kInvalidPageId;
  };

  Iterator Scan() const;

  /// Scans calling `fn(rid, bytes)`; stops early when fn returns false.
  Status ScanAll(
      const std::function<bool(Rid, std::string_view)>& fn) const;

  /// Batched point reads: decodes the rows at `rids[0..n)` into
  /// `(*rows)[0..n)` (buffers reused) under a single shared-latch
  /// acquisition, keeping the current page pinned across consecutive
  /// rids that hit it. NotFound if any rid is dead/invalid.
  Status GetMany(const Rid* rids, size_t n, std::vector<Row>* rows) const;

  catalog::TableDef* def() { return def_; }
  const catalog::TableDef* def() const { return def_; }

 private:
  friend class Iterator;

  // Unlatched bodies; public methods take latch_ and delegate here so
  // Update can compose Delete + Insert under one exclusive acquisition.
  Result<Rid> InsertLocked(std::string_view row_bytes) REQUIRES(latch_);
  Status DeleteLocked(Rid rid) REQUIRES(latch_);

  // Page layout lives in table/heap_page.h, shared with wal/recovery.
  Result<Rid> InsertIntoPage(storage::PageId page_id,
                             std::string_view row_bytes, bool* fit)
      REQUIRES(latch_);
  Status AppendPage() REQUIRES(latch_);

  /// Appends a WAL record for a mutation about to be applied, attributed
  /// to the calling thread's transaction, registering the LSN as in-flight
  /// in `inflight` until the caller has published it to the touched
  /// frame(s) via MarkDirty(lsn) (checkpoint race, see
  /// wal::WalManager::InflightLsn). Returns kNullLsn when logging is off.
  Result<storage::Lsn> LogOp(wal::WalRecordType type, std::string payload,
                             wal::WalManager::InflightLsn* inflight)
      REQUIRES(latch_);

  storage::BufferPool* pool_;
  catalog::TableDef* def_;
  wal::WalManager* wal_;
  mutable RankedSharedMutex<LockRank::kTableHeap> latch_;
};

}  // namespace hdb::table

#endif  // HDB_TABLE_TABLE_HEAP_H_
