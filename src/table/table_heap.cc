#include "table/table_heap.h"

#include <cstring>
#include <optional>
#include <utility>

#include "wal/wal_record.h"

namespace hdb::table {

// Slotted page layout: see table/heap_page.h (shared with wal/recovery).
//
// WAL protocol for every mutator below: encode the physiological record,
// append it to the log *before* touching the page bytes, then apply the
// change, stamp the page LSN, and MarkDirty(lsn) so the buffer pool's
// flush barrier orders the page write behind the log. All of this happens
// under the heap's exclusive latch, so record order in the log matches
// byte order on the page. The append-to-MarkDirty window is bracketed by
// a wal::WalManager::InflightLsn guard: a fuzzy checkpoint firing from
// another connection inside that window would otherwise see the pinned
// frame as clean, record a redo start past our LSN, and lose the change
// if the process crashed before the frame was flushed.

TableHeap::TableHeap(storage::BufferPool* pool, catalog::TableDef* def,
                     wal::WalManager* wal)
    : pool_(pool), def_(def), wal_(wal) {}

Result<storage::Lsn> TableHeap::LogOp(wal::WalRecordType type,
                                      std::string payload,
                                      wal::WalManager::InflightLsn* inflight) {
  if (wal_ == nullptr || !wal_->enabled()) return storage::kNullLsn;
  const wal::WalManager::TxnContext ctx = wal::WalManager::CurrentTxn();
  return wal_->Append(type, ctx.txn_id, std::move(payload),
                      ctx.clr ? wal::kWalFlagClr : uint8_t{0}, inflight);
}

Status TableHeap::AppendPage() {
  storage::PageId id = storage::kInvalidPageId;
  HDB_ASSIGN_OR_RETURN(
      storage::PageHandle h,
      pool_->NewPage(storage::SpaceId::kMain, storage::PageType::kTable,
                     def_->oid, &id));
  wal::WalManager::InflightLsn inflight;
  HDB_ASSIGN_OR_RETURN(
      const storage::Lsn lsn,
      LogOp(wal::WalRecordType::kHeapAppendPage,
            wal::EncodeHeapAppendPage(def_->oid, id, def_->last_page),
            &inflight));
  InitHeapPage(h.data(), pool_->page_bytes());
  storage::SetPageLsn(h.data(), lsn);
  h.MarkDirty(lsn);

  if (def_->last_page != storage::kInvalidPageId) {
    HDB_ASSIGN_OR_RETURN(
        storage::PageHandle prev,
        pool_->FetchPage(
            storage::SpacePageId{storage::SpaceId::kMain, def_->last_page},
            storage::PageType::kTable, def_->oid));
    HeapPageHeader ph = ReadHeapHeader(prev.data());
    ph.next_page = id;
    // One record covers both pages: replay re-links prev the same way.
    if (lsn > ph.lsn) ph.lsn = lsn;
    WriteHeapHeader(prev.data(), ph);
    prev.MarkDirty(lsn);
  } else {
    def_->first_page = id;
  }
  def_->last_page = id;
  def_->page_count++;
  return Status::OK();
}

Result<Rid> TableHeap::InsertIntoPage(storage::PageId page_id,
                                      std::string_view row_bytes, bool* fit) {
  HDB_ASSIGN_OR_RETURN(
      storage::PageHandle h,
      pool_->FetchPage(storage::SpacePageId{storage::SpaceId::kMain, page_id},
                       storage::PageType::kTable, def_->oid));
  HeapPageHeader header = ReadHeapHeader(h.data());
  const size_t used_top = kHeapHeaderBytes + header.slot_count * kHeapSlotBytes;
  const size_t need = row_bytes.size() + kHeapSlotBytes;
  if (used_top + need > header.free_end) {
    *fit = false;
    return Rid{};
  }
  *fit = true;
  const auto new_end =
      static_cast<uint16_t>(header.free_end - row_bytes.size());
  const uint16_t slot_index = header.slot_count;
  wal::WalManager::InflightLsn inflight;
  HDB_ASSIGN_OR_RETURN(
      const storage::Lsn lsn,
      LogOp(wal::WalRecordType::kHeapInsert,
            wal::EncodeHeapInsert(def_->oid, page_id, slot_index, new_end,
                                  row_bytes),
            &inflight));
  std::memcpy(h.data() + new_end, row_bytes.data(), row_bytes.size());
  WriteHeapSlot(h.data(), slot_index,
                HeapSlot{new_end, static_cast<uint16_t>(row_bytes.size())});
  header.slot_count++;
  header.free_end = new_end;
  if (lsn > header.lsn) header.lsn = lsn;
  WriteHeapHeader(h.data(), header);
  h.MarkDirty(lsn);
  return Rid{page_id, slot_index};
}

Result<Rid> TableHeap::Insert(std::string_view row_bytes) {
  UniqueLock latch(latch_);
  return InsertLocked(row_bytes);
}

Result<Rid> TableHeap::InsertLocked(std::string_view row_bytes) {
  if (row_bytes.size() + kHeapHeaderBytes + kHeapSlotBytes >
      pool_->page_bytes()) {
    return Status::InvalidArgument("row larger than a page");
  }
  if (row_bytes.empty()) return Status::InvalidArgument("empty row");
  if (def_->last_page == storage::kInvalidPageId) {
    HDB_RETURN_IF_ERROR(AppendPage());
  }
  bool fit = false;
  HDB_ASSIGN_OR_RETURN(Rid rid,
                       InsertIntoPage(def_->last_page, row_bytes, &fit));
  if (!fit) {
    HDB_RETURN_IF_ERROR(AppendPage());
    HDB_ASSIGN_OR_RETURN(rid, InsertIntoPage(def_->last_page, row_bytes, &fit));
    if (!fit) return Status::Internal("row does not fit in a fresh page");
  }
  def_->row_count++;
  return rid;
}

Result<std::string> TableHeap::Get(Rid rid) const {
  SharedLock latch(latch_);
  HDB_ASSIGN_OR_RETURN(
      storage::PageHandle h,
      pool_->FetchPage(
          storage::SpacePageId{storage::SpaceId::kMain, rid.page_id},
          storage::PageType::kTable, def_->oid));
  const HeapPageHeader header = ReadHeapHeader(h.data());
  if (rid.slot >= header.slot_count) return Status::NotFound("bad rid slot");
  const HeapSlot s = ReadHeapSlot(h.data(), rid.slot);
  if (s.len == 0) return Status::NotFound("deleted row");
  return std::string(h.data() + s.offset, s.len);
}

Status TableHeap::Delete(Rid rid) {
  UniqueLock latch(latch_);
  return DeleteLocked(rid);
}

Status TableHeap::DeleteLocked(Rid rid) {
  HDB_ASSIGN_OR_RETURN(
      storage::PageHandle h,
      pool_->FetchPage(
          storage::SpacePageId{storage::SpaceId::kMain, rid.page_id},
          storage::PageType::kTable, def_->oid));
  HeapPageHeader header = ReadHeapHeader(h.data());
  if (rid.slot >= header.slot_count) return Status::NotFound("bad rid slot");
  HeapSlot s = ReadHeapSlot(h.data(), rid.slot);
  if (s.len == 0) return Status::NotFound("row already deleted");
  wal::WalManager::InflightLsn inflight;
  HDB_ASSIGN_OR_RETURN(
      const storage::Lsn lsn,
      LogOp(wal::WalRecordType::kHeapDelete,
            wal::EncodeHeapDelete(
                def_->oid, rid.page_id, rid.slot, s.offset,
                std::string_view(h.data() + s.offset, s.len)),
            &inflight));
  s.len = 0;
  WriteHeapSlot(h.data(), rid.slot, s);
  if (lsn > header.lsn) {
    header.lsn = lsn;
    WriteHeapHeader(h.data(), header);
  }
  h.MarkDirty(lsn);
  if (def_->row_count > 0) def_->row_count--;
  return Status::OK();
}

Result<Rid> TableHeap::Update(Rid rid, std::string_view row_bytes) {
  UniqueLock latch(latch_);
  {
    HDB_ASSIGN_OR_RETURN(
        storage::PageHandle h,
        pool_->FetchPage(
            storage::SpacePageId{storage::SpaceId::kMain, rid.page_id},
            storage::PageType::kTable, def_->oid));
    HeapPageHeader header = ReadHeapHeader(h.data());
    if (rid.slot >= header.slot_count) {
      return Status::NotFound("bad rid slot");
    }
    HeapSlot s = ReadHeapSlot(h.data(), rid.slot);
    if (s.len == 0) return Status::NotFound("deleted row");
    if (row_bytes.size() <= s.len) {
      wal::WalManager::InflightLsn inflight;
      HDB_ASSIGN_OR_RETURN(
          const storage::Lsn lsn,
          LogOp(wal::WalRecordType::kHeapUpdate,
                wal::EncodeHeapUpdate(
                    def_->oid, rid.page_id, rid.slot, s.offset,
                    std::string_view(h.data() + s.offset, s.len), row_bytes),
                &inflight));
      std::memcpy(h.data() + s.offset, row_bytes.data(), row_bytes.size());
      s.len = static_cast<uint16_t>(row_bytes.size());
      WriteHeapSlot(h.data(), rid.slot, s);
      if (lsn > header.lsn) {
        header.lsn = lsn;
        WriteHeapHeader(h.data(), header);
      }
      h.MarkDirty(lsn);
      return rid;
    }
  }
  // Grown row: delete + re-insert, two records, both inverted on undo.
  HDB_RETURN_IF_ERROR(DeleteLocked(rid));
  return InsertLocked(row_bytes);
}

TableHeap::Iterator TableHeap::Scan() const {
  SharedLock latch(latch_);
  return Iterator(this, def_->first_page);
}

Result<bool> TableHeap::Iterator::PinPage() {
  if (page_ == storage::kInvalidPageId) return false;
  if (!handle_.valid()) {
    HDB_ASSIGN_OR_RETURN(
        handle_, heap_->pool_->FetchPage(
                     storage::SpacePageId{storage::SpaceId::kMain, page_},
                     storage::PageType::kTable, heap_->def_->oid));
  }
  const HeapPageHeader header = ReadHeapHeader(handle_.data());
  slot_count_ = header.slot_count;
  next_page_ = header.next_page;
  return true;
}

void TableHeap::Iterator::NextPage() {
  handle_.Release();
  page_ = next_page_;
  slot_ = 0;
}

bool TableHeap::Iterator::Next(Rid* rid, std::string* row_bytes) {
  // Latched per step, not per scan: a long scan must not starve writers,
  // and the executor's pull loop may interleave DML on other tables.
  auto n = Walk(1, [&](const char* data, uint16_t len, Rid at) {
    *rid = at;
    row_bytes->assign(data, len);
    return Status::OK();
  });
  return n.ok() && *n == 1;
}

Result<size_t> TableHeap::Iterator::NextRows(size_t max_rows,
                                             std::vector<Row>* rows,
                                             std::vector<Rid>* rids,
                                             const RowDecoder* decoder) {
  const catalog::TableDef& schema = *heap_->def_;
  HDB_ASSIGN_OR_RETURN(
      const Step step,
      NextRowsIf(max_rows, rows, rids,
                 [&](const char* data, size_t len, Row* row) -> Result<bool> {
                   HDB_RETURN_IF_ERROR(
                       decoder != nullptr
                           ? decoder->DecodeInto(data, len, row)
                           : DecodeRowInto(schema, data, len, row));
                   return true;
                 }));
  return step.kept;
}

Result<size_t> TableHeap::Iterator::NextBytes(size_t max_rows,
                                              std::vector<std::string>* bytes,
                                              std::vector<Rid>* rids) {
  if (bytes->size() < max_rows) bytes->resize(max_rows);
  if (rids->size() < max_rows) rids->resize(max_rows);
  size_t n = 0;
  HDB_RETURN_IF_ERROR(
      Walk(max_rows, [&](const char* data, uint16_t len, Rid rid) {
        (*bytes)[n].assign(data, len);
        (*rids)[n++] = rid;
        return Status::OK();
      }).status());
  return n;
}

Status TableHeap::GetMany(const Rid* rids, size_t n,
                          std::vector<Row>* rows) const {
  if (rows->size() < n) rows->resize(n);
  SharedLock latch(latch_);
  storage::PageId cur = storage::kInvalidPageId;
  std::optional<storage::PageHandle> h;
  for (size_t i = 0; i < n; ++i) {
    const Rid rid = rids[i];
    if (rid.page_id != cur || !h.has_value()) {
      HDB_ASSIGN_OR_RETURN(
          storage::PageHandle fetched,
          pool_->FetchPage(
              storage::SpacePageId{storage::SpaceId::kMain, rid.page_id},
              storage::PageType::kTable, def_->oid));
      h.emplace(std::move(fetched));
      cur = rid.page_id;
    }
    const HeapPageHeader header = ReadHeapHeader(h->data());
    if (rid.slot >= header.slot_count) return Status::NotFound("bad rid slot");
    const HeapSlot s = ReadHeapSlot(h->data(), rid.slot);
    if (s.len == 0) return Status::NotFound("deleted row");
    HDB_RETURN_IF_ERROR(
        DecodeRowInto(*def_, h->data() + s.offset, s.len, &(*rows)[i]));
  }
  return Status::OK();
}

Status TableHeap::ScanAll(
    const std::function<bool(Rid, std::string_view)>& fn) const {
  Iterator it = Scan();
  Rid rid;
  std::string bytes;
  while (it.Next(&rid, &bytes)) {
    if (!fn(rid, bytes)) break;
  }
  return Status::OK();
}

}  // namespace hdb::table
