#ifndef HDB_EXEC_ROW_BATCH_H_
#define HDB_EXEC_ROW_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"
#include "optimizer/expr.h"
#include "table/row_codec.h"

namespace hdb::exec {

/// Default rows-per-batch for the vectorized executor (DESIGN.md §9).
/// ExecContext::batch_cap overrides it; the memory governor can shrink the
/// effective cap per operator under low-memory strategies.
inline constexpr size_t kDefaultBatchCap = 1024;
/// Selection-vector entries are uint16_t, so a batch never exceeds this.
inline constexpr size_t kMaxBatchCap = 65535;

/// A batch of rows flowing through the vectorized executor (DESIGN.md §9).
///
/// Layout: one pointer column per RowContext slot (quantifier slots plus
/// the group-by pseudo-slot), where each entry points at a decoded
/// table::Row owned by the producing operator's reusable pool. A batch is
/// therefore a struct-of-slot-pointers view, not a value copy: producers
/// bind only the slots they fill (BindSlot), and consumers materialize one
/// position into a RowContext with a handful of pointer stores (BindRow).
///
/// Filtering never moves rows — it compacts the selection vector
/// (MutableSel/SetSelection), so a filter pass over 1024 rows writes at
/// most 1024 uint16s. NextBatch may legally return a batch whose
/// ActiveCount() is 0 (everything filtered); consumers iterate actives.
///
/// Lifetime contract: slot pointers are valid until the producing operator
/// is asked for its next batch (or closed). Operators that hold rows
/// across batch boundaries (hash build sides, sorts) must copy.
class RowBatch {
 public:
  RowBatch(size_t num_slots, size_t capacity,
           const std::vector<std::pair<std::string, Value>>* params)
      : cap_(std::min(std::max<size_t>(capacity, 1), kMaxBatchCap)),
        params_(params),
        cols_(num_slots),
        bound_(num_slots, 0) {}

  size_t capacity() const { return cap_; }
  size_t num_slots() const { return cols_.size(); }
  const std::vector<std::pair<std::string, Value>>* params() const {
    return params_;
  }

  /// Empties the batch for refill. Pointer columns and the output column
  /// keep their storage (that reuse is the point).
  void Reset() {
    size_ = 0;
    sel_size_ = 0;
    identity_ = true;
    has_output_ = false;
    for (const uint16_t s : bound_list_) bound_[s] = 0;
    bound_list_.clear();
  }

  // --- Producer side ---

  /// Marks slot `s` bound for this batch and returns its pointer column
  /// (capacity() entries). Every position in [0, size) must be filled.
  const table::Row** BindSlot(size_t s) {
    if (cols_[s].size() < cap_) cols_[s].resize(cap_);
    if (!bound_[s]) {
      bound_[s] = 1;
      bound_list_.push_back(static_cast<uint16_t>(s));
    }
    return cols_[s].data();
  }

  /// Sets the row count; the selection vector becomes the identity [0, n).
  void SetSize(size_t n) {
    size_ = n;
    sel_size_ = n;
    identity_ = true;
  }

  size_t size() const { return size_; }

  /// Owned output-row storage at `pos` (capacity reused across batches);
  /// marks the batch as carrying projected output.
  table::Row* OutputRow(size_t pos) {
    if (output_.size() < cap_) output_.resize(cap_);
    has_output_ = true;
    return &output_[pos];
  }

  /// Whole output column (capacity() rows) for producers that fill many
  /// positions — one bounds check instead of one per row.
  table::Row* OutputColumn() {
    if (output_.size() < cap_) output_.resize(cap_);
    has_output_ = true;
    return output_.data();
  }

  bool has_output() const { return has_output_; }
  const table::Row& output(size_t pos) const { return output_[pos]; }
  /// Mutable output row for consumers that steal the buffer (result
  /// fetch moves rows out; the slot refills next batch).
  table::Row* MutableOutput(size_t pos) { return &output_[pos]; }

  /// Copies this batch's bound slot pointers at `from_pos` into `to` at
  /// `to_pos` (joins carry the outer side into the result batch). The
  /// pointers stay valid as long as this batch is not refilled.
  void CopySlots(size_t from_pos, RowBatch* to, size_t to_pos) const {
    for (const uint16_t s : bound_list_) {
      to->BindSlot(s)[to_pos] = cols_[s][from_pos];
    }
  }

  // --- Selection vector ---

  size_t ActiveCount() const { return sel_size_; }
  size_t Active(size_t i) const { return identity_ ? i : sel_[i]; }

  /// Selection array for in-place compaction: read positions via
  /// Active(i), write survivors to the returned array at k <= i, then
  /// call SetSelection(k). Safe because k never passes i.
  uint16_t* MutableSel() {
    if (sel_.size() < cap_) sel_.resize(cap_);
    return sel_.data();
  }
  void SetSelection(size_t n) {
    sel_size_ = n;
    identity_ = false;
  }
  /// Keeps only the first `n` active rows (LIMIT).
  void TruncateActive(size_t n) {
    if (n < sel_size_) sel_size_ = n;
  }

  // --- Consumer side ---

  /// Binds the bound slots at `pos` into `ctx` (pointer stores); leaves
  /// other slots untouched so sibling subtrees' bindings survive.
  void BindRow(size_t pos, optimizer::RowContext* ctx) const {
    for (const uint16_t s : bound_list_) {
      ctx->rows[s] = cols_[s][pos];
    }
  }

  /// Read-only pointer column for slot `s`, or nullptr when the slot is
  /// not bound this batch. The vectorized fast paths (compiled simple
  /// predicates, plain-column projection) read values straight from the
  /// column instead of materializing a RowContext per row.
  const table::Row* const* Column(size_t s) const {
    return bound_[s] ? cols_[s].data() : nullptr;
  }

 private:
  size_t cap_;
  const std::vector<std::pair<std::string, Value>>* params_;
  std::vector<std::vector<const table::Row*>> cols_;  // [slot][pos]
  std::vector<uint8_t> bound_;       // per-slot "bound this batch" flag
  std::vector<uint16_t> bound_list_;
  std::vector<table::Row> output_;
  std::vector<uint16_t> sel_;
  size_t size_ = 0;
  size_t sel_size_ = 0;
  bool identity_ = true;
  bool has_output_ = false;
};

}  // namespace hdb::exec

#endif  // HDB_EXEC_ROW_BATCH_H_
