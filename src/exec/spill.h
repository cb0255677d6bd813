#ifndef HDB_EXEC_SPILL_H_
#define HDB_EXEC_SPILL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "storage/buffer_pool.h"

namespace hdb::exec {

/// Schema-free value-tuple codec for spilled intermediate results. Its
/// byte image is also the identity and the emission order of group and
/// DISTINCT keys (exec/hash_table.h).
std::string EncodeValues(const std::vector<Value>& values);
/// Encodes into `out` (cleared first, capacity reused).
void EncodeValuesTo(const std::vector<Value>& values, std::string* out);
/// Appends the encoding of values[0..n) to `out`.
void AppendEncodedValues(const Value* values, size_t n, std::string* out);
/// Length of the encoding of values[0..n), without encoding them.
size_t EncodedValuesBytes(const Value* values, size_t n);
Result<std::vector<Value>> DecodeValues(const char* data, size_t len,
                                        size_t* consumed);
/// Decodes into `out`, overwriting its Values in place so their string
/// capacity is reused.
Status DecodeValuesInto(const char* data, size_t len, size_t* consumed,
                        std::vector<Value>* out);

/// An append-only stream of value tuples in temporary-space pages
/// (PageType::kTempTable). This is the sink for every operator spill:
/// evicted hash-join partitions, hash-group-by partial groups, and
/// external-sort runs. Pages are discarded to the buffer pool's lookaside
/// queue on destruction — exactly the "immediately reusable" page class of
/// paper §2.2.
///
/// The pool is touched a page at a time, not a tuple at a time
/// (DESIGN.md §10): Append encodes into a reused buffer and stages records
/// in a heap buffer of at most one page, which goes to the pool whole —
/// when the next record does not fit, or when a Reader reaches it. A
/// Reader copies each pool page out once and decodes from that copy. So
/// an open file holds at most one page of staged bytes, and an open
/// Reader one page of copied bytes, outside the pool.
class SpillFile {
 public:
  explicit SpillFile(storage::BufferPool* pool);
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  Status Append(const std::vector<Value>& tuple);

  /// Sequential reader over all appended tuples.
  class Reader {
   public:
    /// Decodes the next tuple into `tuple` (its Values are overwritten in
    /// place). Returns false at end of stream.
    Result<bool> Next(std::vector<Value>* tuple);

   private:
    friend class SpillFile;
    explicit Reader(SpillFile* file) : file_(file) {}
    /// Copies page page_index_ out of the pool into page_.
    Status LoadPage();

    SpillFile* file_;
    size_t page_index_ = 0;
    uint32_t offset_ = 0;
    bool loaded_ = false;  // page_ holds page page_index_
    std::string page_;
  };

  /// A reader from the first tuple. Reading flushes the staged tail page
  /// to the pool when the reader gets there.
  Reader Read() { return Reader(this); }

  uint64_t tuple_count() const { return tuples_; }
  size_t page_count() const {
    return pages_.size() + (staged_.empty() ? 0 : 1);
  }
  /// Payload bytes written (records + length prefixes). The spill
  /// scheduler's unit of account for spill I/O and re-partition budgets.
  uint64_t byte_count() const { return bytes_; }

  /// Releases all pages now (lookaside reuse) and resets to empty.
  void Clear();

 private:
  friend class Reader;

  /// Writes the staged page to a new pool page and empties the stage.
  Status FlushStaged();

  storage::BufferPool* pool_;
  std::vector<storage::PageId> pages_;
  // Per-page used byte count (records never span pages).
  std::vector<uint32_t> used_;
  std::string staged_;  // the tail page, not yet in the pool
  std::string record_;  // reused encode buffer
  uint64_t tuples_ = 0;
  uint64_t bytes_ = 0;
};

/// Streaming k-way merge over sorted SpillFile runs. Each run must be
/// internally sorted under `cmp` (strict weak ordering over flat tuples);
/// ties are broken by run index, so earlier runs win and a stable
/// producer (external merge sort over stable_sort'ed runs) stays stable.
/// Holds one decoded tuple per run — the whole point: the merged output
/// is never materialized.
class SpillMergeReader {
 public:
  using Comparator =
      std::function<int(const std::vector<Value>&, const std::vector<Value>&)>;

  SpillMergeReader(std::vector<SpillFile*> runs, Comparator cmp);

  /// Primes one cursor per run. Call once before Next().
  [[nodiscard]] Status Init();

  /// Returns false at end of all runs.
  Result<bool> Next(std::vector<Value>* tuple);

 private:
  struct Cursor {
    SpillFile::Reader reader;
    std::vector<Value> row;
    bool done = false;
  };
  std::vector<SpillFile*> runs_;
  Comparator cmp_;
  std::vector<Cursor> cursors_;
};

}  // namespace hdb::exec

#endif  // HDB_EXEC_SPILL_H_
