#ifndef HDB_TABLE_ROW_CODEC_H_
#define HDB_TABLE_ROW_CODEC_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "catalog/schema.h"

namespace hdb::table {

/// A materialized row.
using Row = std::vector<Value>;

/// Serializes `row` (one Value per schema column) into a compact byte
/// string: null bitmap followed by fixed-width numerics and
/// length-prefixed strings.
Result<std::string> EncodeRow(const catalog::TableDef& schema,
                              const Row& row);

/// Decodes bytes produced by EncodeRow back into typed Values.
Result<Row> DecodeRow(const catalog::TableDef& schema,
                      const char* data, size_t len);

/// Decodes into `row` in place, reusing its Value slots (and their string
/// capacity) instead of allocating a fresh Row per call. This is the hot
/// path for batch scans; DecodeRow above delegates here.
///
/// `needed` (optional, length >= column count when non-null) selects which
/// columns to materialize: columns with needed[i] == 0 are skipped over in
/// the byte stream and their Value slots set to NULL, so a scan that only
/// feeds `k` and `v` never copies the wide VARCHAR next to them. Callers
/// own the guarantee that skipped columns are never read (the executor
/// derives the mask from every expression in the plan).
Status DecodeRowInto(const catalog::TableDef& schema, const char* data,
                     size_t len, Row* row, const uint8_t* needed = nullptr);

/// Precompiled decoder for one (schema, column mask) pair — the scan fast
/// path. Columns ahead of the first VARCHAR sit at fixed byte offsets
/// whenever a row has no NULLs (null values are omitted from the stream),
/// so a prepared decoder turns the per-row column walk into a handful of
/// direct memcpys of just the needed columns. Rows with NULLs, or masks
/// needing a column behind a VARCHAR, fall back to the generic walk.
class RowDecoder {
 public:
  RowDecoder() = default;

  /// Compiles the decoder. `needed` selects columns as in DecodeRowInto
  /// (nullptr = all); the pointer is not retained.
  void Prepare(const catalog::TableDef& schema, const uint8_t* needed);

  /// Decodes like DecodeRowInto(schema, ..., needed) for the prepared
  /// schema/mask. Requires Prepare() first.
  Status DecodeInto(const char* data, size_t len, Row* row) const;

  /// Byte offset of `column` in a row whose null bitmap is all zero, or
  /// -1 when a VARCHAR precedes it (its offset then varies by row). Valid
  /// for every column, needed or not.
  int FixedOffset(size_t column) const;

  /// True when the encoded row has no NULL column, i.e. FixedOffset holds.
  bool NoNulls(const char* data) const {
    for (size_t b = 0; b < bitmap_bytes_; ++b) {
      if (data[b] != 0) return false;
    }
    return true;
  }

 private:
  struct FixedCol {
    uint32_t column = 0;
    uint32_t offset = 0;  // byte offset when the null bitmap is all-zero
    TypeId type = TypeId::kInt;
  };

  const catalog::TableDef* schema_ = nullptr;
  std::vector<uint8_t> needed_;     // copied mask (empty = decode all)
  std::vector<FixedCol> fixed_;     // needed columns at fixed offsets
  std::vector<uint32_t> nulled_;    // unneeded columns (set NULL, skip)
  size_t bitmap_bytes_ = 0;
  size_t min_len_ = 0;              // bytes a no-NULL fixed row must have
  bool fast_ok_ = false;            // every needed column is fixed-offset
};

}  // namespace hdb::table

#endif  // HDB_TABLE_ROW_CODEC_H_
