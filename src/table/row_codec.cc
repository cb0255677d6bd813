#include "table/row_codec.h"

#include <algorithm>
#include <cstring>

namespace hdb::table {

Result<std::string> EncodeRow(const catalog::TableDef& schema,
                              const Row& row) {
  if (row.size() != schema.columns.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  const size_t ncols = schema.columns.size();
  std::string out;
  out.resize((ncols + 7) / 8, '\0');
  for (size_t i = 0; i < ncols; ++i) {
    const Value& v = row[i];
    if (v.is_null()) {
      if (!schema.columns[i].nullable) {
        return Status::ConstraintViolation("NULL in NOT NULL column " +
                                           schema.columns[i].name);
      }
      out[i / 8] |= static_cast<char>(1 << (i % 8));
      continue;
    }
    switch (schema.columns[i].type) {
      case TypeId::kBoolean: {
        out.push_back(v.AsBool() ? 1 : 0);
        break;
      }
      case TypeId::kInt:
      case TypeId::kBigint:
      case TypeId::kDate:
      case TypeId::kTimestamp: {
        const int64_t x = v.AsInt();
        out.append(reinterpret_cast<const char*>(&x), 8);
        break;
      }
      case TypeId::kDouble: {
        const double d = v.AsDouble();
        out.append(reinterpret_cast<const char*>(&d), 8);
        break;
      }
      case TypeId::kVarchar: {
        const std::string& s = v.AsString();
        if (s.size() > 0xffff) {
          return Status::InvalidArgument("string longer than 64 KiB");
        }
        const auto len = static_cast<uint16_t>(s.size());
        out.append(reinterpret_cast<const char*>(&len), 2);
        out.append(s);
        break;
      }
    }
  }
  return out;
}

Status DecodeRowInto(const catalog::TableDef& schema, const char* data,
                     size_t len, Row* row, const uint8_t* needed) {
  const size_t ncols = schema.columns.size();
  const size_t bitmap_bytes = (ncols + 7) / 8;
  if (len < bitmap_bytes) return Status::Internal("row underflow");
  row->resize(ncols);
  size_t pos = bitmap_bytes;
  for (size_t i = 0; i < ncols; ++i) {
    const bool is_null = (data[i / 8] >> (i % 8)) & 1;
    const TypeId t = schema.columns[i].type;
    Value& v = (*row)[i];
    if (is_null) {
      v.SetNull(t);
      continue;
    }
    if (needed != nullptr && needed[i] == 0) {
      // Unreferenced column: skip its bytes without materializing. NULLing
      // the slot makes a bad mask fail deterministically, not read stale
      // data from the previous row in the pool.
      v.SetNull(t);
      switch (t) {
        case TypeId::kBoolean:
          pos += 1;
          break;
        case TypeId::kInt:
        case TypeId::kBigint:
        case TypeId::kDate:
        case TypeId::kTimestamp:
        case TypeId::kDouble:
          pos += 8;
          break;
        case TypeId::kVarchar: {
          if (pos + 2 > len) return Status::Internal("row underflow");
          uint16_t slen = 0;
          std::memcpy(&slen, data + pos, 2);
          pos += 2 + slen;
          break;
        }
      }
      if (pos > len) return Status::Internal("row underflow");
      continue;
    }
    switch (t) {
      case TypeId::kBoolean: {
        if (pos + 1 > len) return Status::Internal("row underflow");
        v.SetBoolean(data[pos] != 0);
        pos += 1;
        break;
      }
      case TypeId::kInt:
      case TypeId::kBigint:
      case TypeId::kDate:
      case TypeId::kTimestamp: {
        if (pos + 8 > len) return Status::Internal("row underflow");
        int64_t x = 0;
        std::memcpy(&x, data + pos, 8);
        pos += 8;
        v.SetInt64(t, t == TypeId::kInt ? static_cast<int32_t>(x) : x);
        break;
      }
      case TypeId::kDouble: {
        if (pos + 8 > len) return Status::Internal("row underflow");
        double d = 0;
        std::memcpy(&d, data + pos, 8);
        pos += 8;
        v.SetDouble(d);
        break;
      }
      case TypeId::kVarchar: {
        if (pos + 2 > len) return Status::Internal("row underflow");
        uint16_t slen = 0;
        std::memcpy(&slen, data + pos, 2);
        pos += 2;
        if (pos + slen > len) return Status::Internal("row underflow");
        v.SetString(std::string_view(data + pos, slen));
        pos += slen;
        break;
      }
    }
  }
  return Status::OK();
}

Result<Row> DecodeRow(const catalog::TableDef& schema, const char* data,
                      size_t len) {
  Row row;
  Status s = DecodeRowInto(schema, data, len, &row);
  if (!s.ok()) return s;
  return row;
}

void RowDecoder::Prepare(const catalog::TableDef& schema,
                         const uint8_t* needed) {
  schema_ = &schema;
  const size_t ncols = schema.columns.size();
  if (needed != nullptr) {
    needed_.assign(needed, needed + ncols);
  } else {
    needed_.clear();
  }
  fixed_.clear();
  nulled_.clear();
  bitmap_bytes_ = (ncols + 7) / 8;
  min_len_ = bitmap_bytes_;
  fast_ok_ = true;
  for (size_t i = 0; i < ncols; ++i) {
    const TypeId t = schema.columns[i].type;
    const bool want = needed == nullptr || needed[i] != 0;
    const int off = FixedOffset(i);
    if (!want) {
      nulled_.push_back(static_cast<uint32_t>(i));
    } else if (off < 0) {
      fast_ok_ = false;  // needed column behind a VARCHAR: generic walk
    } else {
      fixed_.push_back(
          FixedCol{static_cast<uint32_t>(i), static_cast<uint32_t>(off), t});
      const size_t width = t == TypeId::kBoolean ? 1
                           : t == TypeId::kVarchar ? 2  // length prefix
                                                   : 8;
      min_len_ = std::max(min_len_, static_cast<size_t>(off) + width);
    }
  }
}

int RowDecoder::FixedOffset(size_t column) const {
  size_t off = bitmap_bytes_;
  for (size_t i = 0; i < column; ++i) {
    switch (schema_->columns[i].type) {
      case TypeId::kBoolean:
        off += 1;
        break;
      case TypeId::kVarchar:
        return -1;
      default:
        off += 8;
        break;
    }
  }
  return static_cast<int>(off);
}

Status RowDecoder::DecodeInto(const char* data, size_t len, Row* row) const {
  if (fast_ok_ && len >= min_len_) {
    if (NoNulls(data)) {
      row->resize(schema_->columns.size());
      for (const FixedCol& f : fixed_) {
        Value& v = (*row)[f.column];
        switch (f.type) {
          case TypeId::kBoolean:
            v.SetBoolean(data[f.offset] != 0);
            break;
          case TypeId::kInt:
          case TypeId::kBigint:
          case TypeId::kDate:
          case TypeId::kTimestamp: {
            int64_t x = 0;
            std::memcpy(&x, data + f.offset, 8);
            v.SetInt64(f.type,
                       f.type == TypeId::kInt ? static_cast<int32_t>(x) : x);
            break;
          }
          case TypeId::kDouble: {
            double d = 0;
            std::memcpy(&d, data + f.offset, 8);
            v.SetDouble(d);
            break;
          }
          case TypeId::kVarchar: {
            uint16_t slen = 0;
            std::memcpy(&slen, data + f.offset, 2);
            if (f.offset + 2 + slen > len) {
              return Status::Internal("row underflow");
            }
            v.SetString(std::string_view(data + f.offset + 2, slen));
            break;
          }
        }
      }
      for (const uint32_t c : nulled_) {
        (*row)[c].SetNull(schema_->columns[c].type);
      }
      return Status::OK();
    }
  }
  return DecodeRowInto(*schema_, data, len, row,
                       needed_.empty() ? nullptr : needed_.data());
}

}  // namespace hdb::table
