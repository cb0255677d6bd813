#ifndef HDB_COMMON_VALUE_H_
#define HDB_COMMON_VALUE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>

#include "common/types.h"

namespace hdb {

/// The hashes Value::Hash is built on, for callers that hash a number
/// without a Value — the heap scan reads join keys straight off the
/// encoded row (exec/executor.cc). FNV-1a over the eight bytes.
inline uint64_t HashInt64(int64_t i) {
  uint64_t h = 14695981039346656037ull;
  for (int b = 0; b < 8; ++b) {
    h ^= static_cast<uint64_t>(i >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

/// An integral double hashes like the equal int64, so INT = DOUBLE
/// equi-joins hash-partition consistently.
inline uint64_t HashDouble(double d) {
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
    const auto as_int = static_cast<int64_t>(d);
    if (static_cast<double>(as_int) == d) return HashInt64(as_int);
  }
  int64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(d));
  return HashInt64(bits);
}

/// A dynamically-typed SQL value. SQL NULL is represented explicitly and
/// compares with three-valued-logic helpers on Expression, not here; Value
/// ordering below treats NULL as smaller than everything (storage order).
class Value {
 public:
  /// Constructs SQL NULL (untyped).
  Value() : type_(TypeId::kInt), repr_(std::monostate{}) {}

  static Value Null(TypeId type = TypeId::kInt) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Boolean(bool b) { return Value(TypeId::kBoolean, b); }
  static Value Int(int32_t i) {
    return Value(TypeId::kInt, static_cast<int64_t>(i));
  }
  static Value Bigint(int64_t i) { return Value(TypeId::kBigint, i); }
  static Value Double(double d) { return Value(TypeId::kDouble, d); }
  static Value String(std::string s) {
    return Value(TypeId::kVarchar, std::move(s));
  }
  static Value Date(int64_t days) { return Value(TypeId::kDate, days); }
  static Value Timestamp(int64_t micros) {
    return Value(TypeId::kTimestamp, micros);
  }

  TypeId type() const { return type_; }
  bool is_null() const {
    return std::holds_alternative<std::monostate>(repr_);
  }
  /// Which number the value holds: Compare is exact between two int64s
  /// and goes through double otherwise.
  bool holds_int64() const { return std::holds_alternative<int64_t>(repr_); }
  bool holds_double() const { return std::holds_alternative<double>(repr_); }

  bool AsBool() const { return std::get<bool>(repr_); }
  int64_t AsInt() const { return std::get<int64_t>(repr_); }
  double AsDouble() const {
    if (std::holds_alternative<int64_t>(repr_)) {
      return static_cast<double>(std::get<int64_t>(repr_));
    }
    return std::get<double>(repr_);
  }
  const std::string& AsString() const { return std::get<std::string>(repr_); }

  /// Total order used by storage and sorting: NULL < everything, numeric
  /// types compare numerically (INT vs DOUBLE allowed), strings
  /// lexicographically. Comparing string vs numeric is a caller bug and
  /// yields ordering by type id.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Mutating setters for decode-into-buffer reuse (row_codec
  /// DecodeRowInto): overwrite this Value in place, keeping any
  /// heap-allocated string capacity when the value was already a string.
  void SetNull(TypeId type) {
    type_ = type;
    repr_.emplace<std::monostate>();
  }
  void SetBoolean(bool b) {
    type_ = TypeId::kBoolean;
    repr_ = b;
  }
  void SetInt64(TypeId type, int64_t i) {
    type_ = type;
    repr_ = i;
  }
  void SetDouble(double d) {
    type_ = TypeId::kDouble;
    repr_ = d;
  }
  void SetString(std::string_view s) {
    type_ = TypeId::kVarchar;
    if (auto* cur = std::get_if<std::string>(&repr_)) {
      cur->assign(s.data(), s.size());
    } else {
      repr_.emplace<std::string>(s);
    }
  }

  /// SQL-literal-ish rendering for diagnostics and result printing.
  std::string ToString() const;

  /// Stable 64-bit hash (not order-preserving); NULLs of any type hash
  /// equal. Used by hash join/group by and the long-string statistics.
  uint64_t Hash() const;

 private:
  Value(TypeId t, bool b) : type_(t), repr_(b) {}
  Value(TypeId t, int64_t i) : type_(t), repr_(i) {}
  Value(TypeId t, double d) : type_(t), repr_(d) {}
  Value(TypeId t, std::string s) : type_(t), repr_(std::move(s)) {}

  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> repr_;
};

}  // namespace hdb

#endif  // HDB_COMMON_VALUE_H_
