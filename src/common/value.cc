#include "common/value.h"

#include <cinttypes>
#include <cstdio>

namespace hdb {

namespace {

// FNV-1a 64-bit.
uint64_t FnvHash(const void* data, size_t len, uint64_t seed = 14695981039346656037ull) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;

  const bool this_str = std::holds_alternative<std::string>(repr_);
  const bool other_str = std::holds_alternative<std::string>(other.repr_);
  if (this_str != other_str) {
    return static_cast<int>(type_) - static_cast<int>(other.type_);
  }
  if (this_str) {
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (std::holds_alternative<bool>(repr_) &&
      std::holds_alternative<bool>(other.repr_)) {
    return static_cast<int>(AsBool()) - static_cast<int>(other.AsBool());
  }
  // Numeric comparison; exact for two int64s, via double otherwise.
  if (std::holds_alternative<int64_t>(repr_) &&
      std::holds_alternative<int64_t>(other.repr_)) {
    const int64_t a = AsInt(), b = other.AsInt();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  return Sign(AsDouble() - other.AsDouble());
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  switch (type_) {
    case TypeId::kBoolean:
      return AsBool() ? "TRUE" : "FALSE";
    case TypeId::kInt:
    case TypeId::kBigint:
    case TypeId::kDate:
    case TypeId::kTimestamp: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRId64, AsInt());
      return buf;
    }
    case TypeId::kDouble: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
      return buf;
    }
    case TypeId::kVarchar:
      return "'" + AsString() + "'";
  }
  return "?";
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ull;
  if (std::holds_alternative<std::string>(repr_)) {
    const std::string& s = AsString();
    return FnvHash(s.data(), s.size());
  }
  if (std::holds_alternative<bool>(repr_)) {
    const uint8_t b = AsBool() ? 1 : 0;
    return FnvHash(&b, 1);
  }
  // Ints and int-valued doubles hash identically (INT = BIGINT, INT =
  // DOUBLE with integral values).
  if (std::holds_alternative<double>(repr_)) return HashDouble(AsDouble());
  return HashInt64(AsInt());
}

}  // namespace hdb
