#include "net/wire.h"

#include <cstring>

namespace hdb::net {

bool IsClientOpcode(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kHello:
    case Opcode::kQuery:
    case Opcode::kPrepare:
    case Opcode::kBind:
    case Opcode::kExecute:
    case Opcode::kClosePrepared:
    case Opcode::kClose:
    case Opcode::kPing:
      return true;
    default:
      return false;
  }
}

// --- Encoding --------------------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v & 0xff));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  PutU8(out, v.is_null() ? 1 : 0);
  if (v.is_null()) return;
  switch (v.type()) {
    case TypeId::kBoolean:
      PutU8(out, v.AsBool() ? 1 : 0);
      break;
    case TypeId::kInt:
    case TypeId::kBigint:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      PutI64(out, v.AsInt());
      break;
    case TypeId::kDouble:
      PutDouble(out, v.AsDouble());
      break;
    case TypeId::kVarchar:
      PutString(out, v.AsString());
      break;
  }
}

// --- PayloadReader ---------------------------------------------------------

Status PayloadReader::Need(size_t n) const {
  if (size_ - pos_ < n) {
    return Status::InvalidArgument("truncated payload: need " +
                                   std::to_string(n) + " bytes, have " +
                                   std::to_string(size_ - pos_));
  }
  return Status::OK();
}

Result<uint8_t> PayloadReader::U8() {
  HDB_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> PayloadReader::U16() {
  HDB_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> PayloadReader::U32() {
  HDB_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> PayloadReader::U64() {
  HDB_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> PayloadReader::I64() {
  HDB_ASSIGN_OR_RETURN(uint64_t v, U64());
  return static_cast<int64_t>(v);
}

Result<double> PayloadReader::Double() {
  HDB_ASSIGN_OR_RETURN(uint64_t bits, U64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<std::string> PayloadReader::String() {
  HDB_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (len > limits_.max_string_bytes) {
    return Status::InvalidArgument("string length " + std::to_string(len) +
                                   " exceeds wire limit");
  }
  HDB_RETURN_IF_ERROR(Need(len));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return s;
}

Result<Value> PayloadReader::GetValue() {
  HDB_ASSIGN_OR_RETURN(uint8_t tag, U8());
  if (tag > static_cast<uint8_t>(TypeId::kTimestamp)) {
    return Status::InvalidArgument("bad value type tag " +
                                   std::to_string(tag));
  }
  const TypeId type = static_cast<TypeId>(tag);
  HDB_ASSIGN_OR_RETURN(uint8_t flags, U8());
  if ((flags & ~1u) != 0) {
    return Status::InvalidArgument("bad value flags " + std::to_string(flags));
  }
  if (flags & 1u) return Value::Null(type);
  switch (type) {
    case TypeId::kBoolean: {
      HDB_ASSIGN_OR_RETURN(uint8_t b, U8());
      if (b > 1) {
        return Status::InvalidArgument("bad boolean byte " +
                                       std::to_string(b));
      }
      return Value::Boolean(b != 0);
    }
    case TypeId::kInt: {
      HDB_ASSIGN_OR_RETURN(int64_t i, I64());
      if (i < INT32_MIN || i > INT32_MAX) {
        return Status::InvalidArgument("INT value out of 32-bit range");
      }
      return Value::Int(static_cast<int32_t>(i));
    }
    case TypeId::kBigint: {
      HDB_ASSIGN_OR_RETURN(int64_t i, I64());
      return Value::Bigint(i);
    }
    case TypeId::kDate: {
      HDB_ASSIGN_OR_RETURN(int64_t i, I64());
      return Value::Date(i);
    }
    case TypeId::kTimestamp: {
      HDB_ASSIGN_OR_RETURN(int64_t i, I64());
      return Value::Timestamp(i);
    }
    case TypeId::kDouble: {
      HDB_ASSIGN_OR_RETURN(double d, Double());
      return Value::Double(d);
    }
    case TypeId::kVarchar: {
      HDB_ASSIGN_OR_RETURN(std::string s, String());
      return Value::String(std::move(s));
    }
  }
  return Status::Internal("unreachable value tag");
}

Status PayloadReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::InvalidArgument(std::to_string(remaining()) +
                                   " trailing bytes after payload");
  }
  return Status::OK();
}

// --- Frames ----------------------------------------------------------------

void AppendFrame(std::string* out, Opcode op, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size() + 1));
  PutU8(out, static_cast<uint8_t>(op));
  out->append(payload.data(), payload.size());
}

void AppendErrorFrame(std::string* out, StatusCode code,
                      std::string_view message) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(code));
  PutString(&payload, message);
  AppendFrame(out, Opcode::kError, payload);
}

void AppendOverloadedFrame(std::string* out, uint32_t retry_after_ms,
                           std::string_view message) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(StatusCode::kOverloaded));
  PutU32(&payload, retry_after_ms);
  PutString(&payload, message);
  AppendFrame(out, Opcode::kOverloaded, payload);
}

void AppendGoodbyeFrame(std::string* out, std::string_view reason) {
  std::string payload;
  PutString(&payload, reason);
  AppendFrame(out, Opcode::kGoodbye, payload);
}

void AppendDoneFrame(std::string* out, uint64_t rows_affected,
                     uint64_t row_count) {
  std::string payload;
  PutU64(&payload, rows_affected);
  PutU64(&payload, row_count);
  AppendFrame(out, Opcode::kDone, payload);
}

void FrameAssembler::Feed(const char* data, size_t size) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection's buffer stays proportional to its unparsed tail.
  if (consumed_ > 4096 && consumed_ > buf_.size() / 2) {
    buf_.erase(0, consumed_);
    consumed_ = 0;
  }
  buf_.append(data, size);
}

Result<std::optional<Frame>> FrameAssembler::Next() {
  if (poisoned_) {
    return Status::InvalidArgument("frame stream poisoned by earlier error");
  }
  const size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::optional<Frame>();
  const uint8_t* p =
      reinterpret_cast<const uint8_t*>(buf_.data()) + consumed_;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(p[i]) << (8 * i);
  if (len == 0 || len > limits_.max_frame_bytes) {
    poisoned_ = true;
    return Status::InvalidArgument("bad frame length " + std::to_string(len));
  }
  if (avail < 4 + static_cast<size_t>(len)) return std::optional<Frame>();
  Frame f;
  f.opcode = p[4];
  f.payload = std::string_view(buf_.data() + consumed_ + 5, len - 1);
  consumed_ += 4 + len;
  return std::optional<Frame>(f);
}

}  // namespace hdb::net
