#ifndef HDB_NET_WIRE_H_
#define HDB_NET_WIRE_H_

// Length-prefixed binary wire protocol for the network front end
// (DESIGN.md §12). The codec is standalone: no sockets, no engine types
// beyond Value/Status — the server, the client library, the fuzz tests
// and the bench all speak through these functions.
//
// Frame layout (all integers little-endian):
//
//   u32 length   — byte count of everything after this field (>= 1)
//   u8  opcode   — Opcode below
//   ...payload   — length-1 bytes, opcode-specific
//
// A frame whose length field exceeds WireLimits::max_frame_bytes, or whose
// length is zero, is a protocol violation: the connection is poisoned (the
// peer's framing is lost, resynchronization is impossible) and must be
// closed after an error frame. Payload-level malformations (truncated
// string, bad type tag, unknown opcode) are recoverable: framing is still
// intact, so the server answers with an error frame and keeps the
// connection (tests/net_wire_test.cc drives both classes with a seeded
// mutation corpus).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/value.h"

namespace hdb::net {

/// Protocol version exchanged in the handshake. Bump on any frame-layout
/// change; the server rejects mismatched clients with kError.
inline constexpr uint32_t kProtocolVersion = 1;

enum class Opcode : uint8_t {
  // client → server
  kHello = 0x01,          // u32 version, str client_name
  kQuery = 0x02,          // str sql
  kPrepare = 0x03,        // str sql ('?' placeholders) → kPrepareOk
  kBind = 0x04,           // u32 stmt_id, u16 n, n × value → kBindOk
  kExecute = 0x05,        // u32 stmt_id → result stream
  kClosePrepared = 0x06,  // u32 stmt_id → kDone{0,0}
  kClose = 0x07,          // graceful close → kCloseOk, then FIN
  kPing = 0x08,           // liveness → kPong

  // server → client
  kHelloOk = 0x81,     // u32 version, u64 conn_id, str server_name
  kPrepareOk = 0x82,   // u32 stmt_id, u16 param_count
  kBindOk = 0x83,      // (empty)
  kRowHeader = 0x84,   // u16 ncols, ncols × str
  kRow = 0x85,         // u16 nvals, nvals × value
  kDone = 0x86,        // u64 rows_affected, u64 row_count
  kError = 0x87,       // u8 status_code, str message
  kOverloaded = 0x88,  // u8 status_code, u32 retry_after_ms, str message
  kCloseOk = 0x89,     // (empty)
  kGoodbye = 0x8a,     // str reason — server-initiated close (shed/drain)
  kPong = 0x8b,        // (empty)
};

/// True for opcodes a client may legally send (server-side validation).
bool IsClientOpcode(uint8_t op);

struct WireLimits {
  /// Hard cap on one frame (length field). Larger is a framing violation.
  uint32_t max_frame_bytes = 16u << 20;
  /// Cap on one encoded string within a payload (sql text, error message).
  uint32_t max_string_bytes = 4u << 20;
};

// --- Payload primitives ----------------------------------------------------

/// Appends fixed-width primitives / length-prefixed strings to `out`.
/// Encoding never fails; the frame writer enforces limits at frame end.
void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutDouble(std::string* out, double v);
void PutString(std::string* out, std::string_view s);
/// Value: u8 TypeId, u8 flags (bit0 = SQL NULL), then the typed payload.
void PutValue(std::string* out, const Value& v);

/// Bounds-checked payload reader. Every getter fails with
/// kInvalidArgument once the payload is exhausted or a nested length is
/// inconsistent — never reads past `size`.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size, WireLimits limits = {})
      : data_(data), size_(size), limits_(limits) {}
  explicit PayloadReader(std::string_view payload, WireLimits limits = {})
      : PayloadReader(reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size(), limits) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<double> Double();
  Result<std::string> String();
  Result<Value> GetValue();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }
  /// Fails unless the payload was consumed exactly — trailing garbage in
  /// a payload is as malformed as a truncated one.
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  WireLimits limits_;
};

// --- Frames ----------------------------------------------------------------

/// One decoded frame. `payload` views into the assembler's buffer and is
/// only valid until the next Next()/Feed() call.
struct Frame {
  uint8_t opcode = 0;
  std::string_view payload;
};

/// Appends a complete frame (length + opcode + payload) to `out`.
void AppendFrame(std::string* out, Opcode op, std::string_view payload);

// Convenience encoders for the fixed server frames.
void AppendErrorFrame(std::string* out, StatusCode code,
                      std::string_view message);
void AppendOverloadedFrame(std::string* out, uint32_t retry_after_ms,
                           std::string_view message);
void AppendGoodbyeFrame(std::string* out, std::string_view reason);
void AppendDoneFrame(std::string* out, uint64_t rows_affected,
                     uint64_t row_count);

/// Incremental frame extractor over a byte stream. Feed() appends raw
/// bytes; Next() yields complete frames until the buffer holds only a
/// partial frame. A framing violation (zero or oversized length) makes
/// Next() return an error, after which the assembler is poisoned: the
/// stream cannot be re-synchronized and the connection must be closed.
class FrameAssembler {
 public:
  explicit FrameAssembler(WireLimits limits = {}) : limits_(limits) {}

  void Feed(const char* data, size_t size);
  void Feed(std::string_view data) { Feed(data.data(), data.size()); }

  /// nullopt = no complete frame buffered (or poisoned after error).
  Result<std::optional<Frame>> Next();

  bool poisoned() const { return poisoned_; }
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  WireLimits limits_;
  std::string buf_;
  size_t consumed_ = 0;  // bytes of buf_ already returned as frames
  bool poisoned_ = false;
};

}  // namespace hdb::net

#endif  // HDB_NET_WIRE_H_
