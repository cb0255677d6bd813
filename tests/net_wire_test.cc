// Wire-protocol codec tests (DESIGN.md §12): value/frame roundtrips,
// byte-at-a-time reassembly, and — the point of a codec test — malformed
// input: truncated frames, oversized/zero lengths, garbage opcodes,
// trailing payload bytes, and a seeded random-mutation corpus. The codec
// must never crash or read out of bounds on any input; framing violations
// poison the stream, payload violations return clean InvalidArgument.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "net/wire.h"

namespace hdb::net {
namespace {

// Feeds `bytes` to a fresh assembler and pulls every frame out.
std::vector<std::pair<uint8_t, std::string>> Reassemble(
    const std::string& bytes, size_t chunk, WireLimits limits = {}) {
  FrameAssembler asem(limits);
  std::vector<std::pair<uint8_t, std::string>> frames;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t n = std::min(chunk, bytes.size() - pos);
    asem.Feed(bytes.data() + pos, n);
    pos += n;
    for (;;) {
      Result<std::optional<Frame>> next = asem.Next();
      if (!next.ok() || !next->has_value()) break;
      frames.emplace_back((*next)->opcode, std::string((*next)->payload));
    }
  }
  return frames;
}

TEST(WireCodecTest, PrimitiveRoundtrip) {
  std::string buf;
  PutU8(&buf, 0xab);
  PutU16(&buf, 0x1234);
  PutU32(&buf, 0xdeadbeef);
  PutU64(&buf, 0x0123456789abcdefULL);
  PutI64(&buf, -42);
  PutDouble(&buf, 3.25);
  PutString(&buf, "hello");

  PayloadReader in(buf);
  EXPECT_EQ(0xab, *in.U8());
  EXPECT_EQ(0x1234, *in.U16());
  EXPECT_EQ(0xdeadbeefu, *in.U32());
  EXPECT_EQ(0x0123456789abcdefULL, *in.U64());
  EXPECT_EQ(-42, *in.I64());
  EXPECT_EQ(3.25, *in.Double());
  EXPECT_EQ("hello", *in.String());
  EXPECT_TRUE(in.ExpectEnd().ok());
}

TEST(WireCodecTest, ValueRoundtripAllTypes) {
  const std::vector<Value> values = {
      Value::Boolean(true),
      Value::Boolean(false),
      Value::Int(-7),
      Value::Bigint(1LL << 40),
      Value::Double(-0.5),
      Value::String("it's quoted"),
      Value::String(""),
      Value::Date(19000),
      Value::Timestamp(1700000000000000LL),
      Value::Null(TypeId::kInt),
      Value::Null(TypeId::kVarchar),
  };
  std::string buf;
  for (const Value& v : values) PutValue(&buf, v);
  PayloadReader in(buf);
  for (const Value& want : values) {
    Result<Value> got = in.GetValue();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(want.type(), got->type());
    EXPECT_EQ(want.is_null(), got->is_null());
    if (!want.is_null()) {
      EXPECT_EQ(want.ToString(), got->ToString());
    }
  }
  EXPECT_TRUE(in.ExpectEnd().ok());
}

TEST(WireCodecTest, FrameRoundtripByteAtATime) {
  std::string stream;
  std::string query_payload;
  PutString(&query_payload, "SELECT 1");
  AppendFrame(&stream, Opcode::kQuery, query_payload);
  AppendDoneFrame(&stream, 3, 0);
  AppendErrorFrame(&stream, StatusCode::kNotFound, "no such table");
  AppendOverloadedFrame(&stream, 250, "busy");
  AppendGoodbyeFrame(&stream, "drain");
  AppendFrame(&stream, Opcode::kPing, {});

  // Chunk sizes from pathological (1 byte) to everything-at-once.
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{7}, stream.size()}) {
    auto frames = Reassemble(stream, chunk);
    ASSERT_EQ(6u, frames.size()) << "chunk=" << chunk;
    EXPECT_EQ(static_cast<uint8_t>(Opcode::kQuery), frames[0].first);
    EXPECT_EQ("SELECT 1",
              *PayloadReader(frames[0].second).String());
    EXPECT_EQ(static_cast<uint8_t>(Opcode::kDone), frames[1].first);
    EXPECT_EQ(static_cast<uint8_t>(Opcode::kError), frames[2].first);
    EXPECT_EQ(static_cast<uint8_t>(Opcode::kOverloaded), frames[3].first);
    EXPECT_EQ(static_cast<uint8_t>(Opcode::kGoodbye), frames[4].first);
    EXPECT_EQ(static_cast<uint8_t>(Opcode::kPing), frames[5].first);
    EXPECT_TRUE(frames[5].second.empty());
  }
}

TEST(WireCodecTest, TruncatedPayloadFailsCleanly) {
  std::string buf;
  PutString(&buf, "hello world");
  // Chop at every prefix length: each must fail with InvalidArgument,
  // never crash or succeed with garbage.
  for (size_t len = 0; len < buf.size(); ++len) {
    PayloadReader in(reinterpret_cast<const uint8_t*>(buf.data()), len);
    Result<std::string> s = in.String();
    EXPECT_FALSE(s.ok()) << "prefix " << len;
    if (!s.ok()) {
      EXPECT_EQ(StatusCode::kInvalidArgument, s.status().code());
    }
  }
}

TEST(WireCodecTest, OversizedStringLengthRejected) {
  std::string buf;
  PutU32(&buf, 0xffffffffu);  // claims a 4 GiB string
  buf += "abc";
  PayloadReader in(buf);
  Result<std::string> s = in.String();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, s.status().code());
}

TEST(WireCodecTest, ZeroAndOversizedFrameLengthPoison) {
  {
    FrameAssembler asem;
    std::string bytes;
    PutU32(&bytes, 0);  // zero length: no opcode byte possible
    asem.Feed(bytes);
    Result<std::optional<Frame>> next = asem.Next();
    EXPECT_FALSE(next.ok());
    EXPECT_TRUE(asem.poisoned());
    // Poisoned stays poisoned: further feeds don't resurrect it.
    asem.Feed(bytes);
    EXPECT_FALSE(asem.Next().ok());
  }
  {
    WireLimits limits;
    limits.max_frame_bytes = 1024;
    FrameAssembler asem(limits);
    std::string bytes;
    PutU32(&bytes, 4096);
    asem.Feed(bytes);
    EXPECT_FALSE(asem.Next().ok());
    EXPECT_TRUE(asem.poisoned());
  }
}

TEST(WireCodecTest, GarbageOpcodeIsNotAClientOpcode) {
  for (int op = 0; op < 256; ++op) {
    const bool legal = op >= static_cast<int>(Opcode::kHello) &&
                       op <= static_cast<int>(Opcode::kPing);
    EXPECT_EQ(legal, IsClientOpcode(static_cast<uint8_t>(op))) << op;
  }
}

TEST(WireCodecTest, TrailingBytesRejected) {
  std::string buf;
  PutU32(&buf, 7);
  PutU8(&buf, 99);  // one extra byte
  PayloadReader in(buf);
  ASSERT_TRUE(in.U32().ok());
  Status end = in.ExpectEnd();
  EXPECT_FALSE(end.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, end.code());
}

TEST(WireCodecTest, BadValueTagAndFlagsRejected) {
  {
    std::string buf;
    PutU8(&buf, 200);  // no such TypeId
    PutU8(&buf, 0);
    EXPECT_FALSE(PayloadReader(buf).GetValue().ok());
  }
  {
    std::string buf;
    PutU8(&buf, static_cast<uint8_t>(TypeId::kInt));
    PutU8(&buf, 0x80);  // undefined flag bits
    PutI64(&buf, 1);
    EXPECT_FALSE(PayloadReader(buf).GetValue().ok());
  }
  {
    std::string buf;
    PutU8(&buf, static_cast<uint8_t>(TypeId::kBoolean));
    PutU8(&buf, 0);
    PutU8(&buf, 7);  // booleans are 0/1
    EXPECT_FALSE(PayloadReader(buf).GetValue().ok());
  }
  {
    std::string buf;
    PutU8(&buf, static_cast<uint8_t>(TypeId::kInt));
    PutU8(&buf, 0);
    PutI64(&buf, 1LL << 40);  // out of 32-bit INT range
    EXPECT_FALSE(PayloadReader(buf).GetValue().ok());
  }
}

// The mutation corpus: take a valid multi-frame stream, flip bytes at
// seeded-random positions, and run the full decode pipeline (assembler →
// opcode check → payload parse) over the result. Any outcome is fine
// EXCEPT a crash, a hang, or an out-of-bounds read (ASan/TSan jobs run
// this too); successfully-decoded frames must still honor the limits.
TEST(WireCodecTest, SeededMutationCorpusNeverCrashes) {
  std::string pristine;
  AppendFrame(&pristine, Opcode::kHello, [] {
    std::string p;
    PutU32(&p, kProtocolVersion);
    PutString(&p, "fuzz");
    return p;
  }());
  AppendFrame(&pristine, Opcode::kQuery, [] {
    std::string p;
    PutString(&p, "SELECT a, b FROM t WHERE a = 'x''y' AND b = 3.5");
    return p;
  }());
  AppendFrame(&pristine, Opcode::kBind, [] {
    std::string p;
    PutU32(&p, 1);
    PutU16(&p, 3);
    PutValue(&p, Value::Int(7));
    PutValue(&p, Value::Null(TypeId::kDouble));
    PutValue(&p, Value::String("str"));
    return p;
  }());
  AppendDoneFrame(&pristine, 1, 2);

  WireLimits limits;
  limits.max_frame_bytes = 1u << 20;
  limits.max_string_bytes = 1u << 16;

  std::mt19937 gen(424242);
  std::uniform_int_distribution<size_t> pos_dist(0, pristine.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::uniform_int_distribution<int> nmut_dist(1, 8);

  int decoded_frames = 0;
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = pristine;
    const int nmut = nmut_dist(gen);
    for (int m = 0; m < nmut; ++m) {
      mutated[pos_dist(gen)] = static_cast<char>(byte_dist(gen));
    }
    // Sometimes truncate as well — torn TCP streams.
    if (round % 3 == 0) {
      mutated.resize(pos_dist(gen));
    }

    FrameAssembler asem(limits);
    // Feed in two chunks to exercise the compaction path.
    const size_t half = mutated.size() / 2;
    asem.Feed(mutated.data(), half);
    asem.Feed(mutated.data() + half, mutated.size() - half);
    for (;;) {
      Result<std::optional<Frame>> next = asem.Next();
      if (!next.ok()) {
        EXPECT_TRUE(asem.poisoned());
        break;
      }
      if (!next->has_value()) break;
      ++decoded_frames;
      const Frame& f = **next;
      if (!IsClientOpcode(f.opcode)) continue;
      // Parse the payload as every client shape; failures must be clean.
      PayloadReader in(f.payload, limits);
      switch (static_cast<Opcode>(f.opcode)) {
        case Opcode::kHello: {
          Result<uint32_t> v = in.U32();
          if (v.ok()) (void)in.String();
          break;
        }
        case Opcode::kQuery:
        case Opcode::kPrepare:
          (void)in.String();
          break;
        case Opcode::kBind: {
          Result<uint32_t> id = in.U32();
          Result<uint16_t> n = id.ok() ? in.U16() : Result<uint16_t>(
                                                        id.status());
          if (n.ok()) {
            for (uint16_t i = 0; i < *n; ++i) {
              if (!in.GetValue().ok()) break;
            }
          }
          break;
        }
        case Opcode::kExecute:
        case Opcode::kClosePrepared:
          (void)in.U32();
          break;
        default:
          break;
      }
    }
  }
  // The corpus must actually exercise the decode path, not just die at
  // the first length field every time.
  EXPECT_GT(decoded_frames, 100);
}

}  // namespace
}  // namespace hdb::net
