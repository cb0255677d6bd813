#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "catalog/catalog.h"
#include "engine/database.h"
#include "exec/agg.h"
#include "exec/executor.h"
#include "exec/hash_table.h"
#include "exec/memory_governor.h"
#include "exec/morsel.h"
#include "exec/mpl_controller.h"
#include "exec/recursive_union.h"
#include "exec/spill.h"
#include "table/row_codec.h"
#include "table/table_heap.h"

namespace hdb::exec {
namespace {

struct Fixture {
  Fixture()
      : disk(storage::kDefaultPageBytes, nullptr, nullptr),
        pool(&disk, storage::BufferPoolOptions{.initial_frames = 256}) {}
  storage::DiskManager disk;
  storage::BufferPool pool;
};

// --- Aggregate state (agg.h) ---

AggState Fold(optimizer::AggKind kind, const std::vector<Value>& inputs) {
  AggState s;
  for (const Value& v : inputs) AggUpdate(s, kind, v);
  return s;
}

TEST(AggTest, FinalizeEachKind) {
  using optimizer::AggKind;
  const std::vector<Value> ints = {Value::Bigint(4), Value::Null(),
                                   Value::Bigint(-2), Value::Bigint(9)};
  EXPECT_EQ(AggFinalize(Fold(AggKind::kCountStar, ints), AggKind::kCountStar),
            Value::Bigint(4));
  EXPECT_EQ(AggFinalize(Fold(AggKind::kCount, ints), AggKind::kCount),
            Value::Bigint(3));
  const Value sum = AggFinalize(Fold(AggKind::kSum, ints), AggKind::kSum);
  EXPECT_EQ(sum.type(), TypeId::kBigint);
  EXPECT_EQ(sum, Value::Bigint(11));
  const Value avg = AggFinalize(Fold(AggKind::kAvg, ints), AggKind::kAvg);
  EXPECT_EQ(avg.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(avg.AsDouble(), 11.0 / 3.0);
  EXPECT_EQ(AggFinalize(Fold(AggKind::kMin, ints), AggKind::kMin),
            Value::Bigint(-2));
  EXPECT_EQ(AggFinalize(Fold(AggKind::kMax, ints), AggKind::kMax),
            Value::Bigint(9));

  // A double input makes SUM a double; MIN/MAX compare strings.
  const Value dsum = AggFinalize(
      Fold(AggKind::kSum, {Value::Bigint(1), Value::Double(0.5)}),
      AggKind::kSum);
  EXPECT_EQ(dsum.type(), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(dsum.AsDouble(), 1.5);
  const std::vector<Value> strs = {Value::String("pear"),
                                   Value::String("apple"),
                                   Value::String("zucchini")};
  EXPECT_EQ(AggFinalize(Fold(AggKind::kMin, strs), AggKind::kMin),
            Value::String("apple"));
  EXPECT_EQ(AggFinalize(Fold(AggKind::kMax, strs), AggKind::kMax),
            Value::String("zucchini"));

  // Only NULL inputs: COUNT(*) counts them, the rest have nothing.
  const std::vector<Value> nulls = {Value::Null(), Value::Null()};
  EXPECT_EQ(AggFinalize(Fold(AggKind::kCountStar, nulls), AggKind::kCountStar),
            Value::Bigint(2));
  EXPECT_EQ(AggFinalize(Fold(AggKind::kCount, nulls), AggKind::kCount),
            Value::Bigint(0));
  for (const AggKind k : {AggKind::kSum, AggKind::kAvg, AggKind::kMin,
                          AggKind::kMax}) {
    EXPECT_TRUE(AggFinalize(Fold(k, nulls), k).is_null());
  }
}

TEST(AggTest, MergeAndSpillRoundTripMatchOnePass) {
  using optimizer::AggKind;
  const std::vector<Value> a = {Value::Bigint(7), Value::Null(),
                                Value::Double(1.25)};
  const std::vector<Value> b = {Value::Bigint(-3), Value::Bigint(12)};
  std::vector<Value> all = a;
  all.insert(all.end(), b.begin(), b.end());
  for (const AggKind k : {AggKind::kCountStar, AggKind::kCount, AggKind::kSum,
                          AggKind::kMin, AggKind::kMax, AggKind::kAvg}) {
    AggState merged = DecodeAggState(EncodeAggState(Fold(k, a)), 0);
    AggMerge(merged, DecodeAggState(EncodeAggState(Fold(k, b)), 0));
    EXPECT_EQ(EncodeAggState(Fold(k, a)).size(), kAggStateArity);
    EXPECT_EQ(AggFinalize(merged, k), AggFinalize(Fold(k, all), k))
        << static_cast<int>(k);
  }
}

// --- Memory governor (Eq. 4 and Eq. 5) ---

TEST(MemoryGovernorTest, SoftLimitIsPoolOverMpl) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.multiprogramming_level = 8;
  MemoryGovernor gov(&f.pool, opts);
  EXPECT_EQ(gov.SoftLimitPages(), 256u / 8);
  gov.SetMultiprogrammingLevel(4);
  EXPECT_EQ(gov.SoftLimitPages(), 256u / 4);
  // Tracks the *current* pool size as the pool resizes.
  f.pool.Resize(512);
  EXPECT_EQ(gov.SoftLimitPages(), 512u / 4);
}

TEST(MemoryGovernorTest, HardLimitDividesByActiveRequests) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.max_pool_pages = 3000;
  opts.hard_limit_factor = 4.0 / 3.0;
  MemoryGovernor gov(&f.pool, opts);
  auto t1 = gov.BeginTask();
  EXPECT_EQ(gov.HardLimitPages(), 4000u);
  auto t2 = gov.BeginTask();
  EXPECT_EQ(gov.HardLimitPages(), 2000u);
  t2.reset();
  EXPECT_EQ(gov.HardLimitPages(), 4000u);
}

TEST(MemoryGovernorTest, HardLimitKillsStatement) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.max_pool_pages = 100;  // hard = 133 pages for one request
  MemoryGovernor gov(&f.pool, opts);
  auto task = gov.BeginTask();
  const uint64_t page = f.pool.page_bytes();
  EXPECT_TRUE(task->ChargeBytes(100 * page).ok());
  const Status s = task->ChargeBytes(100 * page);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

class FakeConsumer : public MemoryConsumer {
 public:
  FakeConsumer(const char* n, int level, double cost, uint64_t bytes)
      : bytes_(bytes), cost_(cost) {
    name = n;
    plan_level = level;
  }
  SpillableStats SpillStats() const override {
    SpillableStats s;
    s.spillable_bytes = bytes_ > reserve_ ? bytes_ - reserve_ : 0;
    s.must_reserve_bytes = reserve_;
    s.respill_cost = cost_;
    return s;
  }
  Result<uint64_t> SpillSome(uint64_t target) override {
    spill_calls++;
    if (fail_) return Status::Internal("injected spill-write failure");
    const uint64_t avail = bytes_ > reserve_ ? bytes_ - reserve_ : 0;
    const uint64_t freed = std::min(target, avail);
    bytes_ -= freed;
    return freed;
  }
  uint64_t bytes_;
  uint64_t reserve_ = 0;
  double cost_;
  bool fail_ = false;
  int spill_calls = 0;
};

TEST(MemoryGovernorTest, SchedulerPicksCheapestVictim) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.multiprogramming_level = 16;  // soft = 16 pages
  opts.max_pool_pages = 1 << 20;     // hard: effectively unlimited
  MemoryGovernor gov(&f.pool, opts);
  auto task = gov.BeginTask();
  const uint64_t page = f.pool.page_bytes();
  FakeConsumer dear("hash_join", /*level=*/1, /*cost=*/3.0, 100 * page);
  FakeConsumer cheap("sort", /*level=*/3, /*cost=*/1.5, 100 * page);
  task->RegisterConsumer(&dear);
  task->RegisterConsumer(&cheap);
  // Charge past the soft limit: the CHEAP consumer spills, the dear one
  // is never touched — the broker owns the choice, not stack order.
  ASSERT_TRUE(task->ChargeBytes(40 * page).ok());
  EXPECT_GE(cheap.spill_calls, 1);
  EXPECT_EQ(dear.spill_calls, 0);
  EXPECT_LT(cheap.bytes_, 100 * page);
  EXPECT_GT(task->reclamations(), 0u);
  EXPECT_GT(task->spill_decisions(), 0u);
}

TEST(MemoryGovernorTest, SchedulerTieBreaksToHigherPlanLevel) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.multiprogramming_level = 16;
  opts.max_pool_pages = 1 << 20;
  MemoryGovernor gov(&f.pool, opts);
  auto task = gov.BeginTask();
  const uint64_t page = f.pool.page_bytes();
  FakeConsumer low("low", /*level=*/1, /*cost=*/2.0, 100 * page);
  FakeConsumer high("high", /*level=*/5, /*cost=*/2.0, 100 * page);
  task->RegisterConsumer(&low);
  task->RegisterConsumer(&high);
  ASSERT_TRUE(task->ChargeBytes(40 * page).ok());
  EXPECT_GE(high.spill_calls, 1);
  EXPECT_EQ(low.spill_calls, 0);
}

TEST(MemoryGovernorTest, SchedulerHonorsReserveFloor) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.multiprogramming_level = 16;
  opts.max_pool_pages = 1 << 20;
  MemoryGovernor gov(&f.pool, opts);
  auto task = gov.BeginTask();
  const uint64_t page = f.pool.page_bytes();
  FakeConsumer c("group_by", /*level=*/2, /*cost=*/2.0, 100 * page);
  c.reserve_ = 90 * page;  // only 10 pages are actually offered
  task->RegisterConsumer(&c);
  // Deficit (24 pages) exceeds what the consumer offers; the scheduler
  // must stop at the reserve floor instead of draining it.
  ASSERT_TRUE(task->ChargeBytes(40 * page).ok());
  EXPECT_GE(c.bytes_, c.reserve_);
  EXPECT_EQ(c.bytes_, 90 * page);
}

TEST(MemoryGovernorTest, SpillErrorPropagatesToChargingStatement) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.multiprogramming_level = 16;
  opts.max_pool_pages = 1 << 20;
  MemoryGovernor gov(&f.pool, opts);
  auto task = gov.BeginTask();
  const uint64_t page = f.pool.page_bytes();
  FakeConsumer broken("sort", /*level=*/3, /*cost=*/1.5, 100 * page);
  broken.fail_ = true;
  task->RegisterConsumer(&broken);
  ASSERT_TRUE(task->ChargeBytes(10 * page).ok());
  const uint64_t before = task->bytes_charged();
  // The old release-callback protocol swallowed this; the scheduler's
  // error channel aborts the charge and rolls the account back.
  const Status s = task->ChargeBytes(30 * page);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(task->bytes_charged(), before);
}

TEST(MemoryGovernorTest, ExhaustedConsumersAreSkippedNotRelooped) {
  Fixture f;
  MemoryGovernorOptions opts;
  opts.multiprogramming_level = 16;
  opts.max_pool_pages = 1 << 20;
  MemoryGovernor gov(&f.pool, opts);
  auto task = gov.BeginTask();
  const uint64_t page = f.pool.page_bytes();
  // Claims spillable bytes but never actually frees any: the scheduler
  // must mark it exhausted after one ask instead of spinning.
  class Stuck : public MemoryConsumer {
   public:
    SpillableStats SpillStats() const override {
      SpillableStats s;
      s.spillable_bytes = 1 << 20;
      return s;
    }
    Result<uint64_t> SpillSome(uint64_t) override {
      calls++;
      return uint64_t{0};
    }
    int calls = 0;
  };
  Stuck stuck;
  task->RegisterConsumer(&stuck);
  ASSERT_TRUE(task->ChargeBytes(40 * page).ok());
  EXPECT_EQ(stuck.calls, 1);
}

// --- Spill files ---

TEST(SpillTest, EncodeDecodeRoundTrip) {
  const std::vector<Value> tuple = {
      Value::Int(5), Value::Null(), Value::String("spilled"),
      Value::Double(2.5), Value::Boolean(true), Value::Timestamp(99)};
  const std::string bytes = EncodeValues(tuple);
  // The memory charges of group and DISTINCT keys use this length.
  EXPECT_EQ(EncodedValuesBytes(tuple.data(), tuple.size()), bytes.size());
  size_t consumed = 0;
  auto decoded = DecodeValues(bytes.data(), bytes.size(), &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(decoded->size(), tuple.size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    EXPECT_EQ(tuple[i].Compare((*decoded)[i]), 0);
  }
  // Decoding into a used vector overwrites every Value, whatever it held.
  std::vector<Value> reused = {Value::String("old"), Value::Int(1),
                               Value::Null(),       Value::String("x"),
                               Value::Double(9),    Value::Boolean(false),
                               Value::Int(7),       Value::Int(8)};
  ASSERT_TRUE(
      DecodeValuesInto(bytes.data(), bytes.size(), &consumed, &reused).ok());
  ASSERT_EQ(reused.size(), tuple.size());
  for (size_t i = 0; i < tuple.size(); ++i) {
    EXPECT_EQ(reused[i].type(), (*decoded)[i].type()) << i;
    EXPECT_EQ(reused[i].is_null(), tuple[i].is_null()) << i;
    EXPECT_EQ(tuple[i].Compare(reused[i]), 0) << i;
  }
}

TEST(SpillTest, AppendReadManyTuples) {
  Fixture f;
  SpillFile spill(&f.pool);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(spill.Append({Value::Int(i), Value::String("x")}).ok());
  }
  EXPECT_GT(spill.page_count(), 5u);
  auto reader = spill.Read();
  std::vector<Value> tuple;
  int i = 0;
  for (;;) {
    auto more = reader.Next(&tuple);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(tuple[0].AsInt(), i++);
  }
  EXPECT_EQ(i, 5000);
}

TEST(SpillTest, ClearDiscardsToLookaside) {
  Fixture f;
  SpillFile spill(&f.pool);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(spill.Append({Value::Int(i)}).ok());
  }
  spill.Clear();
  EXPECT_EQ(spill.tuple_count(), 0u);
  EXPECT_EQ(spill.page_count(), 0u);
}

TEST(SpillTest, ByteCountTracksAppendsAndClear) {
  Fixture f;
  SpillFile spill(&f.pool);
  EXPECT_EQ(spill.byte_count(), 0u);
  ASSERT_TRUE(spill.Append({Value::Int(1), Value::String("abc")}).ok());
  const uint64_t one = spill.byte_count();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(spill.Append({Value::Int(2), Value::String("abc")}).ok());
  EXPECT_EQ(spill.byte_count(), 2 * one);
  spill.Clear();
  EXPECT_EQ(spill.byte_count(), 0u);
}

TEST(SpillTest, MergeReaderInterleavesSortedRuns) {
  Fixture f;
  SpillFile a(&f.pool), b(&f.pool), c(&f.pool);
  for (const int v : {1, 4, 7, 10}) ASSERT_TRUE(a.Append({Value::Int(v)}).ok());
  for (const int v : {2, 5, 8}) ASSERT_TRUE(b.Append({Value::Int(v)}).ok());
  for (const int v : {3, 6, 9}) ASSERT_TRUE(c.Append({Value::Int(v)}).ok());
  SpillMergeReader merge(
      {&a, &b, &c},
      [](const std::vector<Value>& x, const std::vector<Value>& y) {
        return x[0].Compare(y[0]);
      });
  ASSERT_TRUE(merge.Init().ok());
  std::vector<Value> tuple;
  int expect = 1;
  for (;;) {
    auto more = merge.Next(&tuple);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(tuple[0].AsInt(), expect++);
  }
  EXPECT_EQ(expect, 11);
}

TEST(SpillTest, MergeReaderTiesKeepEarliestRun) {
  Fixture f;
  SpillFile a(&f.pool), b(&f.pool);
  ASSERT_TRUE(a.Append({Value::Int(1), Value::String("first")}).ok());
  ASSERT_TRUE(b.Append({Value::Int(1), Value::String("second")}).ok());
  SpillMergeReader merge(
      {&a, &b},
      [](const std::vector<Value>& x, const std::vector<Value>& y) {
        return x[0].Compare(y[0]);
      });
  ASSERT_TRUE(merge.Init().ok());
  std::vector<Value> tuple;
  auto more = merge.Next(&tuple);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(tuple[1].AsString(), "first");  // stability on equal keys
  more = merge.Next(&tuple);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(tuple[1].AsString(), "second");
}

// Every record is [u32 len][payload] inside one page; reads see the
// tuples of many pages in order, strings intact.
TEST(SpillTest, TuplesAcrossPageBoundariesKeepOrderAndStrings) {
  Fixture f;
  SpillFile spill(&f.pool);
  std::vector<std::vector<Value>> written;
  uint64_t expect_bytes = 0;
  for (int i = 0; i < 3000; ++i) {
    // Lengths 0..299 so records end at every offset within a page.
    std::vector<Value> t = {
        Value::Int(i), Value::String(std::string(i % 300, 'a' + i % 26)),
        i % 7 == 0 ? Value::Null() : Value::Double(i * 0.25)};
    ASSERT_TRUE(spill.Append(t).ok());
    expect_bytes += 4 + EncodeValues(t).size();
    written.push_back(std::move(t));
  }
  EXPECT_EQ(spill.tuple_count(), written.size());
  EXPECT_EQ(spill.byte_count(), expect_bytes);
  EXPECT_GT(spill.page_count(), 100u);
  auto reader = spill.Read();
  std::vector<Value> tuple;
  size_t i = 0;
  for (;;) {
    auto more = reader.Next(&tuple);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_LT(i, written.size());
    ASSERT_EQ(tuple.size(), 3u);
    EXPECT_EQ(tuple[0].AsInt(), written[i][0].AsInt());
    EXPECT_EQ(tuple[1].AsString(), written[i][1].AsString());
    EXPECT_EQ(tuple[2].is_null(), written[i][2].is_null());
    if (!tuple[2].is_null()) {
      EXPECT_EQ(tuple[2].AsDouble(), written[i][2].AsDouble());
    }
    ++i;
  }
  EXPECT_EQ(i, written.size());
  // Reading changes none of the counts.
  EXPECT_EQ(spill.tuple_count(), written.size());
  EXPECT_EQ(spill.byte_count(), expect_bytes);
}

TEST(SpillTest, FileReadsTheSameTwice) {
  Fixture f;
  SpillFile spill(&f.pool);
  for (int i = 0; i < 700; ++i) {
    ASSERT_TRUE(spill
                    .Append({Value::Bigint(i),
                             Value::String("s" + std::to_string(i))})
                    .ok());
  }
  const uint64_t bytes = spill.byte_count();
  const size_t pages = spill.page_count();
  auto read_all = [&spill]() {
    std::vector<std::string> out;
    auto reader = spill.Read();
    std::vector<Value> tuple;
    for (;;) {
      auto more = reader.Next(&tuple);
      EXPECT_TRUE(more.ok());
      if (!more.ok() || !*more) break;
      out.push_back(tuple[0].ToString() + tuple[1].AsString());
    }
    return out;
  };
  const auto first = read_all();
  const auto second = read_all();
  ASSERT_EQ(first.size(), 700u);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.back(), "699s699");
  EXPECT_EQ(spill.tuple_count(), 700u);
  EXPECT_EQ(spill.byte_count(), bytes);
  EXPECT_EQ(spill.page_count(), pages);
}

// A tuple appended after a reader drained the file is still read: the
// tail page reaches the pool when a reader gets to it, and appends go on
// in a fresh tail.
TEST(SpillTest, AppendAfterReadIsReadNext) {
  Fixture f;
  SpillFile spill(&f.pool);
  ASSERT_TRUE(spill.Append({Value::Int(1)}).ok());
  auto reader = spill.Read();
  std::vector<Value> tuple;
  auto more = reader.Next(&tuple);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(tuple[0].AsInt(), 1);
  more = reader.Next(&tuple);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  ASSERT_TRUE(spill.Append({Value::Int(2)}).ok());
  more = reader.Next(&tuple);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(tuple[0].AsInt(), 2);
  EXPECT_EQ(spill.tuple_count(), 2u);
}

// --- Flat hash table (exec/hash_table.h) ---

TEST(FlatHashTableTest, ForcedCollisionsStayDistinctEntries) {
  FlatHashTable t;
  std::vector<int> keys;
  // Every key under one hash: only the equality predicate tells them apart.
  for (int k = 0; k < 200; ++k) {
    auto eq = [&](uint32_t e) { return keys[e] == k; };
    ASSERT_EQ(t.Find(42, eq), FlatHashTable::kAbsent);
    EXPECT_EQ(t.Insert(42), static_cast<uint32_t>(k));
    keys.push_back(k);
  }
  for (int k = 0; k < 200; ++k) {
    EXPECT_EQ(t.Find(42, [&](uint32_t e) { return keys[e] == k; }),
              static_cast<uint32_t>(k));
  }
  EXPECT_EQ(t.Find(43, [](uint32_t) { return true; }), FlatHashTable::kAbsent);
}

TEST(FlatHashTableTest, GrowthKeepsEntryNumbers) {
  FlatHashTable t;
  // Hashes that differ only in their high bits, then only in their low
  // bits: both must spread over the slots.
  auto hash_of = [](uint64_t k) { return k < 5000 ? k << 40 : k; };
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_EQ(t.Insert(hash_of(k)), k);
  }
  EXPECT_EQ(t.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_EQ(t.Find(hash_of(k), [&](uint32_t e) { return e == k; }), k);
  }
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.Find(hash_of(7), [](uint32_t) { return true; }),
            FlatHashTable::kAbsent);
  EXPECT_EQ(t.Insert(hash_of(7)), 0u);
}

uint32_t FindOrAdd(KeyTable* t, const std::vector<Value>& key) {
  auto get = [&](size_t i) -> const Value& { return key[i]; };
  const uint64_t h = KeyHash(key.size(), get);
  const uint32_t e = t->Find(h, get);
  return e != FlatHashTable::kAbsent ? e : t->Insert(h, get);
}

// Group identity is EncodeValues identity: NULLs of any type are one key;
// INT 1 and BIGINT 1, or 0.0 and -0.0, are two.
TEST(KeyTableTest, IdentityIsTheEncodedKey) {
  KeyTable t(2);
  const uint32_t null_int =
      FindOrAdd(&t, {Value::Null(TypeId::kInt), Value::String("x")});
  EXPECT_EQ(FindOrAdd(&t, {Value::Null(TypeId::kDouble), Value::String("x")}),
            null_int);
  EXPECT_NE(FindOrAdd(&t, {Value::Null(), Value::String("y")}), null_int);
  const uint32_t int1 = FindOrAdd(&t, {Value::Int(1), Value::Null()});
  EXPECT_NE(FindOrAdd(&t, {Value::Bigint(1), Value::Null()}), int1);
  EXPECT_EQ(FindOrAdd(&t, {Value::Int(1), Value::Null()}), int1);
  EXPECT_NE(FindOrAdd(&t, {Value::Double(0.0), Value::Null()}),
            FindOrAdd(&t, {Value::Double(-0.0), Value::Null()}));
  EXPECT_EQ(t.size(), 6u);

  // Equality alone must tell keys apart when their hashes collide.
  KeyTable one(1);
  const std::vector<Value> int_key = {Value::Int(1)};
  const std::vector<Value> big_key = {Value::Bigint(1)};
  auto slot = [](const std::vector<Value>& k) {
    return [&k](size_t i) -> const Value& { return k[i]; };
  };
  one.Insert(/*h=*/7, slot(int_key));
  EXPECT_EQ(one.Find(7, slot(int_key)), 0u);
  EXPECT_EQ(one.Find(7, slot(big_key)), FlatHashTable::kAbsent);

  // EncodedOrder sorts by the encoded bytes, like the map it replaced.
  std::vector<std::string> encoded;
  for (uint32_t e = 0; e < t.size(); ++e) {
    encoded.push_back(EncodeValues({t.key(e)[0], t.key(e)[1]}));
  }
  std::vector<std::string> in_order;
  for (const uint32_t e : t.EncodedOrder()) in_order.push_back(encoded[e]);
  std::vector<std::string> sorted = encoded;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(in_order, sorted);
}

TEST(JoinIndexTest, ChainsKeepInsertionOrder) {
  JoinIndex idx;
  for (const uint64_t h : {5, 9, 5, 5, 9, 1}) idx.Add(h);
  std::vector<uint32_t> fives;
  for (uint32_t r = idx.First(5); r != JoinIndex::kEnd; r = idx.Next(r)) {
    fives.push_back(r);
  }
  EXPECT_EQ(fives, (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(idx.First(1), 5u);
  EXPECT_EQ(idx.Next(5), JoinIndex::kEnd);
  EXPECT_EQ(idx.First(7), JoinIndex::kEnd);
}

// --- Recursive union (§4.3) ---

std::vector<RecursiveUnion::Row> GraphStep(
    const std::map<int, std::vector<int>>& edges,
    const std::vector<RecursiveUnion::Row>& delta) {
  std::vector<RecursiveUnion::Row> next;
  for (const auto& row : delta) {
    const auto it = edges.find(static_cast<int>(row[0].AsInt()));
    if (it == edges.end()) continue;
    for (const int to : it->second) next.push_back({Value::Int(to)});
  }
  return next;
}

TEST(RecursiveUnionTest, TransitiveClosureOfChain) {
  std::map<int, std::vector<int>> edges;
  for (int i = 0; i < 50; ++i) edges[i] = {i + 1};
  RecursiveUnion ru;
  auto result = ru.Run({{Value::Int(0)}}, [&](const auto& delta) {
    return GraphStep(edges, delta);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 51u);  // 0..50
}

TEST(RecursiveUnionTest, CycleTerminatesThroughDedup) {
  std::map<int, std::vector<int>> edges = {{0, {1}}, {1, {2}}, {2, {0}}};
  RecursiveUnion ru;
  auto result = ru.Run({{Value::Int(0)}}, [&](const auto& delta) {
    return GraphStep(edges, delta);
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
}

TEST(RecursiveUnionTest, StrategiesAgree) {
  std::map<int, std::vector<int>> edges;
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    for (int j = 0; j < 3; ++j) {
      edges[i].push_back(static_cast<int>(rng.Uniform(300)));
    }
  }
  auto run = [&](std::optional<RecursiveStrategy> force) {
    RecursiveUnionOptions opts;
    opts.force = force;
    RecursiveUnion ru(opts);
    auto r = ru.Run({{Value::Int(0)}}, [&](const auto& delta) {
      return GraphStep(edges, delta);
    });
    std::set<int64_t> out;
    for (const auto& row : *r) out.insert(row[0].AsInt());
    return out;
  };
  const auto hash_result = run(RecursiveStrategy::kHashProbe);
  const auto sort_result = run(RecursiveStrategy::kSortMerge);
  const auto adaptive = run(std::nullopt);
  EXPECT_EQ(hash_result, sort_result);
  EXPECT_EQ(hash_result, adaptive);
}

TEST(RecursiveUnionTest, AdaptiveSwitchesStrategiesAcrossIterations) {
  // A fan-out graph: early iterations have huge candidate batches relative
  // to history (sort-merge wins), later ones shrink (hash wins).
  std::map<int, std::vector<int>> edges;
  for (int i = 0; i < 20000; ++i) edges[0].push_back(i + 1);
  for (int i = 1; i < 21001; ++i) edges[i] = {21001};
  RecursiveUnion ru;
  auto result = ru.Run({{Value::Int(0)}}, [&](const auto& delta) {
    return GraphStep(edges, delta);
  });
  ASSERT_TRUE(result.ok());
  std::set<RecursiveStrategy> used;
  for (const auto& info : ru.iterations()) used.insert(info.used);
  EXPECT_EQ(used.size(), 2u) << "expected both strategies across iterations";
}

// --- Hash join alternate index-NL strategy (paper §4.3) ---

// The plan bench/adaptive_hash_join builds: `big` (3000 rows, k = i % 1000,
// v = i, indexed on k) probes a hash table built from `tiny`, annotated
// with the alternate strategy over big's index. The build side holds
// duplicate keys, a key with no match and a NULL key; big's scan carries
// a residual and the join an extra condition comparing both sides.
class HashJoinAlternateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = engine::Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto conn = db_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Execute("CREATE TABLE big (k INT NOT NULL, v INT)").ok());
    ASSERT_TRUE((*conn)->Execute("CREATE TABLE tiny (k INT, w INT)").ok());
    std::vector<table::Row> rows;
    for (int i = 0; i < 3000; ++i) {
      rows.push_back({Value::Int(i % 1000), Value::Int(i)});
    }
    ASSERT_TRUE(db_->LoadTable("big", rows).ok());
    ASSERT_TRUE((*conn)->Execute("CREATE INDEX big_k ON big (k)").ok());
    rows = {{Value::Int(3), Value::Int(0)},
            {Value::Int(3), Value::Int(2500)},  // extra condition fails
            {Value::Int(7), Value::Int(10)},
            {Value::Int(500), Value::Int(0)},
            {Value::Int(999999), Value::Int(0)},  // no match
            {Value::Null(TypeId::kInt), Value::Int(5)}};
    ASSERT_TRUE(db_->LoadTable("tiny", rows).ok());
  }

  std::unique_ptr<optimizer::PlanNode> MakePlan(bool alternate) {
    using optimizer::CompareOp;
    using optimizer::Expr;
    auto plan = std::make_unique<optimizer::PlanNode>();
    plan->kind = optimizer::PlanKind::kHashJoin;
    plan->outer_key = Expr::Column(0, 0, TypeId::kInt, "big.k");
    plan->inner_key = Expr::Column(1, 0, TypeId::kInt, "tiny.k");
    plan->extra_condition =
        Expr::Compare(CompareOp::kGt, Expr::Column(0, 1, TypeId::kInt, "big.v"),
                      Expr::Column(1, 1, TypeId::kInt, "tiny.w"));
    plan->alt_index_nl = alternate;
    plan->alt_index = *db_->catalog().GetIndex("big_k");
    plan->alt_switch_threshold_rows = 200;
    auto outer = std::make_unique<optimizer::PlanNode>();
    outer->kind = optimizer::PlanKind::kSeqScan;
    outer->quantifier = 0;
    outer->table = *db_->catalog().GetTable("big");
    outer->residual =
        Expr::Compare(CompareOp::kNe, Expr::Column(0, 1, TypeId::kInt, "big.v"),
                      Expr::Literal(Value::Int(1003)));
    auto inner = std::make_unique<optimizer::PlanNode>();
    inner->kind = optimizer::PlanKind::kSeqScan;
    inner->quantifier = 1;
    inner->table = *db_->catalog().GetTable("tiny");
    plan->children.push_back(std::move(outer));
    plan->children.push_back(std::move(inner));
    return plan;
  }

  /// Runs the plan at `batch_cap`; returns its rows rendered and sorted
  /// (the two strategies emit in different orders).
  std::vector<std::string> Run(const optimizer::PlanNode* plan,
                               size_t batch_cap, bool* switched) {
    ExecContext ec;
    ec.pool = &db_->pool();
    ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
    ec.index = [this](uint32_t oid) { return db_->btree(oid); };
    ec.num_quantifiers = 2;
    ec.batch_cap = batch_cap;
    auto rows = ExecuteToRows(plan, &ec);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    *switched = ec.stats.hash_join_used_alternate;
    std::vector<std::string> out;
    if (!rows.ok()) return out;
    for (const auto& row : *rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<engine::Database> db_;
};

TEST_F(HashJoinAlternateTest, SwitchesAndMatchesHashStrategy) {
  const auto alt_plan = MakePlan(/*alternate=*/true);
  const auto hash_plan = MakePlan(/*alternate=*/false);
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    bool alt_switched = false;
    bool hash_switched = true;
    const auto alt = Run(alt_plan.get(), cap, &alt_switched);
    const auto hash = Run(hash_plan.get(), cap, &hash_switched);
    EXPECT_TRUE(alt_switched) << "cap " << cap;
    EXPECT_FALSE(hash_switched) << "cap " << cap;
    // k=3/w=0: v 3 and 2003 (1003 fails the residual); k=3/w=2500: none;
    // k=7/w=10: v 1007, 2007; k=500/w=0: v 500, 1500, 2500.
    EXPECT_EQ(alt.size(), 7u) << "cap " << cap;
    EXPECT_EQ(alt, hash) << "cap " << cap;
  }
}

// --- Hash operators on the flat table ---

// `l` (k INT) probes a hash table built from `r` (kb BIGINT, kd DOUBLE),
// with NULLs and duplicate keys on both sides.
class HashOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = engine::Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto conn = db_->Connect();
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(*conn);
    ASSERT_TRUE(conn_->Execute("CREATE TABLE l (k INT, tag INT)").ok());
    ASSERT_TRUE(
        conn_->Execute("CREATE TABLE r (kb BIGINT, kd DOUBLE, tag INT)").ok());
    const Value null_int = Value::Null(TypeId::kInt);
    ASSERT_TRUE(db_->LoadTable("l", {{Value::Int(1), Value::Int(10)},
                                     {null_int, Value::Int(11)},
                                     {Value::Int(2), Value::Int(12)},
                                     {Value::Int(1), Value::Int(13)}})
                    .ok());
    const Value one = Value::Bigint(1);
    const Value one_d = Value::Double(1.0);
    ASSERT_TRUE(db_->LoadTable(
                       "r", {{one, one_d, Value::Int(20)},
                             {Value::Null(TypeId::kBigint),
                              Value::Null(TypeId::kDouble), Value::Int(21)},
                             {Value::Bigint(2), Value::Double(2.5),
                              Value::Int(22)},
                             {one, one_d, Value::Int(23)}})
                    .ok());
  }

  /// Hash join of l.k against r's column `inner_col`; the (l.tag, r.tag)
  /// pairs in emission order.
  std::vector<std::pair<int64_t, int64_t>> Join(int inner_col, TypeId type) {
    auto plan = std::make_unique<optimizer::PlanNode>();
    plan->kind = optimizer::PlanKind::kHashJoin;
    plan->outer_key = optimizer::Expr::Column(0, 0, TypeId::kInt, "l.k");
    plan->inner_key = optimizer::Expr::Column(1, inner_col, type, "r.key");
    for (int q = 0; q < 2; ++q) {
      auto scan = std::make_unique<optimizer::PlanNode>();
      scan->kind = optimizer::PlanKind::kSeqScan;
      scan->quantifier = q;
      scan->table = *db_->catalog().GetTable(q == 0 ? "l" : "r");
      plan->children.push_back(std::move(scan));
    }
    ExecContext ec;
    ec.pool = &db_->pool();
    ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
    ec.index = [this](uint32_t oid) { return db_->btree(oid); };
    ec.num_quantifiers = 2;
    auto rows = ExecuteToRows(plan.get(), &ec);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::vector<std::pair<int64_t, int64_t>> out;
    if (!rows.ok()) return out;
    for (const auto& row : *rows) {
      out.emplace_back(row[1].AsInt(), row.back().AsInt());  // l.tag, r.tag
    }
    return out;
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<engine::Connection> conn_;
};

TEST_F(HashOperatorTest, JoinKeysMatchAcrossNumericTypesButNeverOnNull) {
  // INT = BIGINT and INT = DOUBLE match by value (Value::Hash + Compare);
  // a NULL on either side matches nothing; one probe row's matches come
  // out in build order.
  const std::vector<std::pair<int64_t, int64_t>> by_bigint = {
      {10, 20}, {10, 23}, {12, 22}, {13, 20}, {13, 23}};
  EXPECT_EQ(Join(0, TypeId::kBigint), by_bigint);
  // 2.5 matches no INT.
  const std::vector<std::pair<int64_t, int64_t>> by_double = {
      {10, 20}, {10, 23}, {13, 20}, {13, 23}};
  EXPECT_EQ(Join(1, TypeId::kDouble), by_double);
}

TEST_F(HashOperatorTest, NullGroupKeysFormOneGroup) {
  ASSERT_TRUE(db_->LoadTable("l", {{Value::Null(TypeId::kInt), Value::Int(14)},
                                   {Value::Int(2), Value::Int(15)}})
                  .ok());
  auto r = conn_->Execute(
      "SELECT k, COUNT(*), SUM(tag) FROM l GROUP BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::map<std::string, std::string> groups;
  for (const auto& row : r->rows) {
    groups[row[0].ToString()] = row[1].ToString() + "/" + row[2].ToString();
  }
  const std::map<std::string, std::string> expect = {
      {"NULL", "2/25"}, {"1", "2/23"}, {"2", "2/27"}};
  EXPECT_EQ(groups, expect);
  // NULL encodes smallest, so it is emitted first.
  ASSERT_FALSE(r->rows.empty());
  EXPECT_TRUE(r->rows[0][0].is_null());

  auto d = conn_->Execute("SELECT DISTINCT k FROM l");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->rows.size(), 3u);
}

// --- MPL controller (§6 extension) ---

TEST(MplControllerTest, ClimbsWhileThroughputImproves) {
  Fixture f;
  MemoryGovernorOptions mopts;
  mopts.multiprogramming_level = 8;
  MemoryGovernor gov(&f.pool, mopts);
  os::VirtualClock clock;
  MplControllerOptions opts;
  opts.interval_micros = 1000;
  opts.step = 2;
  MplController ctl(&gov, &clock, opts);

  int completed = 10;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < completed; ++j) ctl.OnRequestComplete();
    clock.Advance(1001);
    ctl.MaybeAdapt();
    completed += 10;  // throughput keeps improving
  }
  EXPECT_GT(gov.multiprogramming_level(), 8);
}

TEST(MplControllerTest, ReversesWhenThroughputDrops) {
  Fixture f;
  MemoryGovernor gov(&f.pool, MemoryGovernorOptions{});
  os::VirtualClock clock;
  MplControllerOptions opts;
  opts.interval_micros = 1000;
  MplController ctl(&gov, &clock, opts);
  const int start_mpl = gov.multiprogramming_level();

  // Interval 1: high throughput. Interval 2: collapse. Interval 3+: the
  // direction must have flipped downward.
  for (int j = 0; j < 100; ++j) ctl.OnRequestComplete();
  clock.Advance(1001);
  ctl.MaybeAdapt();
  for (int j = 0; j < 10; ++j) ctl.OnRequestComplete();
  clock.Advance(1001);
  ctl.MaybeAdapt();
  for (int j = 0; j < 5; ++j) ctl.OnRequestComplete();
  clock.Advance(1001);
  ctl.MaybeAdapt();
  EXPECT_LE(gov.multiprogramming_level(), start_mpl + 2);
  ASSERT_GE(ctl.history().size(), 3u);
  // The collapse in interval 2 must have reversed the climb direction.
  EXPECT_EQ(ctl.history()[1].direction, -1);
}

// --- Morsel dispenser (§4.4) ---

struct ParallelFixture {
  ParallelFixture()
      : disk(storage::kDefaultPageBytes, nullptr, nullptr),
        pool(&disk, storage::BufferPoolOptions{.initial_frames = 2048}) {}

  catalog::TableDef* MakeTable(catalog::Catalog& cat, const std::string& name,
                               int rows, int key_domain, uint64_t seed) {
    auto def = cat.CreateTable(name, {{"k", TypeId::kInt, false},
                                      {"g", TypeId::kInt, false}});
    auto heap = std::make_unique<table::TableHeap>(&pool, *def);
    Rng rng(seed);
    for (int i = 0; i < rows; ++i) {
      const table::Row row = {
          Value::Int(static_cast<int32_t>(rng.Uniform(key_domain))),
          Value::Int(static_cast<int32_t>(i % 5))};
      auto bytes = table::EncodeRow(**def, row);
      auto rid = heap->Insert(*bytes);
      EXPECT_TRUE(rid.ok());
    }
    heaps[(*def)->oid] = std::move(heap);
    return *def;
  }

  table::TableHeap* Heap(uint32_t oid) { return heaps[oid].get(); }

  storage::DiskManager disk;
  storage::BufferPool pool;
  std::map<uint32_t, std::unique_ptr<table::TableHeap>> heaps;
};

TEST(MorselDispenserTest, DispensesAllRowsExactlyOnce) {
  ParallelFixture f;
  catalog::Catalog cat;
  auto* t = f.MakeTable(cat, "md1", 20000, 100, 1);
  MorselDispenser d(f.Heap(t->oid), 512);
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      std::vector<std::string> bytes;
      std::vector<Rid> rids;
      for (;;) {
        auto n = d.Next(&bytes, &rids);
        if (!n.ok() || *n == 0) break;
        total.fetch_add(*n, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(total.load(), 20000u);
  EXPECT_GE(d.morsels(), 20000u / 512);
}

// The small-fix satellite: FCFS dispensing must preserve the heap scan's
// sequential page order no matter how many workers pull concurrently —
// parallelism must not turn sequential I/O into random I/O (paper §4.4).
TEST(MorselDispenserTest, DispatchPreservesHeapPageOrder) {
  ParallelFixture f;
  catalog::Catalog cat;
  auto* t = f.MakeTable(cat, "md2", 50000, 100, 2);
  MorselDispenser d(f.Heap(t->oid), 256);
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&] {
      std::vector<std::string> bytes;
      std::vector<Rid> rids;
      for (;;) {
        auto n = d.Next(&bytes, &rids);
        if (!n.ok() || *n == 0) break;
      }
    });
  }
  for (auto& th : workers) th.join();
  const std::vector<uint32_t> pages = d.DispatchedPages();
  ASSERT_GT(pages.size(), 4u);
  for (size_t i = 1; i < pages.size(); ++i) {
    ASSERT_GE(pages[i], pages[i - 1])
        << "morsel " << i << " dispatched out of page order";
  }
}

TEST(MorselDispenserTest, EndOfTableIsSticky) {
  ParallelFixture f;
  catalog::Catalog cat;
  auto* t = f.MakeTable(cat, "md3", 100, 10, 3);
  MorselDispenser d(f.Heap(t->oid), 0);  // 0 = kDefaultMorselRows
  std::vector<std::string> bytes;
  std::vector<Rid> rids;
  uint64_t total = 0;
  for (;;) {
    auto n = d.Next(&bytes, &rids);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    total += *n;
  }
  EXPECT_EQ(total, 100u);
  auto again = d.Next(&bytes, &rids);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
}

// --- Pre-decode stage of the heap scan (DESIGN.md §9) ---

// `n` holds numeric columns ahead of its VARCHAR (i, b, dt, d) and one
// behind it (after). Every numeric value shows up in every column, with
// negative INTs (stored as 8 sign-extended bytes), ±0.0 and NULLs.
class ScanPushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = engine::Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto conn = db_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)
                    ->Execute("CREATE TABLE n (i INT, b BIGINT, dt DATE, "
                              "d DOUBLE, s VARCHAR(8), after DOUBLE)")
                    .ok());
    const int64_t ints[] = {-2147483647, -7, -1, 0, 1, 3, 5, 2147483647};
    const double doubles[] = {-0.0, 0.0, -1.5, 2.5, 3.0, 5.0, -7.0, 1e300};
    for (int r = 0; r < 64; ++r) {
      const int64_t x = ints[r % 8];
      const double y = doubles[(r / 8) % 8];
      // b also holds 2^53 + 1, which a compare through double would take
      // for 2^53.
      const int64_t big = r == 9 ? (int64_t{1} << 53) + 1
                                 : x * (int64_t{1} << (r % 3 == 0 ? 20 : 0));
      table::Row row = {Value::Int(static_cast<int32_t>(x)),
                        Value::Bigint(big),
                        Value::Date(ints[(r + 3) % 8]),
                        Value::Double(y),
                        Value::String(r % 2 == 0 ? "ab" : "abcdef"),
                        Value::Double(r % 2 == 0 ? y : static_cast<double>(x))};
      if (r % 11 == 5) row[r % 4] = Value::Null(row[r % 4].type());
      if (r % 13 == 6) row[4] = Value::Null(TypeId::kVarchar);
      rows_.push_back(row);
    }
    ASSERT_TRUE(db_->LoadTable("n", rows_).ok());
    table_ = *db_->catalog().GetTable("n");
  }

  struct Ran {
    std::vector<std::string> rows;
    RuntimeStats stats;
  };

  Ran Run(const optimizer::PlanNode* plan, size_t cap) {
    ExecContext ec;
    ec.pool = &db_->pool();
    ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
    ec.num_quantifiers = 1;
    ec.batch_cap = cap;
    auto rows = ExecuteToRows(plan, &ec);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    Ran out;
    out.stats = ec.stats;
    if (!rows.ok()) return out;
    for (const auto& row : *rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.rows.push_back(std::move(line));
    }
    return out;
  }

  std::unique_ptr<optimizer::PlanNode> Scan(optimizer::ExprPtr residual) {
    auto scan = std::make_unique<optimizer::PlanNode>();
    scan->kind = optimizer::PlanKind::kSeqScan;
    scan->quantifier = 0;
    scan->table = table_;
    scan->residual = std::move(residual);
    return scan;
  }

  /// The conjunct as the scan's residual (evaluated on the encoded row
  /// where it can be) against the same conjunct in a Filter above a bare
  /// scan (always FastMatch over decoded rows): same rows, same order.
  /// Returns the pushed run's stats.
  RuntimeStats ExpectSameRows(const optimizer::ExprPtr& conjunct,
                              const std::string& what) {
    const auto pushed = Scan(conjunct);
    auto filter = std::make_unique<optimizer::PlanNode>();
    filter->kind = optimizer::PlanKind::kFilter;
    filter->residual = conjunct;
    filter->children.push_back(Scan(nullptr));
    RuntimeStats stats;
    for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
      const Ran got = Run(pushed.get(), cap);
      const Ran want = Run(filter.get(), cap);
      EXPECT_EQ(got.rows, want.rows) << what << " (cap " << cap << ")";
      EXPECT_EQ(got.stats.rows_scanned, rows_.size()) << what;
      stats = got.stats;
    }
    return stats;
  }

  bool HasNull(const table::Row& row) const {
    return std::any_of(row.begin(), row.end(),
                       [](const Value& v) { return v.is_null(); });
  }

  std::unique_ptr<engine::Database> db_;
  catalog::TableDef* table_ = nullptr;
  std::vector<table::Row> rows_;
};

TEST_F(ScanPushdownTest, ByteCompareMatchesFastMatch) {
  using optimizer::CompareOp;
  using optimizer::Expr;
  const std::vector<Value> literals = {
      Value::Int(3),          Value::Int(-1),     Value::Int(0),
      Value::Int(-7),         Value::Bigint(int64_t{5} << 20),
      Value::Bigint(-5),      Value::Bigint(int64_t{1} << 53),
      Value::Double(2.5),     Value::Double(-0.0),
      Value::Double(0.0),     Value::Double(3.0), Value::Double(-1e300)};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  const std::pair<Value, Value> ranges[] = {
      {Value::Int(-1), Value::Int(3)},
      {Value::Int(3), Value::Int(-1)},  // lo > hi: nothing qualifies
      {Value::Double(-0.0), Value::Double(2.5)},
      {Value::Bigint(-5), Value::Double(3.0)},
      {Value::Double(0.5), Value::Int(2147483647)}};
  const char* names[] = {"i", "b", "dt", "d", "s", "after"};
  for (const int col : {0, 1, 2, 3, 5}) {
    const TypeId type = table_->columns[col].type;
    const auto column = [&] { return Expr::Column(0, col, type, names[col]); };
    std::vector<std::pair<optimizer::ExprPtr, std::string>> conjuncts;
    for (const Value& lit : literals) {
      for (const CompareOp op : ops) {
        conjuncts.emplace_back(
            Expr::Compare(op, column(), Expr::Literal(lit)),
            std::string(names[col]) + " op" +
                std::to_string(static_cast<int>(op)) + " " + lit.ToString());
      }
      // literal <op> column mirrors the operator.
      conjuncts.emplace_back(
          Expr::Compare(CompareOp::kLt, Expr::Literal(lit), column()),
          lit.ToString() + " < " + names[col]);
    }
    for (const auto& [lo, hi] : ranges) {
      conjuncts.emplace_back(
          Expr::Between(column(), Expr::Literal(lo), Expr::Literal(hi)),
          std::string(names[col]) + " BETWEEN " + lo.ToString() + " AND " +
              hi.ToString());
    }
    for (const auto& [conjunct, what] : conjuncts) {
      const RuntimeStats stats = ExpectSameRows(conjunct, what);
      if (col == 5) {
        // Behind the VARCHAR: no pushdown, every row is decoded.
        EXPECT_EQ(stats.rows_decoded, rows_.size()) << what;
        continue;
      }
      // Pushed: a NULL-free row is decoded only when it matches; a row
      // with a NULL is decoded first and matched by FastMatch.
      uint64_t with_null = 0;
      for (const table::Row& r : rows_) with_null += HasNull(r) ? 1 : 0;
      EXPECT_GE(stats.rows_decoded, with_null) << what;
      EXPECT_LE(stats.rows_decoded, with_null + stats.rows_output) << what;
    }
  }
}

TEST_F(ScanPushdownTest, OnlyTheLeadingRunIsPushed) {
  using optimizer::CompareOp;
  using optimizer::Expr;
  // d > 0 is pushed; the LIKE stops the run, so i <> 3 after it is not.
  const auto residual = Expr::And(
      Expr::And(Expr::Compare(CompareOp::kGt,
                              Expr::Column(0, 3, TypeId::kDouble, "d"),
                              Expr::Literal(Value::Int(0))),
                Expr::Like(Expr::Column(0, 4, TypeId::kVarchar, "s"), "ab%")),
      Expr::Compare(CompareOp::kNe, Expr::Column(0, 0, TypeId::kInt, "i"),
                    Expr::Literal(Value::Int(3))));
  const RuntimeStats stats = ExpectSameRows(residual, "d > 0, LIKE, i <> 3");
  EXPECT_LT(stats.rows_decoded, stats.rows_scanned);
  EXPECT_GT(stats.rows_decoded, stats.rows_output);
}

// One pin per page: the iterator keeps its page pinned across calls, so a
// full scan pins each of the table's pages once at any batch cap.
TEST(HeapScanPinsTest, FullScanPinsEachPageOnce) {
  auto db = engine::Database::Open();
  ASSERT_TRUE(db.ok());
  auto conn = (*db)->Connect();
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(
      (*conn)->Execute("CREATE TABLE p (k INT NOT NULL, v DOUBLE)").ok());
  std::vector<table::Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back({Value::Int(i), Value::Double(i * 0.5)});
  }
  ASSERT_TRUE((*db)->LoadTable("p", rows).ok());
  catalog::TableDef* def = *(*db)->catalog().GetTable("p");
  const uint64_t pages = def->page_count;
  ASSERT_GT(pages, 10u);
  const auto pins = [&] {
    const storage::BufferPoolStats s = (*db)->pool().stats();
    return s.hits + s.misses;
  };
  auto scan = std::make_unique<optimizer::PlanNode>();
  scan->kind = optimizer::PlanKind::kSeqScan;
  scan->quantifier = 0;
  scan->table = def;
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    // Straight off the heap iterator...
    uint64_t before = pins();
    {
      auto it = (*db)->heap(def->oid)->Scan();
      std::vector<table::Row> out;
      std::vector<Rid> rids;
      size_t total = 0;
      for (;;) {
        auto n = it.NextRows(cap, &out, &rids);
        ASSERT_TRUE(n.ok());
        if (*n == 0) break;
        total += *n;
      }
      EXPECT_EQ(total, rows.size());
    }
    EXPECT_EQ(pins() - before, pages) << "iterator, cap " << cap;
    // ...and through the executor's scan.
    ExecContext ec;
    ec.pool = &(*db)->pool();
    ec.table_heap = [&](uint32_t oid) { return (*db)->heap(oid); };
    ec.num_quantifiers = 1;
    ec.batch_cap = cap;
    before = pins();
    auto got = ExecuteToRows(scan.get(), &ec);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), rows.size());
    EXPECT_EQ(pins() - before, pages) << "executor, cap " << cap;
  }
}

// --- Hash-join key filters (DESIGN.md §9) ---

// `probe` (k = i % 500, 4000 rows) joins `build` (k = multiples of 25,
// plus a NULL key): only a twentieth of the probe rows can join.
class KeyFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = engine::Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto conn = db_->Connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(
        (*conn)->Execute("CREATE TABLE probe (k INT, v INT NOT NULL)").ok());
    ASSERT_TRUE(
        (*conn)->Execute("CREATE TABLE build (k INT, w INT NOT NULL)").ok());
    ASSERT_TRUE(
        (*conn)->Execute("CREATE TABLE outer3 (x INT NOT NULL)").ok());
    ASSERT_TRUE((*conn)->Execute("CREATE TABLE dprobe (k DOUBLE)").ok());
    ASSERT_TRUE(
        (*conn)->Execute("CREATE TABLE dbuild (k DOUBLE, w INT NOT NULL)").ok());
    std::vector<table::Row> rows;
    for (int i = 0; i < 4000; ++i) {
      rows.push_back({i % 97 == 0 ? Value::Null(TypeId::kInt)
                                  : Value::Int(i % 500),
                      Value::Int(i)});
    }
    ASSERT_TRUE(db_->LoadTable("probe", rows).ok());
    rows.clear();
    for (int k = 0; k < 500; k += 25) {
      rows.push_back({Value::Int(k), Value::Int(k / 25)});
    }
    rows.push_back({Value::Null(TypeId::kInt), Value::Int(-1)});
    ASSERT_TRUE(db_->LoadTable("build", rows).ok());
    ASSERT_TRUE(db_->LoadTable("outer3", {{Value::Int(0)},
                                          {Value::Int(5)},
                                          {Value::Int(10)}})
                    .ok());
    rows.clear();
    for (int i = 0; i < 1000; ++i) {
      rows.push_back({i % 3 == 0 ? Value::Double(i % 500 + 0.5)
                                 : Value::Double(static_cast<double>(i % 500))});
    }
    ASSERT_TRUE(db_->LoadTable("dprobe", rows).ok());
    rows.clear();
    for (int k = 0; k < 500; k += 25) {
      rows.push_back({Value::Double(k), Value::Int(k / 25)});
      rows.push_back({Value::Double(k + 0.5), Value::Int(-1)});
    }
    ASSERT_TRUE(db_->LoadTable("dbuild", rows).ok());
  }

  std::unique_ptr<optimizer::PlanNode> ScanOf(const char* name, int q) {
    auto scan = std::make_unique<optimizer::PlanNode>();
    scan->kind = optimizer::PlanKind::kSeqScan;
    scan->quantifier = q;
    scan->table = *db_->catalog().GetTable(name);
    return scan;
  }

  /// probe ⋈ build on k, with `probe_side` as the join's outer child.
  std::unique_ptr<optimizer::PlanNode> Join(
      std::unique_ptr<optimizer::PlanNode> probe_side) {
    auto join = std::make_unique<optimizer::PlanNode>();
    join->kind = optimizer::PlanKind::kHashJoin;
    join->quantifier = 1;
    join->outer_key = optimizer::Expr::Column(0, 0, TypeId::kInt, "probe.k");
    join->inner_key = optimizer::Expr::Column(1, 0, TypeId::kInt, "build.k");
    join->children.push_back(std::move(probe_side));
    join->children.push_back(ScanOf("build", 1));
    join->children[1]->est_rows = 21;  // sizes the key filter
    return join;
  }

  struct Ran {
    std::vector<std::string> rows;
    uint64_t probe_rows = 0;      // EXPLAIN ANALYZE actual rows of probe
    uint64_t probe_filtered = 0;  // ... and its hash_filter=
  };

  Ran Run(const optimizer::PlanNode* plan, const optimizer::PlanNode* probe,
          size_t cap) {
    optimizer::OpActualsMap actuals;
    ExecContext ec;
    ec.pool = &db_->pool();
    ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
    ec.num_quantifiers = 3;
    ec.batch_cap = cap;
    ec.actuals = &actuals;
    auto rows = ExecuteToRows(plan, &ec);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    Ran out;
    out.probe_rows = actuals[probe].rows;
    out.probe_filtered = actuals[probe].hash_filtered;
    if (!rows.ok()) return out;
    for (const auto& row : *rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.rows.push_back(std::move(line));
    }
    std::sort(out.rows.begin(), out.rows.end());
    return out;
  }

  std::unique_ptr<engine::Database> db_;
};

TEST_F(KeyFilterTest, ProbeScanDropsRowsThatCannotJoin) {
  const auto plan = Join(ScanOf("probe", 0));
  const optimizer::PlanNode* probe = plan->children[0].get();
  // Reference: 20 build keys, each matched by 8 probe rows, less the
  // rows whose k is NULL (every 97th row).
  size_t expect = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 97 != 0 && (i % 500) % 25 == 0) ++expect;
  }
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    const Ran r = Run(plan.get(), probe, cap);
    EXPECT_EQ(r.rows.size(), expect) << "cap " << cap;
    // Actual rows still count every row the scan's own predicates (none)
    // passed; the filter's drops are printed beside them.
    EXPECT_EQ(r.probe_rows, 4000u) << "cap " << cap;
    EXPECT_GT(r.probe_filtered, 4000u - 2 * expect) << "cap " << cap;
  }
}

TEST_F(KeyFilterTest, IntegralDoubleProbeKeysStillJoin) {
  // The scan hashes DOUBLE keys off the encoded row; an integral DOUBLE
  // must hash like the INT build key it equals.
  auto plan = Join(ScanOf("dprobe", 0));
  plan->outer_key = optimizer::Expr::Column(0, 0, TypeId::kDouble, "dprobe.k");
  const optimizer::PlanNode* probe = plan->children[0].get();
  size_t expect = 0;
  for (int i = 0; i < 1000; ++i) {
    if (i % 3 != 0 && (i % 500) % 25 == 0) ++expect;
  }
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    const Ran r = Run(plan.get(), probe, cap);
    EXPECT_EQ(r.rows.size(), expect) << "cap " << cap;
    EXPECT_GT(r.probe_filtered, 1000u - 2 * expect) << "cap " << cap;
  }
}

TEST_F(KeyFilterTest, IntProbeKeysMatchIntegralDoubleBuildKeys) {
  auto plan = Join(ScanOf("probe", 0));
  plan->children[1] = ScanOf("dbuild", 1);
  plan->children[1]->est_rows = 40;
  plan->inner_key = optimizer::Expr::Column(1, 0, TypeId::kDouble, "dbuild.k");
  const optimizer::PlanNode* probe = plan->children[0].get();
  size_t expect = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 97 != 0 && (i % 500) % 25 == 0) ++expect;
  }
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    const Ran r = Run(plan.get(), probe, cap);
    EXPECT_EQ(r.rows.size(), expect) << "cap " << cap;
    EXPECT_GT(r.probe_filtered, 4000u - 2 * expect) << "cap " << cap;
  }
}

TEST_F(KeyFilterTest, FeedbackNeverSeesTheFilter) {
  // `k + 1 < 300` cannot be compiled, so no conjunct runs before decode
  // and the filter must not run either: the observed `v >= 100` still
  // sees every row the first conjunct passed.
  using optimizer::CompareOp;
  using optimizer::Expr;
  auto plan = Join(ScanOf("probe", 0));
  optimizer::PlanNode* probe = plan->children[0].get();
  probe->residual = Expr::And(
      Expr::Compare(CompareOp::kLt,
                    Expr::Arith(optimizer::ArithOp::kAdd,
                                Expr::Column(0, 0, TypeId::kInt, "probe.k"),
                                Expr::Literal(Value::Int(1))),
                    Expr::Literal(Value::Int(300))),
      Expr::Compare(CompareOp::kGe, Expr::Column(0, 1, TypeId::kInt, "probe.v"),
                    Expr::Literal(Value::Int(100))));
  uint64_t seen = 0, matched = 0;
  for (int i = 0; i < 4000; ++i) {
    if (i % 97 == 0 || i % 500 + 1 >= 300) continue;
    ++seen;
    if (i >= 100) ++matched;
  }
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    stats::FeedbackCollector fc;
    ExecContext ec;
    ec.pool = &db_->pool();
    ec.table_heap = [this](uint32_t oid) { return db_->heap(oid); };
    ec.num_quantifiers = 2;
    ec.batch_cap = cap;
    ec.feedback = &fc;
    auto rows = ExecuteToRows(plan.get(), &ec);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    const std::vector<std::pair<uint64_t, uint64_t>> expected = {
        {seen, matched}};
    EXPECT_EQ(fc.PendingCounts(), expected) << "cap " << cap;
  }
}

TEST_F(KeyFilterTest, NoFilterCrossesALimit) {
  auto limit = std::make_unique<optimizer::PlanNode>();
  limit->kind = optimizer::PlanKind::kLimit;
  limit->limit = 1000;
  limit->children.push_back(ScanOf("probe", 0));
  const optimizer::PlanNode* probe = limit->children[0].get();
  const auto plan = Join(std::move(limit));
  size_t expect = 0;
  for (int i = 0; i < 1000; ++i) {
    if (i % 97 != 0 && (i % 500) % 25 == 0) ++expect;
  }
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    const Ran r = Run(plan.get(), probe, cap);
    // A filter below the LIMIT would let it count only joining rows.
    EXPECT_EQ(r.rows.size(), expect) << "cap " << cap;
    EXPECT_EQ(r.probe_filtered, 0u) << "cap " << cap;
  }
}

TEST_F(KeyFilterTest, NestedLoopInnerReopensWithAFreshFilter) {
  // outer3 ⋈NL (probe ⋈ build) on outer3.x < build.w: the hash join is
  // closed and re-opened once per outer row, and must rebuild, republish
  // and withdraw its filter each time.
  auto nl = std::make_unique<optimizer::PlanNode>();
  nl->kind = optimizer::PlanKind::kNLJoin;
  nl->extra_condition = optimizer::Expr::Compare(
      optimizer::CompareOp::kLt,
      optimizer::Expr::Column(2, 0, TypeId::kInt, "outer3.x"),
      optimizer::Expr::Column(1, 1, TypeId::kInt, "build.w"));
  nl->children.push_back(ScanOf("outer3", 2));
  nl->children.push_back(Join(ScanOf("probe", 0)));
  const optimizer::PlanNode* probe = nl->children[1]->children[0].get();
  size_t expect = 0;
  for (const int x : {0, 5, 10}) {
    for (int i = 0; i < 4000; ++i) {
      const int k = i % 500;
      if (i % 97 != 0 && k % 25 == 0 && x < k / 25) ++expect;
    }
  }
  for (const size_t cap : {size_t{1}, size_t{7}, size_t{1024}}) {
    const Ran r = Run(nl.get(), probe, cap);
    EXPECT_EQ(r.rows.size(), expect) << "cap " << cap;
    EXPECT_EQ(r.probe_rows, 3 * 4000u) << "cap " << cap;
    EXPECT_GT(r.probe_filtered, 0u) << "cap " << cap;
  }
}

}  // namespace
}  // namespace hdb::exec
