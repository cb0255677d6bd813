#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/clock_replacer.h"
#include "storage/disk_manager.h"
#include "storage/lookaside_queue.h"

namespace hdb::storage {
namespace {

std::unique_ptr<DiskManager> MakeDisk() {
  return std::make_unique<DiskManager>(kDefaultPageBytes, nullptr, nullptr);
}

TEST(DiskManagerTest, AllocateWriteRead) {
  auto disk = MakeDisk();
  const PageId id = disk->AllocatePage(SpaceId::kMain);
  std::vector<char> buf(kDefaultPageBytes, 'x');
  ASSERT_TRUE(disk->WritePage(SpaceId::kMain, id, buf.data()).ok());
  std::vector<char> out(kDefaultPageBytes);
  ASSERT_TRUE(disk->ReadPage(SpaceId::kMain, id, out.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data(), out.data(), kDefaultPageBytes), 0);
}

TEST(DiskManagerTest, FreeListReuse) {
  auto disk = MakeDisk();
  const PageId a = disk->AllocatePage(SpaceId::kTemp);
  disk->DeallocatePage(SpaceId::kTemp, a);
  const PageId b = disk->AllocatePage(SpaceId::kTemp);
  EXPECT_EQ(a, b);
  EXPECT_EQ(disk->NumPages(SpaceId::kTemp), 1u);
  EXPECT_EQ(disk->LivePages(SpaceId::kTemp), 1u);
}

TEST(DiskManagerTest, ReadOfUnallocatedPageFails) {
  auto disk = MakeDisk();
  std::vector<char> out(kDefaultPageBytes);
  EXPECT_EQ(disk->ReadPage(SpaceId::kMain, 99, out.data()).code(),
            StatusCode::kIOError);
}

TEST(DiskManagerTest, TotalBytesSpanSpaces) {
  auto disk = MakeDisk();
  disk->AllocatePage(SpaceId::kMain);
  disk->AllocatePage(SpaceId::kTemp);
  disk->AllocatePage(SpaceId::kLog);
  EXPECT_EQ(disk->TotalDatabaseBytes(), 3ull * kDefaultPageBytes);
}

TEST(LookasideQueueTest, FifoAndBounds) {
  LookasideQueue q(4);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(*q.Pop(), 1u);
  EXPECT_EQ(*q.Pop(), 2u);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(LookasideQueueTest, FullQueueRejectsPush) {
  LookasideQueue q(2);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_FALSE(q.Push(3));
}

TEST(LookasideQueueTest, ConcurrentPushPop) {
  LookasideQueue q(1024);
  constexpr int kPerThread = 20000;
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<int> popped_count{0};
  auto producer = [&q](int base) {
    for (int i = 0; i < kPerThread; ++i) {
      while (!q.Push(static_cast<uint32_t>(base + i))) {
        std::this_thread::yield();
      }
    }
  };
  auto consumer = [&]() {
    while (popped_count.load() < 2 * kPerThread) {
      if (auto v = q.Pop()) {
        popped_sum.fetch_add(*v);
        popped_count.fetch_add(1);
      }
    }
  };
  std::thread p1(producer, 0), p2(producer, kPerThread);
  std::thread c1(consumer), c2(consumer);
  p1.join();
  p2.join();
  c1.join();
  c2.join();
  uint64_t expected = 0;
  for (int i = 0; i < 2 * kPerThread; ++i) expected += i;
  EXPECT_EQ(popped_sum.load(), expected);
}

// --- Segmented clock replacement (paper §2.2) ---

TEST(ClockReplacerTest, EvictsUntouchedFrameFirst) {
  ClockReplacer clock(8);
  for (uint32_t f = 0; f < 8; ++f) {
    clock.RecordReference(f);
    clock.SetEvictable(f, true);
  }
  // Re-reference everything except frame 3, across segments.
  for (int round = 0; round < 4; ++round) {
    for (uint32_t f = 0; f < 8; ++f) {
      if (f != 3) clock.RecordReference(f);
    }
  }
  const auto victim = clock.Victim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, 3u);
}

TEST(ClockReplacerTest, PinnedFramesNeverVictims) {
  ClockReplacer clock(2);
  clock.RecordReference(0);
  clock.RecordReference(1);
  clock.SetEvictable(0, false);
  clock.SetEvictable(1, false);
  EXPECT_FALSE(clock.Victim().has_value());
  clock.SetEvictable(1, true);
  EXPECT_EQ(*clock.Victim(), 1u);
}

TEST(ClockReplacerTest, ScanResistance) {
  // Hot pages re-referenced across segments accumulate score; a one-pass
  // scan touches pages once. The scanned page must be evicted before the
  // hot pages.
  ClockReplacer clock(16);
  for (uint32_t f = 0; f < 4; ++f) {
    clock.RecordReference(f);
    clock.SetEvictable(f, true);
  }
  // Many re-references of the hot set spread over the tick series.
  for (int round = 0; round < 20; ++round) {
    for (uint32_t f = 0; f < 4; ++f) clock.RecordReference(f);
  }
  // The "scan" loads frame 10 once.
  clock.RecordReference(10);
  clock.SetEvictable(10, true);
  EXPECT_EQ(*clock.Victim(), 10u);
}

TEST(ClockReplacerTest, AdjacentReferencesDoNotInflateScore) {
  // A burst of references in one segment counts once (the paper's table
  // scan pattern); a page referenced the same number of times but across
  // segments scores higher.
  ClockReplacer clock(64);
  clock.RecordReference(1);  // burst page
  for (int i = 0; i < 10; ++i) clock.RecordReference(1);
  const uint32_t burst_score = clock.EffectiveScore(1);

  clock.RecordReference(2);
  for (int i = 0; i < 10; ++i) {
    // Space references out: touch other frames to advance segments.
    for (uint32_t f = 10; f < 60; ++f) clock.RecordReference(f);
    clock.RecordReference(2);
  }
  EXPECT_GT(clock.EffectiveScore(2), burst_score);
}

TEST(ClockReplacerTest, ExponentialDecayMakesOldPagesCandidates) {
  ClockReplacer clock(8);
  for (int i = 0; i < 50; ++i) {
    for (uint32_t f = 0; f < 4; ++f) clock.RecordReference(f);
  }
  const uint32_t hot = clock.EffectiveScore(0);
  EXPECT_GT(hot, 0u);
  // Age frame 0 by referencing others for many windows.
  for (int i = 0; i < 2000; ++i) {
    for (uint32_t f = 1; f < 4; ++f) clock.RecordReference(f);
  }
  EXPECT_LT(clock.EffectiveScore(0), hot);
}

// Reference copy of the replacer's documented victim choice (DESIGN.md
// §4) in its plain form: every Victim() sweeps the whole pool and divides
// per frame. The differential tests below hold ClockReplacer to it.
class ReferenceClock {
 public:
  ReferenceClock(size_t n, uint32_t max_score)
      : max_score_(max_score), entries_(n) {}

  void Resize(size_t n) {
    entries_.resize(n);
    if (hand_ >= entries_.size()) hand_ = 0;
  }

  void RecordReference(uint32_t f) {
    if (f >= entries_.size()) return;
    ++tick_;
    Entry& e = entries_[f];
    const uint64_t width = SegmentWidth();
    if (!e.tracked) {
      e.tracked = true;
      e.score = 1;
    } else if (tick_ / width != e.last_ref_tick / width) {
      e.score = std::min(DecayedScore(e) + 1, max_score_);
    }
    e.last_ref_tick = tick_;
  }

  void SetEvictable(uint32_t f, bool evictable) {
    if (f < entries_.size()) entries_[f].evictable = evictable;
  }

  void Remove(uint32_t f) {
    if (f < entries_.size()) entries_[f] = Entry{};
  }

  std::optional<uint32_t> Victim() {
    if (entries_.empty()) return std::nullopt;
    const size_t n = entries_.size();
    int best = -1;
    uint32_t best_eff = 0;
    for (size_t step = 0; step < n; ++step) {
      const size_t current = (hand_ + step) % n;
      Entry& e = entries_[current];
      if (!e.tracked || !e.evictable) continue;
      const uint32_t eff = DecayedScore(e);
      if (eff == 0) {
        e = Entry{};
        hand_ = (current + 1) % n;
        return static_cast<uint32_t>(current);
      }
      if (best < 0 || eff < best_eff) {
        best = static_cast<int>(current);
        best_eff = eff;
      }
    }
    if (best < 0) return std::nullopt;
    entries_[best] = Entry{};
    hand_ = (static_cast<size_t>(best) + 1) % n;
    return static_cast<uint32_t>(best);
  }

  uint32_t EffectiveScore(uint32_t f) const {
    if (f >= entries_.size() || !entries_[f].tracked) return 0;
    return DecayedScore(entries_[f]);
  }

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t last_ref_tick = 0;
    uint32_t score = 0;
    bool evictable = false;
    bool tracked = false;
  };

  uint64_t SegmentWidth() const {
    return std::max<uint64_t>(8, entries_.size());
  }

  uint32_t DecayedScore(const Entry& e) const {
    const uint64_t width = SegmentWidth();
    const uint64_t age = tick_ >= e.last_ref_tick ? tick_ - e.last_ref_tick : 0;
    const uint64_t halvings = age / (width * 8);
    if (halvings >= 32) return 0;
    return e.score >> halvings;
  }

  uint32_t max_score_;
  uint64_t tick_ = 0;
  size_t hand_ = 0;
  std::vector<Entry> entries_;
};

void ExpectSameScores(const ClockReplacer& clock, const ReferenceClock& ref,
                      const char* where) {
  for (uint32_t f = 0; f < ref.size(); ++f) {
    ASSERT_EQ(clock.EffectiveScore(f), ref.EffectiveScore(f))
        << where << ": frame " << f;
  }
}

// Seeded random traces of every replacer call, with idle gaps long enough
// that decay fires, replayed through ClockReplacer and the reference: the
// victims and every effective score must agree at every step.
TEST(ClockReplacerTest, DifferentialAgainstReferenceSweep) {
  const uint32_t max_scores[] = {1, 3, 7};
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 rng(seed);
    const size_t sizes[] = {1, 2, 3, 8, 9, 31, 64, 257, 512, 1024};
    size_t n = seed <= 10 ? sizes[seed - 1]
                          : std::uniform_int_distribution<size_t>(1, 1024)(rng);
    const uint32_t max_score = max_scores[seed % 3];
    ClockReplacer clock(n, 8, max_score);
    ReferenceClock ref(n, max_score);
    auto pick = [&](size_t bound) {
      // Occasionally out of range: both must ignore it.
      return static_cast<uint32_t>(
          std::uniform_int_distribution<size_t>(0, bound)(rng));
    };
    for (int op = 0; op < 2500; ++op) {
      const int kind = std::uniform_int_distribution<int>(0, 99)(rng);
      if (kind < 30) {
        // Buffer-pool miss: evict, load the page, unpin it.
        const auto a = clock.Victim();
        const auto b = ref.Victim();
        ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
        if (a.has_value()) {
          clock.RecordReference(*a);
          ref.RecordReference(*a);
          clock.SetEvictable(*a, true);
          ref.SetEvictable(*a, true);
        }
        ExpectSameScores(clock, ref, "after victim");
      } else if (kind < 65) {
        // Hit: a small hot set mostly, anything sometimes.
        const uint32_t f = kind < 50 ? pick(std::min<size_t>(n, 16)) : pick(n);
        clock.RecordReference(f);
        ref.RecordReference(f);
        const bool unpin = std::uniform_int_distribution<int>(0, 9)(rng) != 0;
        clock.SetEvictable(f, unpin);
        ref.SetEvictable(f, unpin);
      } else if (kind < 80) {
        const uint32_t f = pick(n);
        const bool evictable = std::uniform_int_distribution<int>(0, 3)(rng) != 0;
        clock.SetEvictable(f, evictable);
        ref.SetEvictable(f, evictable);
      } else if (kind < 85) {
        const uint32_t f = pick(n);
        clock.Remove(f);
        ref.Remove(f);
      } else if (kind < 87) {
        n = std::uniform_int_distribution<size_t>(1, 1024)(rng);
        clock.Resize(n);
        ref.Resize(n);
      } else if (kind < 90) {
        // Idle gap: up to three decay windows of references to one frame
        // while every other frame ages.
        const uint32_t f = pick(n);
        const size_t window = std::max<size_t>(8, n) * 8;
        const size_t gap = std::uniform_int_distribution<size_t>(1, 3 * window)(rng);
        for (size_t i = 0; i < gap; ++i) {
          clock.RecordReference(f);
          ref.RecordReference(f);
        }
        ExpectSameScores(clock, ref, "after gap");
      } else {
        const auto a = clock.Victim();
        const auto b = ref.Victim();
        ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
      }
      if (HasFatalFailure()) return;
    }
    ExpectSameScores(clock, ref, "end of trace");
  }
}

// Work gate that does not depend on the host: a table scan streaming
// through a 512-frame pool, beside a small hot set, examines at most four
// frames per victim (the full sweep examined all 512) and chooses exactly
// the reference's victims.
TEST(ClockReplacerTest, SequentialScanVictimsAreConstantWork) {
  constexpr uint32_t kFrames = 512;
  ClockReplacer clock(kFrames);
  ReferenceClock ref(kFrames, 7);
  auto load = [&](uint32_t f) {
    clock.RecordReference(f);
    ref.RecordReference(f);
    clock.SetEvictable(f, true);
    ref.SetEvictable(f, true);
  };
  for (uint32_t f = 0; f < kFrames; ++f) load(f);
  const uint32_t hot[] = {3, 100, 257, 400};
  const uint64_t examined_before = clock.frames_examined();
  constexpr int kMisses = 4 * 2223;
  for (int i = 0; i < kMisses; ++i) {
    if (i % 64 == 0) {
      for (const uint32_t f : hot) load(f);
    }
    const auto a = clock.Victim();
    ASSERT_EQ(a, ref.Victim()) << "miss " << i;
    ASSERT_TRUE(a.has_value());
    load(*a);
  }
  const double per_victim =
      static_cast<double>(clock.frames_examined() - examined_before) / kMisses;
  EXPECT_LE(per_victim, 4.0);
  ExpectSameScores(clock, ref, "end of scan");
}

// --- Buffer pool ---

struct PoolFixture {
  std::unique_ptr<DiskManager> disk = MakeDisk();
  BufferPool pool{disk.get(), BufferPoolOptions{.initial_frames = 8}};
};

TEST(BufferPoolTest, NewFetchRoundTrip) {
  PoolFixture f;
  PageId id = kInvalidPageId;
  {
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
    ASSERT_TRUE(h.ok());
    std::memcpy(h->data(), "hello", 5);
    h->MarkDirty();
  }
  auto h2 = f.pool.FetchPage({SpaceId::kMain, id}, PageType::kTable, 1);
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(std::memcmp(h2->data(), "hello", 5), 0);
  EXPECT_EQ(f.pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  PoolFixture f;
  std::vector<PageId> ids;
  // Fill way past capacity; all unpinned after write.
  for (int i = 0; i < 32; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
    ASSERT_TRUE(h.ok());
    h->data()[0] = static_cast<char>(i);
    h->MarkDirty();
    ids.push_back(id);
  }
  EXPECT_GT(f.pool.stats().evictions, 0u);
  // Every page still readable with correct contents.
  for (int i = 0; i < 32; ++i) {
    auto h = f.pool.FetchPage({SpaceId::kMain, ids[i]}, PageType::kTable, 1);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->data()[0], static_cast<char>(i));
  }
}

TEST(BufferPoolTest, AllPinnedExhaustsPool) {
  PoolFixture f;
  std::vector<PageHandle> pins;
  for (int i = 0; i < 8; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
    ASSERT_TRUE(h.ok());
    pins.push_back(std::move(*h));
  }
  PageId id;
  auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
  EXPECT_EQ(h.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, ResizeGrowAddsFreeFrames) {
  PoolFixture f;
  EXPECT_EQ(f.pool.Resize(16), 16u);
  EXPECT_EQ(f.pool.CurrentFrames(), 16u);
}

TEST(BufferPoolTest, ResizeShrinkEvictsUnpinned) {
  PoolFixture f;
  for (int i = 0; i < 8; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
    ASSERT_TRUE(h.ok());
    h->MarkDirty();
  }
  EXPECT_EQ(f.pool.Resize(3), 3u);
  EXPECT_EQ(f.pool.CurrentFrames(), 3u);
}

TEST(BufferPoolTest, ShrinkStopsAtPinnedFrames) {
  PoolFixture f;
  std::vector<PageHandle> pins;
  for (int i = 0; i < 6; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
    ASSERT_TRUE(h.ok());
    pins.push_back(std::move(*h));
  }
  // 6 of 8 frames pinned: cannot shrink below 6.
  EXPECT_GE(f.pool.Resize(2), 6u);
}

TEST(BufferPoolTest, DiscardFeedsLookasideForImmediateReuse) {
  PoolFixture f;
  PageId id;
  {
    auto h = f.pool.NewPage(SpaceId::kTemp, PageType::kHeap, 2, &id);
    ASSERT_TRUE(h.ok());
  }
  f.pool.DiscardPage({SpaceId::kTemp, id});
  // Fill the pool so a victim is needed; the discarded frame is reused
  // via the lookaside queue once the free list runs dry.
  for (int i = 0; i < 12; ++i) {
    PageId id2;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id2);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_GT(f.pool.stats().lookaside_reuses, 0u);
}

TEST(BufferPoolTest, MissCounterResetsOnPoll) {
  PoolFixture f;
  PageId id;
  { auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id); }
  EXPECT_GT(f.pool.TakeMissesSinceLastPoll(), 0u);
  // Hits do not count as misses.
  { auto h = f.pool.FetchPage({SpaceId::kMain, id}, PageType::kTable, 1); }
  EXPECT_EQ(f.pool.TakeMissesSinceLastPoll(), 0u);
}

TEST(BufferPoolTest, OwnerResidencyTracksLoadedPages) {
  PoolFixture f;
  for (int i = 0; i < 4; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 7, &id);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(f.pool.ResidentPages(7), 4u);
  f.pool.Resize(2);  // evicts two
  EXPECT_LE(f.pool.ResidentPages(7), 2u);
}

TEST(BufferPoolTest, HeapStealAccounting) {
  PoolFixture f;
  // Create unpinned dirty heap pages, then force eviction pressure.
  for (int i = 0; i < 8; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kTemp, PageType::kHeap, 3, &id);
    ASSERT_TRUE(h.ok());
    h->MarkDirty();
  }
  for (int i = 0; i < 8; ++i) {
    PageId id;
    auto h = f.pool.NewPage(SpaceId::kMain, PageType::kTable, 1, &id);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_GT(f.pool.stats().heap_steals, 0u);
}

}  // namespace
}  // namespace hdb::storage
