#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "os/stable_storage.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "wal/checkpoint_governor.h"
#include "wal/wal_manager.h"
#include "wal/wal_record.h"

namespace hdb::wal {
namespace {

constexpr uint32_t kPageBytes = 1024;

struct Rig {
  std::shared_ptr<os::StableStorage> media;
  std::unique_ptr<storage::DiskManager> disk;
  std::unique_ptr<WalManager> wal;

  explicit Rig(os::FaultOptions faults = {}, WalOptions wopts = {})
      : media(std::make_shared<os::StableStorage>(kPageBytes, faults)) {
    Reopen(wopts);
  }

  /// kill -9 + power loss: the WalManager's shutdown flush must fail, not
  /// quietly rescue the un-synced tail, so the media dies first.
  void Crash() {
    media->ScheduleCrash(0);
    wal.reset();
    disk.reset();
    media->PowerCycle();
  }

  /// Simulated restart: new DiskManager + WalManager over the same media.
  void Reopen(WalOptions wopts = {}) {
    wal.reset();
    disk = std::make_unique<storage::DiskManager>(kPageBytes, nullptr,
                                                  nullptr, media);
    wal = std::make_unique<WalManager>(disk.get(), wopts);
  }
};

storage::Lsn Append(WalManager& wal, uint64_t txn, const std::string& payload,
                    WalRecordType type = WalRecordType::kHeapInsert) {
  auto lsn = wal.Append(type, txn, payload);
  EXPECT_TRUE(lsn.ok()) << lsn.status().message();
  return lsn.ok() ? *lsn : storage::kNullLsn;
}

TEST(WalManagerTest, AppendScanRoundtripAcrossPages) {
  Rig rig;
  // Payloads big enough that the log spills onto several pages.
  const std::string blob(200, 'x');
  std::vector<storage::Lsn> lsns;
  for (uint64_t i = 1; i <= 20; ++i) {
    lsns.push_back(Append(*rig.wal, i, blob + std::to_string(i)));
  }
  ASSERT_TRUE(rig.wal->EnsureDurable(lsns.back()).ok());
  ASSERT_GT(rig.disk->NumPages(storage::SpaceId::kLog), 1u);

  auto scan = rig.wal->ScanLog();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(scan->records[i].lsn, lsns[i]);
    EXPECT_EQ(scan->records[i].txn_id, i + 1);
    EXPECT_EQ(scan->records[i].payload, blob + std::to_string(i + 1));
    EXPECT_EQ(scan->records[i].type, WalRecordType::kHeapInsert);
  }
  EXPECT_EQ(scan->max_lsn, lsns.back());
  EXPECT_EQ(scan->max_txn_id, 20u);
}

TEST(WalManagerTest, PowerCycleKeepsExactlyTheDurablePrefix) {
  Rig rig;
  const storage::Lsn l1 = Append(*rig.wal, 1, "one");
  const storage::Lsn l2 = Append(*rig.wal, 1, "two");
  ASSERT_TRUE(rig.wal->EnsureDurable(l2).ok());
  Append(*rig.wal, 2, "lost-a");
  Append(*rig.wal, 2, "lost-b");

  rig.Crash();
  rig.Reopen();
  auto scan = rig.wal->ScanLog();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].lsn, l1);
  EXPECT_EQ(scan->records[1].lsn, l2);
  EXPECT_EQ(scan->records[1].payload, "two");
}

TEST(WalManagerTest, ResumeBumpsEpochAndKeepsLsnsContinuous) {
  Rig rig;
  const storage::Lsn l1 = Append(*rig.wal, 1, "first-life");
  ASSERT_TRUE(rig.wal->EnsureDurable(l1).ok());
  rig.Crash();

  rig.Reopen();
  auto scan = rig.wal->ScanLog();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 1u);
  const uint32_t old_epoch = scan->records[0].epoch;
  ASSERT_TRUE(
      rig.wal->ResumeAt(scan->tail_page, scan->tail_offset, scan->max_lsn + 1)
          .ok());

  const storage::Lsn l2 = Append(*rig.wal, 2, "second-life");
  EXPECT_EQ(l2, l1 + 1);
  ASSERT_TRUE(rig.wal->EnsureDurable(l2).ok());

  auto rescan = rig.wal->ScanLog();
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->records.size(), 2u);
  EXPECT_EQ(rescan->records[0].payload, "first-life");
  EXPECT_EQ(rescan->records[1].payload, "second-life");
  EXPECT_GT(rescan->records[1].epoch, old_epoch);
}

TEST(WalManagerTest, TornTailSalvagesValidRecordPrefix) {
  os::FaultOptions faults;
  faults.seed = 11;
  faults.torn_write = true;
  Rig rig(faults);

  const storage::Lsn l1 = Append(*rig.wal, 1, "durable-record");
  ASSERT_TRUE(rig.wal->EnsureDurable(l1).ok());
  // Fill past the first page: advancing eagerly writes page 0 (now also
  // carrying the second record) to the media cache. Power dies with that
  // rewrite pending, so the media tears it: a mix of old (l1-only) and new
  // sectors.
  Append(*rig.wal, 2, std::string(600, 'z'));
  Append(*rig.wal, 3, std::string(600, 'w'));
  rig.Crash();

  rig.Reopen();
  auto scan = rig.wal->ScanLog();
  ASSERT_TRUE(scan.ok()) << scan.status().message();
  // The salvage must keep l1 (its bytes are identical in both images) and
  // may or may not keep the torn record — but never garbage.
  ASSERT_GE(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].lsn, l1);
  EXPECT_EQ(scan->records[0].payload, "durable-record");
  for (size_t i = 0; i < scan->records.size(); ++i) {
    EXPECT_EQ(scan->records[i].lsn, l1 + i);  // strict continuity
  }

  // And the writer can resume past the salvage point.
  ASSERT_TRUE(
      rig.wal->ResumeAt(scan->tail_page, scan->tail_offset, scan->max_lsn + 1)
          .ok());
  const storage::Lsn l3 = Append(*rig.wal, 3, "after-salvage");
  ASSERT_TRUE(rig.wal->EnsureDurable(l3).ok());
  auto rescan = rig.wal->ScanLog();
  ASSERT_TRUE(rescan.ok());
  EXPECT_EQ(rescan->records.back().payload, "after-salvage");
}

TEST(WalManagerTest, GroupCommitMakesWaitersDurable) {
  WalOptions wopts;
  wopts.group_commit = true;
  Rig rig({}, wopts);
  rig.wal->StartFlusher();

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        auto lsn = rig.wal->Append(WalRecordType::kCommit,
                                   static_cast<uint64_t>(t * 100 + i), "");
        if (!lsn.ok() || !rig.wal->WaitDurable(*lsn).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const WalStats s = rig.wal->stats();
  EXPECT_EQ(s.appends, 80u);
  EXPECT_GE(s.durable_lsn, s.appended_lsn);
  EXPECT_GE(s.group_batches, 1u);
  rig.wal->Shutdown();
}

// Regression: a direct EnsureDurable (checkpoint, WAL-before-data barrier)
// that covers a committer's target between the committer's wakeup of the
// flusher and the flusher's re-check used to leave the committer asleep on
// the group-commit condition variable for good. The committers must all
// finish; on a deadline the test fails and Shutdown() releases them.
TEST(WalManagerTest, DirectFlushWakesGroupCommitWaiters) {
  WalOptions wopts;
  wopts.group_commit = true;
  Rig rig({}, wopts);
  rig.wal->StartFlusher();

  constexpr int kCommitters = 2;
  constexpr int kCommitsEach = 3000;
  std::atomic<int> finished{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> committers;
  for (int t = 0; t < kCommitters; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kCommitsEach; ++i) {
        auto lsn = rig.wal->Append(WalRecordType::kCommit,
                                   static_cast<uint64_t>(t * 100000 + i), "");
        if (!lsn.ok() || !rig.wal->WaitDurable(*lsn).ok()) {
          failures.fetch_add(1);
        }
      }
      finished.fetch_add(1);
    });
  }
  std::atomic<bool> stop{false};
  std::thread direct([&] {
    uint64_t txn = 1u << 30;
    while (!stop.load()) {
      auto lsn = rig.wal->Append(WalRecordType::kHeapInsert, txn++, "x");
      if (!lsn.ok() || !rig.wal->EnsureDurable(*lsn).ok()) {
        failures.fetch_add(1);
      }
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (finished.load() < kCommitters &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool all_finished = finished.load() == kCommitters;
  stop.store(true);
  direct.join();
  // Releases any committer still parked, so a failure cannot hang.
  rig.wal->Shutdown();
  for (auto& th : committers) th.join();
  EXPECT_TRUE(all_finished) << "committers left waiting after a direct flush";
  if (all_finished) {
    EXPECT_EQ(failures.load(), 0);
  }
}

TEST(WalManagerTest, CommitWaitSurfacesMediaDeath) {
  WalOptions wopts;
  wopts.group_commit = true;
  Rig rig({}, wopts);
  rig.wal->StartFlusher();

  const storage::Lsn ok_lsn = Append(*rig.wal, 1, "", WalRecordType::kCommit);
  ASSERT_TRUE(rig.wal->WaitDurable(ok_lsn).ok());

  rig.media->ScheduleCrash(0);
  auto lsn = rig.wal->Append(WalRecordType::kCommit, 2, "");
  if (lsn.ok()) {
    EXPECT_FALSE(rig.wal->WaitDurable(*lsn).ok());
  }
  rig.wal->Shutdown();
}

TEST(WalManagerTest, DisabledWalIsInert) {
  WalOptions wopts;
  wopts.enabled = false;
  Rig rig({}, wopts);
  auto lsn = rig.wal->Append(WalRecordType::kHeapInsert, 1, "ignored");
  ASSERT_TRUE(lsn.ok());
  EXPECT_TRUE(rig.wal->EnsureDurable(*lsn).ok());
  EXPECT_TRUE(rig.wal->WaitDurable(*lsn).ok());
  EXPECT_EQ(rig.disk->NumPages(storage::SpaceId::kLog), 0u);
  EXPECT_EQ(rig.wal->stats().appends, 0u);
}

// ---------------------------------------------------------------------------
// WAL-before-data barrier through the buffer pool.
// ---------------------------------------------------------------------------

TEST(WalBarrierTest, FlushingALoggedPageForcesLogDurabilityFirst) {
  Rig rig;
  storage::BufferPoolOptions popts;
  popts.initial_frames = 16;
  storage::BufferPool pool(rig.disk.get(), popts);
  pool.SetFlushBarrier(
      [&](storage::Lsn lsn) { return rig.wal->EnsureDurable(lsn); });

  const storage::Lsn lsn = Append(*rig.wal, 1, "page change");
  EXPECT_LT(rig.wal->durable_lsn(), lsn);  // not yet durable

  storage::PageId id = storage::kInvalidPageId;
  {
    auto h = pool.NewPage(storage::SpaceId::kMain, storage::PageType::kHeap,
                          /*owner=*/0, &id);
    ASSERT_TRUE(h.ok());
    h->data()[0] = 'w';
    h->MarkDirty(lsn);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // The barrier ran: everything up to the page's LSN hit the media first.
  EXPECT_GE(rig.wal->durable_lsn(), lsn);
}

TEST(WalBarrierTest, MinDirtyLsnTracksPinnedUnflushedFrames) {
  Rig rig;
  storage::BufferPoolOptions popts;
  popts.initial_frames = 16;
  storage::BufferPool pool(rig.disk.get(), popts);
  pool.SetFlushBarrier(
      [&](storage::Lsn lsn) { return rig.wal->EnsureDurable(lsn); });

  const storage::Lsn lsn = Append(*rig.wal, 1, "pinned change");
  storage::PageId id = storage::kInvalidPageId;
  {
    auto h = pool.NewPage(storage::SpaceId::kMain, storage::PageType::kHeap,
                          /*owner=*/0, &id);
    ASSERT_TRUE(h.ok());
    h->data()[0] = 'p';
    h->MarkDirty(lsn);
  }  // unpin records the frame's LSN
  auto repin = pool.FetchPage({storage::SpaceId::kMain, id},
                              storage::PageType::kHeap, /*owner=*/0);
  ASSERT_TRUE(repin.ok());
  // Frame is pinned: FlushAll must skip it and MinDirtyLsn must report it —
  // the checkpoint's min recLSN (redo must start at or before this LSN).
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.MinDirtyLsn(), lsn);
}

TEST(WalBarrierTest, MarkDirtyPublishesRecLsnWhileStillPinned) {
  Rig rig;
  storage::BufferPoolOptions popts;
  popts.initial_frames = 16;
  storage::BufferPool pool(rig.disk.get(), popts);
  pool.SetFlushBarrier(
      [&](storage::Lsn lsn) { return rig.wal->EnsureDurable(lsn); });

  const storage::Lsn lsn = Append(*rig.wal, 1, "mutation");
  storage::PageId id = storage::kInvalidPageId;
  auto h = pool.NewPage(storage::SpaceId::kMain, storage::PageType::kHeap,
                        /*owner=*/0, &id);
  ASSERT_TRUE(h.ok());
  h->data()[0] = 'm';
  h->MarkDirty(lsn);
  // The frame's dirty flag and recLSN must be visible *before* the handle
  // is released: a fuzzy checkpoint running concurrently with a pinned
  // mutator must not see the frame as clean and skip it in min recLSN.
  EXPECT_EQ(pool.MinDirtyLsn(), lsn);
}

TEST(WalBarrierTest, InflightLsnRegistersAndReleases) {
  Rig rig;
  EXPECT_EQ(rig.wal->MinInflightLsn(), storage::kNullLsn);
  WalManager::InflightLsn inflight;
  auto lsn = rig.wal->Append(WalRecordType::kHeapInsert, 1, "in flight",
                             /*flags=*/0, &inflight);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(rig.wal->MinInflightLsn(), *lsn);
  inflight.Release();
  EXPECT_EQ(rig.wal->MinInflightLsn(), storage::kNullLsn);
}

TEST(CheckpointGovernorTest, CheckpointCoversInflightMutation) {
  Rig rig;
  storage::BufferPoolOptions popts;
  popts.initial_frames = 16;
  storage::BufferPool pool(rig.disk.get(), popts);
  pool.SetFlushBarrier(
      [&](storage::Lsn lsn) { return rig.wal->EnsureDurable(lsn); });
  os::VirtualClock clock(0);
  CheckpointGovernor gov(rig.wal.get(), &pool, &clock);

  // A mutator has appended its record but not yet published the change to
  // a frame (the append-to-MarkDirty window). A checkpoint firing inside
  // that window must pull its redo start back to the in-flight LSN even
  // though every frame looks clean.
  WalManager::InflightLsn inflight;
  auto lsn = rig.wal->Append(WalRecordType::kHeapInsert, 1, "unpublished",
                             /*flags=*/0, &inflight);
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE(gov.ForceCheckpoint("test").ok());
  inflight.Release();

  auto scan = rig.wal->ScanLog();
  ASSERT_TRUE(scan.ok());
  ASSERT_GE(scan->records.size(), 3u);
  const WalRecord& end = scan->records.back();
  ASSERT_EQ(end.type, WalRecordType::kCheckpointEnd);
  storage::Lsn begin = storage::kNullLsn, min_rec = storage::kNullLsn;
  ASSERT_TRUE(DecodeCheckpointEnd(end, &begin, &min_rec));
  EXPECT_NE(min_rec, storage::kNullLsn);
  EXPECT_LE(min_rec, *lsn);  // redo restarts at or before the mutation
}

// ---------------------------------------------------------------------------
// Checkpoint governor: trigger derives from measurements, no interval knob.
// ---------------------------------------------------------------------------

TEST(CheckpointGovernorTest, CostBalanceFiresAndResetsLogDebt) {
  Rig rig;
  storage::BufferPoolOptions popts;
  popts.initial_frames = 16;
  storage::BufferPool pool(rig.disk.get(), popts);
  pool.SetFlushBarrier(
      [&](storage::Lsn lsn) { return rig.wal->EnsureDurable(lsn); });
  os::VirtualClock clock(0);
  CheckpointGovernor gov(rig.wal.get(), &pool, &clock);

  EXPECT_FALSE(gov.MaybeCheckpoint());  // empty log: nothing to bound

  // Accumulate enough log that the estimated redo work after a crash
  // exceeds the (cheap: pool is clean) cost of checkpointing now.
  const std::string blob(500, 'y');
  storage::Lsn last = storage::kNullLsn;
  while (rig.wal->bytes_since_checkpoint() < 256 * 1024) {
    last = Append(*rig.wal, 1, blob);
  }
  ASSERT_TRUE(rig.wal->EnsureDurable(last).ok());

  EXPECT_TRUE(gov.MaybeCheckpoint());
  EXPECT_EQ(gov.stats().checkpoints, 1u);
  EXPECT_EQ(rig.wal->bytes_since_checkpoint(), 0u);
  EXPECT_NE(rig.wal->last_checkpoint_begin(), storage::kNullLsn);
  // Debt cleared: the very next poll must not fire again.
  EXPECT_FALSE(gov.MaybeCheckpoint());
}

TEST(CheckpointGovernorTest, CheckpointPairSurvivesInLog) {
  Rig rig;
  storage::BufferPoolOptions popts;
  popts.initial_frames = 16;
  storage::BufferPool pool(rig.disk.get(), popts);
  os::VirtualClock clock(0);
  CheckpointGovernor gov(rig.wal.get(), &pool, &clock);

  Append(*rig.wal, 1, "before");
  ASSERT_TRUE(gov.ForceCheckpoint("test").ok());

  auto scan = rig.wal->ScanLog();
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[1].type, WalRecordType::kCheckpointBegin);
  EXPECT_EQ(scan->records[2].type, WalRecordType::kCheckpointEnd);
  storage::Lsn begin = storage::kNullLsn, min_rec = storage::kNullLsn;
  ASSERT_TRUE(DecodeCheckpointEnd(scan->records[2], &begin, &min_rec));
  EXPECT_EQ(begin, scan->records[1].lsn);
  EXPECT_EQ(min_rec, storage::kNullLsn);  // clean pool: everything flushed
}

}  // namespace
}  // namespace hdb::wal
