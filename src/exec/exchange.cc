#include "exec/exchange.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "exec/agg.h"
#include "exec/hash_table.h"
#include "exec/spill.h"
#include "obs/span_names.h"
#include "obs/trace.h"

namespace hdb::exec {
namespace {

using optimizer::PlanKind;
using optimizer::PlanNode;
using optimizer::RowContext;

// ---------------------------------------------------------------------------
// Fragment shape. The optimizer only marks fragments of the form
// {Filter, Project}* over a non-virtual SeqScan (MarkParallelFragments),
// so a marked subtree always has exactly one scan quantifier and never a
// blocking operator — every worker can run a private copy of it against
// the shared morsel dispenser.
// ---------------------------------------------------------------------------

const PlanNode* FragmentScan(const PlanNode* n) {
  while (n->kind == PlanKind::kFilter || n->kind == PlanKind::kProject) {
    n = n->children[0].get();
  }
  return n->kind == PlanKind::kSeqScan ? n : nullptr;
}

/// Private execution context for one worker thread: shares the engine
/// callbacks, parameters, and the statement's TaskMemoryContext with the
/// coordinator, but owns its stats and is flagged so arena charges route
/// through ChargeBytesFromWorker (memory_governor.h contract). Feedback
/// and EXPLAIN ANALYZE actuals stay coordinator-only — neither collector
/// is thread-safe.
ExecContext MakeWorkerContext(const ExecContext& ec, MorselDispenser* source,
                              int quantifier) {
  ExecContext w;
  w.pool = ec.pool;
  w.table_heap = ec.table_heap;
  w.index = ec.index;
  w.feedback = nullptr;
  w.memory = ec.memory;
  w.num_quantifiers = ec.num_quantifiers;
  w.params = ec.params;
  w.virtual_rows = nullptr;
  w.actuals = nullptr;
  w.batch_cap = ec.batch_cap;
  w.scan_masks = ec.scan_masks;
  w.parallel = nullptr;  // no nested parallelism inside a fragment
  w.morsel_source = source;
  w.morsel_quantifier = quantifier;
  w.in_parallel_worker = true;
  return w;
}

/// Folds one worker's runtime counters into the coordinator's. Called
/// after the crew joined, so no synchronization is needed.
void FoldWorkerStats(ExecContext* ec, const RuntimeStats& w) {
  ec->stats.rows_scanned += w.rows_scanned;
  ec->stats.rows_decoded += w.rows_decoded;
  ec->stats.batches += w.batches;
  ec->stats.batch_rows += w.batch_rows;
  ec->stats.batch_arena_peak_bytes =
      std::max(ec->stats.batch_arena_peak_bytes, w.batch_arena_peak_bytes);
  ec->stats.batch_cap_shrinks += w.batch_cap_shrinks;
}

/// EXPLAIN ANALYZE `workers=` actual for the exchange's plan node.
void RecordActualWorkers(ExecContext* ec, const PlanNode* plan, int workers) {
  if (ec->actuals != nullptr) (*ec->actuals)[plan].workers = workers;
}

size_t WorkerBatchCap(const ExecContext& wc) {
  return wc.batch_cap != 0 ? wc.batch_cap : kDefaultBatchCap;
}

// ---------------------------------------------------------------------------
// Packets: worker → coordinator row transport. A packet owns its rows
// (copied out of the worker's batch), so its lifetime is independent of
// the producing fragment; the coordinator binds slot pointers straight
// into the packet and keeps it alive until the parent asks for the next
// batch (the RowBatch lifetime contract).
// ---------------------------------------------------------------------------

/// Rows per packet before a worker pushes (matches the batch cap so one
/// coordinator batch drains roughly one packet).
struct Packet {
  std::vector<uint16_t> slots;
  std::vector<std::vector<table::Row>> rows;  // parallel with `slots`
  std::vector<table::Row> output;
  bool has_output = false;
  size_t count = 0;
};

/// Copies the row bound in `ctx` into the packet; a non-null `output`
/// (the producing batch's projected row) is moved in beside it.
void AppendToPacket(Packet* p, const RowContext& ctx,
                    const std::vector<uint16_t>& slots, table::Row* output) {
  if (p->slots.empty()) {
    p->slots = slots;
    p->rows.resize(slots.size());
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    p->rows[i].push_back(*ctx.rows[slots[i]]);
  }
  if (output != nullptr) {
    p->output.push_back(std::move(*output));
    p->has_output = true;
  }
  p->count++;
}

/// Bounded MPMC queue of packets. Workers push (blocking while full, so
/// a slow coordinator applies backpressure instead of unbounded
/// buffering); the coordinator pops (blocking while empty until every
/// producer is done). Abort() unblocks everyone — Close()/destruction
/// must never deadlock on a full queue.
class PacketQueue {
 public:
  PacketQueue(size_t capacity, int producers)
      : cap_(std::max<size_t>(1, capacity)), producers_(producers) {}

  /// False when the queue was aborted (the worker should stop producing).
  bool Push(Packet&& p) {
    UniqueLock lock(mu_);
    // Explicit wait loops throughout (see admission_gate.cc): the
    // predicates read mu_-guarded state, which the thread-safety analysis
    // only accepts in a scope that visibly holds mu_.
    while (q_.size() >= cap_ && !aborted_) cv_.wait(lock);
    if (aborted_) return false;
    q_.push_back(std::move(p));
    cv_.notify_all();
    return true;
  }

  void ProducerDone() {
    {
      LockGuard lock(mu_);
      --producers_;
    }
    cv_.notify_all();
  }

  /// False when drained (all producers done, queue empty) or aborted.
  bool Pop(Packet* out) {
    UniqueLock lock(mu_);
    while (q_.empty() && producers_ > 0 && !aborted_) cv_.wait(lock);
    if (q_.empty()) return false;
    *out = std::move(q_.front());
    q_.pop_front();
    cv_.notify_all();
    return true;
  }

  void Abort() {
    {
      LockGuard lock(mu_);
      aborted_ = true;
      q_.clear();
    }
    cv_.notify_all();
  }

 private:
  const size_t cap_;
  RankedMutex<LockRank::kParallelQueue> mu_;
  std::condition_variable_any cv_;
  std::deque<Packet> q_ GUARDED_BY(mu_);
  int producers_ GUARDED_BY(mu_);
  bool aborted_ GUARDED_BY(mu_) = false;
};

// ---------------------------------------------------------------------------
// Worker crew: thread lifecycle + statement-trace propagation. Each
// worker installs the owning statement's trace (so waits inside morsels
// — pool misses, lock conflicts, WAL — land in the statement's tallies,
// DESIGN.md §11/§13) and brackets itself with a detached span; the first
// error any worker hits is kept for the coordinator.
// ---------------------------------------------------------------------------

class Crew {
 public:
  explicit Crew(obs::StatementTrace* trace) : trace_(trace) {}
  ~Crew() { Join(); }

  void Launch(int workers, std::function<Status(int)> body) {
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w, body] {
        obs::ScopedCurrentTrace install(trace_);
        uint32_t span = 0;
        if (trace_ != nullptr) {
          span = trace_->OpenDetachedSpan(obs::kSpanOpParallelWorker,
                                          "w" + std::to_string(w));
        }
        const Status s = body(w);
        if (trace_ != nullptr && span != 0) trace_->CloseSpan(span);
        if (!s.ok()) {
          LockGuard lock(mu_);
          if (error_.ok()) error_ = s;
        }
      });
    }
  }

  void Join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  /// Joins, then returns the first worker error (OK when all succeeded).
  Status TakeError() {
    Join();
    LockGuard lock(mu_);
    return error_;
  }

 private:
  obs::StatementTrace* trace_;
  std::vector<std::thread> threads_;
  RankedMutex<LockRank::kParallelMerge> mu_;
  Status error_ GUARDED_BY(mu_);
};

/// Installs the morsel-boundary revocation probe (paper §4.4: "the
/// number of threads can easily be changed during execution") on every
/// worker context. The scan polls it right before pulling a NEW morsel
/// (executor.cc), so a revoked worker never drops dispensed rows: it
/// sees end-of-input and winds down through its normal drain path.
/// Worker 0 always runs to completion so the pipeline cannot starve;
/// other workers stand down once the governor's target drops below
/// their index. `revoked` counts stand-downs for exec.parallel.*.
void InstallRevocationProbes(
    std::vector<ExecContext>* wctxs, ParallelismGovernor* gov,
    const std::shared_ptr<ParallelismGovernor::Pipeline>& pipeline,
    std::atomic<int>* revoked) {
  for (size_t w = 0; w < wctxs->size(); ++w) {
    ExecContext* wc = &(*wctxs)[w];
    if (w == 0 || gov == nullptr || pipeline == nullptr) {
      wc->morsel_revoked = nullptr;
      continue;
    }
    wc->morsel_revoked = [w, wc, gov, pipeline, revoked] {
      if (static_cast<int>(w) <
          gov->Reassess(pipeline.get(), wc->memory)) {
        return false;
      }
      revoked->fetch_add(1, std::memory_order_relaxed);
      return true;
    };
  }
}

// ---------------------------------------------------------------------------
// Streaming exchange base: coordinator-side packet cursor shared by the
// scan/filter/project exchange and the hash-join probe. Subclasses own
// the crew; Finish() joins it, folds stats, and surfaces worker errors.
// ---------------------------------------------------------------------------

class StreamingExchangeOp : public Operator {
 public:
  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    for (;;) {
      if (pos_ < packet_.count) {
        const size_t n = std::min(b->capacity(), packet_.count - pos_);
        for (size_t si = 0; si < packet_.slots.size(); ++si) {
          const table::Row** col = b->BindSlot(packet_.slots[si]);
          for (size_t i = 0; i < n; ++i) {
            col[i] = &packet_.rows[si][pos_ + i];
          }
        }
        if (packet_.has_output) {
          table::Row* out = b->OutputColumn();
          for (size_t i = 0; i < n; ++i) {
            out[i] = std::move(packet_.output[pos_ + i]);
          }
        }
        pos_ += n;
        b->SetSize(n);
        return true;
      }
      // The drained packet stays alive until this pop replaces it — the
      // parent's slot pointers from the previous batch point into it.
      if (queue_ == nullptr || !queue_->Pop(&packet_)) {
        packet_ = Packet();
        pos_ = 0;
        HDB_RETURN_IF_ERROR(Finish());
        return false;
      }
      pos_ = 0;
    }
  }

 protected:
  /// Joins the crew and surfaces the first worker error. Must tolerate
  /// repeated calls (NextBatch keeps returning false after end).
  virtual Status Finish() = 0;

  std::unique_ptr<PacketQueue> queue_;
  Packet packet_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// ExchangeScanOp: parallel scan/filter/project. Workers run private
// copies of the fragment over the shared dispenser and stream packets.
// ---------------------------------------------------------------------------

class ExchangeScanOp : public StreamingExchangeOp {
 public:
  ExchangeScanOp(const PlanNode* plan, ExecContext* ec, int workers)
      : plan_(plan), ec_(ec), workers_(workers),
        produces_output_(PlanProducesOutput(plan)) {}

  ~ExchangeScanOp() override { Shutdown(); }

  Status Open() override {
    const PlanNode* scan = FragmentScan(plan_);
    if (scan == nullptr || scan->table == nullptr || scan->table->is_virtual) {
      return Status::Internal("parallel fragment without a base-table scan");
    }
    table::TableHeap* heap = ec_->table_heap(scan->table->oid);
    if (heap == nullptr) return Status::Internal("missing table heap");
    Shutdown();  // NL-join parents re-open: tear down any previous crew
    finished_ = false;
    folded_ = false;
    revoked_.store(0, std::memory_order_relaxed);
    dispenser_ = std::make_unique<MorselDispenser>(
        heap, ec_->parallel != nullptr ? ec_->parallel->options().morsel_rows
                                       : 0);
    queue_ = std::make_unique<PacketQueue>(2 * static_cast<size_t>(workers_),
                                           workers_);
    pipeline_ =
        ec_->parallel != nullptr ? ec_->parallel->StartPipeline(workers_)
                                 : nullptr;
    ec_->stats.parallel_pipelines++;
    ec_->stats.parallel_workers_started += static_cast<uint64_t>(workers_);
    RecordActualWorkers(ec_, plan_, workers_);
    slots_ = {static_cast<uint16_t>(scan->quantifier)};
    wctxs_.clear();
    wctxs_.reserve(workers_);
    for (int w = 0; w < workers_; ++w) {
      wctxs_.push_back(
          MakeWorkerContext(*ec_, dispenser_.get(), scan->quantifier));
    }
    InstallRevocationProbes(&wctxs_, ec_->parallel, pipeline_, &revoked_);
    crew_ = std::make_unique<Crew>(obs::CurrentStatementTrace());
    crew_->Launch(workers_, [this](int w) { return Worker(w); });
    return Status::OK();
  }

  void Close() override {
    Shutdown();
    FoldStats();
  }

 private:
  Status Worker(int w) {
    const Status s = WorkerBody(w);
    queue_->ProducerDone();
    return s;
  }

  Status WorkerBody(int w) {
    ExecContext* wc = &wctxs_[w];
    HDB_ASSIGN_OR_RETURN(auto root, BuildExecutor(plan_, wc));
    Status s = Produce(wc, root.get());
    root->Close();
    return s;
  }

  // Revocation happens inside the scan, at morsel boundaries (the
  // morsel_revoked probe): a revoked worker simply sees end-of-input.
  Status Produce(ExecContext* wc, Operator* root) {
    HDB_RETURN_IF_ERROR(root->Open());
    RowBatch batch(wc->num_quantifiers + 1, WorkerBatchCap(*wc), wc->params);
    RowContext ctx;
    ctx.rows.assign(wc->num_quantifiers + 1, nullptr);
    ctx.params = wc->params;
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, root->NextBatch(&batch));
      if (!more) return Status::OK();
      const size_t n = batch.ActiveCount();
      if (n == 0) continue;
      Packet p;
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = batch.Active(i);
        batch.BindRow(pos, &ctx);
        AppendToPacket(&p, ctx, slots_,
                       produces_output_ ? batch.MutableOutput(pos) : nullptr);
      }
      if (!queue_->Push(std::move(p))) return Status::OK();
    }
  }

  Status Finish() override {
    if (finished_) return finish_status_;
    finished_ = true;
    finish_status_ = crew_ != nullptr ? crew_->TakeError() : Status::OK();
    FoldStats();
    return finish_status_;
  }

  void Shutdown() {
    if (queue_ != nullptr) queue_->Abort();
    if (crew_ != nullptr) crew_->Join();
  }

  void FoldStats() {
    if (folded_) return;
    folded_ = true;
    for (const ExecContext& wc : wctxs_) FoldWorkerStats(ec_, wc.stats);
    ec_->stats.parallel_workers_revoked +=
        static_cast<uint64_t>(revoked_.load(std::memory_order_relaxed));
    if (dispenser_ != nullptr) {
      ec_->stats.parallel_morsels += dispenser_->morsels();
    }
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  const bool produces_output_;
  std::vector<uint16_t> slots_;
  std::unique_ptr<MorselDispenser> dispenser_;
  std::shared_ptr<ParallelismGovernor::Pipeline> pipeline_;
  std::vector<ExecContext> wctxs_;
  std::unique_ptr<Crew> crew_;
  std::atomic<int> revoked_{0};
  bool finished_ = false;
  bool folded_ = false;
  Status finish_status_;
};

// ---------------------------------------------------------------------------
// ExchangeHashJoinOp: parallel partitioned hash join (peloton
// exchange_hash_executor lineage). Build: workers stage (hash, key, row)
// triples per partition from FCFS inner-fragment morsels. Merge: probe
// workers each merge a disjoint subset of partitions (partition-parallel,
// lock-free) and meet at a barrier. Probe: workers pull outer-fragment
// morsels, probe the shared partitioned table, and stream matched rows
// as packets. Parallel joins never spill — the governor's memory clamp
// is the admission control — but Eq. (4) kills still fire from workers.
// ---------------------------------------------------------------------------

class ExchangeHashJoinOp : public StreamingExchangeOp {
 public:
  static constexpr int kPartitions = 32;

  ExchangeHashJoinOp(const PlanNode* plan, ExecContext* ec, int workers)
      : plan_(plan), ec_(ec), workers_(workers) {}

  ~ExchangeHashJoinOp() override { Shutdown(); }

  Status Open() override {
    const PlanNode* inner_scan = FragmentScan(plan_->children[1].get());
    const PlanNode* outer_scan = FragmentScan(plan_->children[0].get());
    if (inner_scan == nullptr || outer_scan == nullptr) {
      return Status::Internal("parallel join fragment without a seq scan");
    }
    table::TableHeap* inner_heap = ec_->table_heap(inner_scan->table->oid);
    table::TableHeap* outer_heap = ec_->table_heap(outer_scan->table->oid);
    if (inner_heap == nullptr || outer_heap == nullptr) {
      return Status::Internal("missing table heap");
    }
    Shutdown();
    build_q_ = inner_scan->quantifier;
    slots_ = {static_cast<uint16_t>(outer_scan->quantifier),
              static_cast<uint16_t>(build_q_)};
    const size_t morsel_rows =
        ec_->parallel != nullptr ? ec_->parallel->options().morsel_rows : 0;
    pipeline_ =
        ec_->parallel != nullptr ? ec_->parallel->StartPipeline(workers_)
                                 : nullptr;
    ec_->stats.parallel_pipelines++;
    RecordActualWorkers(ec_, plan_, workers_);

    // --- Phase 1: parallel partitioned build (blocking) ---
    build_dispenser_ =
        std::make_unique<MorselDispenser>(inner_heap, morsel_rows);
    staged_.assign(workers_, std::vector<std::vector<BuildEntry>>(
                                 kPartitions, std::vector<BuildEntry>()));
    wctxs_.clear();
    wctxs_.reserve(workers_);
    for (int w = 0; w < workers_; ++w) {
      wctxs_.push_back(MakeWorkerContext(*ec_, build_dispenser_.get(),
                                         inner_scan->quantifier));
    }
    InstallRevocationProbes(&wctxs_, ec_->parallel, pipeline_, &revoked_);
    ec_->stats.parallel_workers_started += static_cast<uint64_t>(workers_);
    {
      Crew build_crew(obs::CurrentStatementTrace());
      build_crew.Launch(workers_,
                        [this](int w) { return BuildWorker(w); });
      HDB_RETURN_IF_ERROR(build_crew.TakeError());
    }
    for (const ExecContext& wc : wctxs_) FoldWorkerStats(ec_, wc.stats);
    ec_->stats.parallel_morsels += build_dispenser_->morsels();

    // --- Phase 2: partition-parallel merge + streaming probe ---
    // Revocation during the build may have lowered the target; the probe
    // crew starts at the surviving count.
    probe_workers_ = workers_;
    if (pipeline_ != nullptr) {
      probe_workers_ = std::max(
          1, std::min(workers_, pipeline_->target.load(std::memory_order_relaxed)));
    }
    parts_ = std::make_unique<Partition[]>(kPartitions);
    probe_dispenser_ =
        std::make_unique<MorselDispenser>(outer_heap, morsel_rows);
    wctxs_.clear();
    wctxs_.reserve(probe_workers_);
    for (int w = 0; w < probe_workers_; ++w) {
      wctxs_.push_back(MakeWorkerContext(*ec_, probe_dispenser_.get(),
                                         outer_scan->quantifier));
    }
    InstallRevocationProbes(&wctxs_, ec_->parallel, pipeline_, &revoked_);
    queue_ = std::make_unique<PacketQueue>(
        2 * static_cast<size_t>(probe_workers_), probe_workers_);
    merge_barrier_ = std::make_unique<Barrier>(probe_workers_);
    ec_->stats.parallel_workers_started +=
        static_cast<uint64_t>(probe_workers_);
    finished_ = false;
    folded_ = false;
    crew_ = std::make_unique<Crew>(obs::CurrentStatementTrace());
    crew_->Launch(probe_workers_, [this](int w) { return ProbeWorker(w); });
    return Status::OK();
  }

  void Close() override {
    Shutdown();
    FoldStats();
    ReleaseMemory();
    parts_.reset();
    staged_.clear();
  }

  uint64_t MemoryBytes() const override {
    return charged_.load(std::memory_order_relaxed);
  }

 private:
  struct BuildEntry {
    uint64_t h;
    Value key;
    table::Row row;
  };

  /// One shared build partition, written by exactly one merging worker
  /// (partition-parallel assignment) and immutable during the probe.
  struct Partition {
    JoinIndex table;  // row r is keys[r] / rows[r]
    std::vector<Value> keys;
    std::vector<table::Row> rows;
  };

  class Barrier {
   public:
    explicit Barrier(int n) : remaining_(n) {}
    void ArriveAndWait() {
      UniqueLock lock(mu_);
      if (--remaining_ == 0) {
        cv_.notify_all();
        return;
      }
      while (remaining_ > 0) cv_.wait(lock);
    }

   private:
    RankedMutex<LockRank::kParallelMerge> mu_;
    std::condition_variable_any cv_;
    int remaining_ GUARDED_BY(mu_);
  };

  Status BuildWorker(int w) {
    ExecContext* wc = &wctxs_[w];
    HDB_ASSIGN_OR_RETURN(auto root,
                         BuildExecutor(plan_->children[1].get(), wc));
    Status s = BuildLoop(w, wc, root.get());
    root->Close();
    return s;
  }

  // A revoked build worker's staged rows are still merged — only
  // un-dispensed morsels shift to the surviving workers (revocation is
  // the scan's morsel_revoked probe; the loop just sees end-of-input).
  Status BuildLoop(int w, ExecContext* wc, Operator* root) {
    HDB_RETURN_IF_ERROR(root->Open());
    RowBatch batch(wc->num_quantifiers + 1, WorkerBatchCap(*wc), wc->params);
    RowContext ctx;
    ctx.rows.assign(wc->num_quantifiers + 1, nullptr);
    ctx.params = wc->params;
    Value key;
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, root->NextBatch(&batch));
      if (!more) return Status::OK();
      const size_t n = batch.ActiveCount();
      uint64_t batch_bytes = 0;
      for (size_t i = 0; i < n; ++i) {
        batch.BindRow(batch.Active(i), &ctx);
        HDB_ASSIGN_OR_RETURN(key, plan_->inner_key->Evaluate(ctx));
        if (key.is_null()) continue;
        const uint64_t h = key.Hash();
        const int p = static_cast<int>(h % kPartitions);
        const table::Row& row = *ctx.rows[build_q_];
        batch_bytes += 48 * row.size() + 96;
        staged_[w][p].push_back(BuildEntry{h, key, row});
      }
      if (batch_bytes > 0 && wc->memory != nullptr) {
        // One charge per fragment batch, not per row, to keep latch
        // traffic off the hot path. Never runs the spill scheduler
        // (memory_governor.h worker contract); Eq. (4) aborts the
        // statement from here.
        HDB_RETURN_IF_ERROR(wc->memory->ChargeBytesFromWorker(batch_bytes));
        charged_.fetch_add(batch_bytes, std::memory_order_relaxed);
      }
    }
  }

  Status ProbeWorker(int w) {
    // Merge this worker's disjoint partition subset, then wait for every
    // sibling — the table must be complete and immutable before any
    // probe begins.
    for (int p = w; p < kPartitions; p += probe_workers_) {
      Partition& part = parts_[p];
      for (auto& staged_worker : staged_) {
        for (BuildEntry& e : staged_worker[p]) {
          part.table.Add(e.h);
          part.keys.push_back(std::move(e.key));
          part.rows.push_back(std::move(e.row));
        }
      }
    }
    merge_barrier_->ArriveAndWait();
    const Status s = ProbeBody(w);
    queue_->ProducerDone();
    return s;
  }

  Status ProbeBody(int w) {
    ExecContext* wc = &wctxs_[w];
    HDB_ASSIGN_OR_RETURN(auto root,
                         BuildExecutor(plan_->children[0].get(), wc));
    Status s = ProbeLoop(wc, root.get());
    root->Close();
    return s;
  }

  Status ProbeLoop(ExecContext* wc, Operator* root) {
    HDB_RETURN_IF_ERROR(root->Open());
    const size_t cap = WorkerBatchCap(*wc);
    RowBatch batch(wc->num_quantifiers + 1, cap, wc->params);
    RowContext ctx;
    ctx.rows.assign(wc->num_quantifiers + 1, nullptr);
    ctx.params = wc->params;
    Value key;
    Packet pkt;
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, root->NextBatch(&batch));
      if (!more) break;
      const size_t n = batch.ActiveCount();
      for (size_t i = 0; i < n; ++i) {
        batch.BindRow(batch.Active(i), &ctx);
        HDB_ASSIGN_OR_RETURN(key, plan_->outer_key->Evaluate(ctx));
        if (key.is_null()) continue;
        const uint64_t h = key.Hash();
        const Partition& part = parts_[h % kPartitions];
        for (uint32_t idx = part.table.First(h); idx != JoinIndex::kEnd;
             idx = part.table.Next(idx)) {
          if (part.keys[idx].Compare(key) != 0) continue;
          ctx.rows[build_q_] = &part.rows[idx];
          if (plan_->extra_condition != nullptr) {
            HDB_ASSIGN_OR_RETURN(
                const bool ok, plan_->extra_condition->EvaluatesToTrue(ctx));
            if (!ok) continue;
          }
          AppendToPacket(&pkt, ctx, slots_, /*output=*/nullptr);
          if (pkt.count >= cap) {
            if (!queue_->Push(std::move(pkt))) return Status::OK();
            pkt = Packet();
          }
        }
        ctx.rows[build_q_] = nullptr;
      }
    }
    if (pkt.count > 0) queue_->Push(std::move(pkt));
    return Status::OK();
  }

  Status Finish() override {
    if (finished_) return finish_status_;
    finished_ = true;
    finish_status_ = crew_ != nullptr ? crew_->TakeError() : Status::OK();
    FoldStats();
    return finish_status_;
  }

  void Shutdown() {
    if (queue_ != nullptr) queue_->Abort();
    if (crew_ != nullptr) crew_->Join();
  }

  void FoldStats() {
    if (folded_) return;
    folded_ = true;
    for (const ExecContext& wc : wctxs_) FoldWorkerStats(ec_, wc.stats);
    ec_->stats.parallel_workers_revoked +=
        static_cast<uint64_t>(revoked_.exchange(0, std::memory_order_relaxed));
    if (probe_dispenser_ != nullptr) {
      ec_->stats.parallel_morsels += probe_dispenser_->morsels();
    }
  }

  void ReleaseMemory() {
    const uint64_t charged = charged_.exchange(0, std::memory_order_relaxed);
    if (charged > 0 && ec_->memory != nullptr) {
      ec_->memory->ReleaseBytes(charged);
    }
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  int probe_workers_ = 1;
  int build_q_ = -1;
  std::vector<uint16_t> slots_;
  std::unique_ptr<MorselDispenser> build_dispenser_;
  std::unique_ptr<MorselDispenser> probe_dispenser_;
  std::shared_ptr<ParallelismGovernor::Pipeline> pipeline_;
  std::vector<std::vector<std::vector<BuildEntry>>> staged_;  // [w][part]
  std::unique_ptr<Partition[]> parts_;
  std::unique_ptr<Barrier> merge_barrier_;
  std::vector<ExecContext> wctxs_;
  std::unique_ptr<Crew> crew_;
  std::atomic<int> revoked_{0};
  std::atomic<uint64_t> charged_{0};
  bool finished_ = false;
  bool folded_ = false;
  Status finish_status_;
};

// ---------------------------------------------------------------------------
// Parallel pre-aggregation (hash group by / distinct): workers build
// per-worker partial tables from FCFS morsels, merge them under the merge
// latch at the barrier (AggMerge — the same partial-merge the spill
// replay uses), and the coordinator emits serially. The tables are the
// serial operators' GroupTable / KeyTable, and emission is in encoded-key
// order, so group-by output matches the serial HashGroupByOp exactly.
// ---------------------------------------------------------------------------

class ExchangeGroupByOp : public Operator {
 public:
  ExchangeGroupByOp(const PlanNode* plan, ExecContext* ec, int workers)
      : plan_(plan), ec_(ec), workers_(workers),
        merged_(plan->group_keys.size(), plan->aggregates.size()) {}

  Status Open() override {
    const PlanNode* scan = FragmentScan(plan_->children[0].get());
    if (scan == nullptr) {
      return Status::Internal("parallel fragment without a seq scan");
    }
    table::TableHeap* heap = ec_->table_heap(scan->table->oid);
    if (heap == nullptr) return Status::Internal("missing table heap");
    merged_.Clear();
    results_.clear();
    dispenser_ = std::make_unique<MorselDispenser>(
        heap, ec_->parallel != nullptr ? ec_->parallel->options().morsel_rows
                                       : 0);
    pipeline_ =
        ec_->parallel != nullptr ? ec_->parallel->StartPipeline(workers_)
                                 : nullptr;
    ec_->stats.parallel_pipelines++;
    ec_->stats.parallel_workers_started += static_cast<uint64_t>(workers_);
    RecordActualWorkers(ec_, plan_, workers_);
    wctxs_.clear();
    wctxs_.reserve(workers_);
    for (int w = 0; w < workers_; ++w) {
      wctxs_.push_back(
          MakeWorkerContext(*ec_, dispenser_.get(), scan->quantifier));
    }
    InstallRevocationProbes(&wctxs_, ec_->parallel, pipeline_, &revoked_);
    {
      Crew crew(obs::CurrentStatementTrace());
      crew.Launch(workers_, [this](int w) { return Worker(w); });
      HDB_RETURN_IF_ERROR(crew.TakeError());
    }
    for (const ExecContext& wc : wctxs_) FoldWorkerStats(ec_, wc.stats);
    ec_->stats.parallel_workers_revoked +=
        static_cast<uint64_t>(revoked_.exchange(0, std::memory_order_relaxed));
    ec_->stats.parallel_morsels += dispenser_->morsels();
    results_ = merged_.Finalize(plan_->aggregates);
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    const size_t group_slot = ec_->num_quantifiers;
    const table::Row** col = b->BindSlot(group_slot);
    size_t n = 0;
    while (n < b->capacity() && pos_ < results_.size()) {
      col[n++] = &results_[pos_++];
    }
    if (n == 0) return false;
    b->SetSize(n);
    if (plan_->having != nullptr) {
      if (emit_ctx_.rows.size() != b->num_slots()) {
        emit_ctx_.rows.assign(b->num_slots(), nullptr);
        emit_ctx_.params = b->params();
      }
      uint16_t* sel = b->MutableSel();
      size_t k = 0;
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = b->Active(i);
        b->BindRow(pos, &emit_ctx_);
        HDB_ASSIGN_OR_RETURN(const bool ok,
                             plan_->having->EvaluatesToTrue(emit_ctx_));
        if (ok) sel[k++] = static_cast<uint16_t>(pos);
      }
      b->SetSelection(k);
    }
    return true;
  }

  void Close() override {
    const uint64_t charged = charged_.exchange(0, std::memory_order_relaxed);
    if (charged > 0 && ec_->memory != nullptr) {
      ec_->memory->ReleaseBytes(charged);
    }
    merged_.Clear();
    results_.clear();
  }

  uint64_t MemoryBytes() const override {
    return charged_.load(std::memory_order_relaxed);
  }

 private:
  Status Worker(int w) {
    ExecContext* wc = &wctxs_[w];
    HDB_ASSIGN_OR_RETURN(auto root,
                         BuildExecutor(plan_->children[0].get(), wc));
    GroupTable local(plan_->group_keys.size(), plan_->aggregates.size());
    Status s = AggregateLoop(wc, root.get(), &local);
    root->Close();
    if (s.ok()) MergeLocal(local);  // revoked workers still merge partials
    return s;
  }

  Status AggregateLoop(ExecContext* wc, Operator* root, GroupTable* local) {
    HDB_RETURN_IF_ERROR(root->Open());
    RowBatch batch(wc->num_quantifiers + 1, WorkerBatchCap(*wc), wc->params);
    RowContext ctx;
    ctx.rows.assign(wc->num_quantifiers + 1, nullptr);
    ctx.params = wc->params;
    const size_t nkeys = plan_->group_keys.size();
    const size_t naggs = plan_->aggregates.size();
    std::vector<Value> keys(nkeys);
    std::vector<Value> args(naggs);
    auto key = [&](size_t i) -> const Value& { return keys[i]; };
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, root->NextBatch(&batch));
      if (!more) return Status::OK();
      const size_t n = batch.ActiveCount();
      for (size_t i = 0; i < n; ++i) {
        batch.BindRow(batch.Active(i), &ctx);
        for (size_t ki = 0; ki < nkeys; ++ki) {
          HDB_ASSIGN_OR_RETURN(keys[ki],
                               plan_->group_keys[ki]->Evaluate(ctx));
        }
        for (size_t a = 0; a < naggs; ++a) {
          const auto& spec = plan_->aggregates[a];
          if (spec.arg != nullptr) {
            HDB_ASSIGN_OR_RETURN(args[a], spec.arg->Evaluate(ctx));
          } else {
            args[a] = Value();
          }
        }
        const uint64_t h = KeyHash(nkeys, key);
        uint32_t g = local->keys.Find(h, key);
        if (g == FlatHashTable::kAbsent) {
          g = local->Add(h, key);
          const uint64_t bytes =
              EncodedValuesBytes(keys.data(), nkeys) + 64 * naggs + 64;
          if (wc->memory != nullptr) {
            HDB_RETURN_IF_ERROR(wc->memory->ChargeBytesFromWorker(bytes));
          }
          charged_.fetch_add(bytes, std::memory_order_relaxed);
        }
        AggState* states = local->states_of(g);
        for (size_t a = 0; a < naggs; ++a) {
          AggUpdate(states[a], plan_->aggregates[a].kind, args[a]);
        }
      }
    }
  }

  void MergeLocal(const GroupTable& local) {
    LockGuard lock(merge_mu_);
    for (uint32_t g = 0; g < local.size(); ++g) {
      merged_.Merge(local.keys.key(g), local.states_of(g));
    }
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  std::unique_ptr<MorselDispenser> dispenser_;
  std::shared_ptr<ParallelismGovernor::Pipeline> pipeline_;
  std::vector<ExecContext> wctxs_;
  RankedMutex<LockRank::kParallelMerge> merge_mu_;
  GroupTable merged_ GUARDED_BY(merge_mu_);
  std::atomic<int> revoked_{0};
  std::atomic<uint64_t> charged_{0};

  std::vector<table::Row> results_;  // finalized, in emission order
  size_t pos_ = 0;
  RowContext emit_ctx_;
};

/// Parallel DISTINCT: per-worker dedup tables (output row → first
/// occurrence, under the serial operator's key identity) merged at the
/// barrier. Emission is in encoded-key order — deterministic, but
/// different from the serial streaming operator's arrival order; DISTINCT
/// without ORDER BY is unordered by contract (and ORDER BY below DISTINCT
/// makes the fragment ineligible, so the parallel path never has an order
/// to preserve).
class ExchangeDistinctOp : public Operator {
 public:
  ExchangeDistinctOp(const PlanNode* plan, ExecContext* ec, int workers)
      : plan_(plan), ec_(ec), workers_(workers) {}

  Status Open() override {
    const PlanNode* scan = FragmentScan(plan_->children[0].get());
    if (scan == nullptr) {
      return Status::Internal("parallel fragment without a seq scan");
    }
    if (!PlanProducesOutput(plan_->children[0].get())) {
      return Status::Internal("parallel distinct fragment without projection");
    }
    table::TableHeap* heap = ec_->table_heap(scan->table->oid);
    if (heap == nullptr) return Status::Internal("missing table heap");
    merged_.Clear();
    dispenser_ = std::make_unique<MorselDispenser>(
        heap, ec_->parallel != nullptr ? ec_->parallel->options().morsel_rows
                                       : 0);
    pipeline_ =
        ec_->parallel != nullptr ? ec_->parallel->StartPipeline(workers_)
                                 : nullptr;
    ec_->stats.parallel_pipelines++;
    ec_->stats.parallel_workers_started += static_cast<uint64_t>(workers_);
    RecordActualWorkers(ec_, plan_, workers_);
    wctxs_.clear();
    wctxs_.reserve(workers_);
    for (int w = 0; w < workers_; ++w) {
      wctxs_.push_back(
          MakeWorkerContext(*ec_, dispenser_.get(), scan->quantifier));
    }
    InstallRevocationProbes(&wctxs_, ec_->parallel, pipeline_, &revoked_);
    {
      Crew crew(obs::CurrentStatementTrace());
      crew.Launch(workers_, [this](int w) { return Worker(w); });
      HDB_RETURN_IF_ERROR(crew.TakeError());
    }
    for (const ExecContext& wc : wctxs_) FoldWorkerStats(ec_, wc.stats);
    ec_->stats.parallel_workers_revoked +=
        static_cast<uint64_t>(revoked_.exchange(0, std::memory_order_relaxed));
    ec_->stats.parallel_morsels += dispenser_->morsels();
    order_ = merged_.EncodedOrder();
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    table::Row* out = b->OutputColumn();
    size_t n = 0;
    while (n < b->capacity() && pos_ < order_.size()) {
      const Value* k = merged_.key(order_[pos_++]);
      out[n++].assign(k, k + merged_.arity());
    }
    if (n == 0) return false;
    b->SetSize(n);
    return true;
  }

  void Close() override {
    const uint64_t charged = charged_.exchange(0, std::memory_order_relaxed);
    if (charged > 0 && ec_->memory != nullptr) {
      ec_->memory->ReleaseBytes(charged);
    }
    merged_.Clear();
    order_.clear();
  }

  uint64_t MemoryBytes() const override {
    return charged_.load(std::memory_order_relaxed);
  }

 private:
  Status Worker(int w) {
    ExecContext* wc = &wctxs_[w];
    HDB_ASSIGN_OR_RETURN(auto root,
                         BuildExecutor(plan_->children[0].get(), wc));
    KeyTable local;
    Status s = DedupLoop(wc, root.get(), &local);
    root->Close();
    if (s.ok()) MergeLocal(local);
    return s;
  }

  Status DedupLoop(ExecContext* wc, Operator* root, KeyTable* local) {
    HDB_RETURN_IF_ERROR(root->Open());
    RowBatch batch(wc->num_quantifiers + 1, WorkerBatchCap(*wc), wc->params);
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, root->NextBatch(&batch));
      if (!more) return Status::OK();
      const size_t n = batch.ActiveCount();
      for (size_t i = 0; i < n; ++i) {
        const table::Row& row = batch.output(batch.Active(i));
        auto key = [&](size_t k) -> const Value& { return row[k]; };
        const uint64_t h = KeyHash(row.size(), key);
        if (local->size() == 0) local->Reset(row.size());
        if (local->Find(h, key) != FlatHashTable::kAbsent) continue;
        local->Insert(h, key);
        const uint64_t bytes = EncodedValuesBytes(row.data(), row.size()) + 32;
        if (wc->memory != nullptr) {
          HDB_RETURN_IF_ERROR(wc->memory->ChargeBytesFromWorker(bytes));
        }
        charged_.fetch_add(bytes, std::memory_order_relaxed);
      }
    }
  }

  void MergeLocal(const KeyTable& local) {
    LockGuard lock(merge_mu_);
    if (merged_.size() == 0 && local.size() > 0) merged_.Reset(local.arity());
    for (uint32_t e = 0; e < local.size(); ++e) {
      const Value* k = local.key(e);
      auto key = [&](size_t i) -> const Value& { return k[i]; };
      const uint64_t h = KeyHash(local.arity(), key);
      if (merged_.Find(h, key) == FlatHashTable::kAbsent) {
        merged_.Insert(h, key);
      }
    }
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  std::unique_ptr<MorselDispenser> dispenser_;
  std::shared_ptr<ParallelismGovernor::Pipeline> pipeline_;
  std::vector<ExecContext> wctxs_;
  RankedMutex<LockRank::kParallelMerge> merge_mu_;
  KeyTable merged_ GUARDED_BY(merge_mu_);
  std::atomic<int> revoked_{0};
  std::atomic<uint64_t> charged_{0};
  std::vector<uint32_t> order_;  // merged_ entries in emission order
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Operator>> MakeExchangeOp(const PlanNode* plan,
                                                 ExecContext* ctx,
                                                 int workers) {
  switch (plan->kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return std::unique_ptr<Operator>(
          new ExchangeScanOp(plan, ctx, workers));
    case PlanKind::kHashJoin:
      return std::unique_ptr<Operator>(
          new ExchangeHashJoinOp(plan, ctx, workers));
    case PlanKind::kHashGroupBy:
      return std::unique_ptr<Operator>(
          new ExchangeGroupByOp(plan, ctx, workers));
    case PlanKind::kHashDistinct:
      return std::unique_ptr<Operator>(
          new ExchangeDistinctOp(plan, ctx, workers));
    default:
      return Status::Internal("plan kind is not parallel-eligible");
  }
}

}  // namespace hdb::exec
