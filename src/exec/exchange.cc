#include "exec/exchange.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "exec/agg.h"
#include "exec/batch_eval.h"
#include "exec/hash_table.h"
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

/// Starts the pipeline an exchange's crews share (one per Open): counts
/// it, records the EXPLAIN ANALYZE `workers=` actual, and registers it with
/// the governor, whose target only ever falls, so a join's probe crew
/// starts at what survived its build.
std::shared_ptr<ParallelismGovernor::Pipeline> StartPipeline(
    ExecContext* ec, const PlanNode* plan, int workers) {
  ec->stats.parallel_pipelines++;
  if (ec->actuals != nullptr) (*ec->actuals)[plan].workers = workers;
  return ec->parallel != nullptr ? ec->parallel->StartPipeline(workers)
                                 : nullptr;
}

// ---------------------------------------------------------------------------
// FragmentCrew: the one worker-crew runner behind every exchange. Workers
// are plain threads, each running a private copy of one fragment over a
// shared MorselDispenser (paper §4.4's single FCFS scan) and handing its
// batches to the exchange's per-batch body. The crew owns everything the
// exchanges have in common: the dispenser, the worker contexts, the
// morsel-boundary revocation probes, the statement-trace propagation,
// the first worker error, the single fold of the workers' counters into
// the coordinator's, and the release of what the workers charged.
// ---------------------------------------------------------------------------

class FragmentCrew {
 public:
  /// One worker: a private execution context and the quota bytes its body
  /// charged.
  struct Worker {
    const PlanNode* fragment = nullptr;
    ExecContext ctx;
    uint64_t charged = 0;

    /// Runs a private copy of the fragment to its end, handing each batch
    /// to `on_batch`, which returns false to stop early (the consumer is
    /// gone). A revoked worker just sees end of input.
    template <typename OnBatch>
    Status Drive(const OnBatch& on_batch) {
      HDB_ASSIGN_OR_RETURN(auto root, BuildExecutor(fragment, &ctx));
      Status s = root->Open();
      RowBatch batch(ctx.num_quantifiers + 1,
                     ctx.batch_cap != 0 ? ctx.batch_cap : kDefaultBatchCap,
                     ctx.params);
      for (bool more = s.ok(); more;) {
        Result<bool> step = root->NextBatch(&batch);
        if (step.ok() && *step) step = on_batch(batch);
        s = step.status();
        more = step.ok() && *step;
      }
      root->Close();
      return s;
    }

    /// Charges `bytes` of the body's state (staged build rows, distinct
    /// keys) to the statement; the crew releases it at Close.
    Status Charge(uint64_t bytes) {
      charged += bytes;
      return ChargeQuota(&ctx, bytes);
    }
  };

  using Body = std::function<Status(int, Worker&)>;

  explicit FragmentCrew(ExecContext* ec) : ec_(ec) {}
  FragmentCrew(const FragmentCrew&) = delete;
  FragmentCrew& operator=(const FragmentCrew&) = delete;
  ~FragmentCrew() { (void)Join(); }

  /// Launches `workers` workers over `fragment`; worker w runs
  /// `body(w, worker)` once. A crew that already ran is closed first (an
  /// NL join re-opens its inner side).
  Status Start(const PlanNode* fragment, int workers,
               std::shared_ptr<ParallelismGovernor::Pipeline> pipeline,
               Body body) {
    Close();
    const PlanNode* scan = FragmentScan(fragment);
    if (scan == nullptr || scan->table == nullptr || scan->table->is_virtual) {
      return Status::Internal("parallel fragment without a base-table scan");
    }
    table::TableHeap* heap = ec_->table_heap(scan->table->oid);
    if (heap == nullptr) return Status::Internal("missing table heap");
    dispenser_ = std::make_unique<MorselDispenser>(
        heap, ec_->parallel != nullptr ? ec_->parallel->options().morsel_rows
                                       : 0);
    pipeline_ = std::move(pipeline);
    body_ = std::move(body);
    revoked_.store(0, std::memory_order_relaxed);
    workers_ = std::vector<Worker>(workers);
    for (int w = 0; w < workers; ++w) {
      Worker& wk = workers_[w];
      wk.fragment = fragment;
      wk.ctx = WorkerContext(scan->quantifier);
      InstallRevocationProbe(w, &wk.ctx);
    }
    ec_->stats.parallel_workers_started += static_cast<uint64_t>(workers);
    folded_ = false;
    obs::StatementTrace* trace = obs::CurrentStatementTrace();
    for (int w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w, trace] { RunWorker(w, trace); });
    }
    return Status::OK();
  }

  /// Joins the workers and returns the first error any of them hit. The
  /// first call after Start folds their counters into the coordinator's.
  Status Join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (!folded_) {
      folded_ = true;
      RuntimeStats& s = ec_->stats;
      for (const Worker& wk : workers_) {
        const RuntimeStats& w = wk.ctx.stats;
        s.rows_scanned += w.rows_scanned;
        s.rows_decoded += w.rows_decoded;
        s.batches += w.batches;
        s.batch_rows += w.batch_rows;
        s.batch_arena_peak_bytes =
            std::max(s.batch_arena_peak_bytes, w.batch_arena_peak_bytes);
        s.batch_cap_shrinks += w.batch_cap_shrinks;
      }
      s.parallel_workers_revoked +=
          static_cast<uint64_t>(revoked_.load(std::memory_order_relaxed));
      s.parallel_morsels += dispenser_->morsels();
    }
    LockGuard lock(mu_);
    return error_;
  }

  /// Joins, then releases what the workers charged.
  void Close() {
    (void)Join();
    uint64_t charged = 0;
    for (Worker& wk : workers_) charged += std::exchange(wk.charged, 0);
    ReleaseQuota(ec_, charged);
    LockGuard lock(mu_);
    error_ = Status::OK();
  }

  /// Bytes the workers charged and the crew still holds; read after Join.
  uint64_t charged() const {
    uint64_t n = 0;
    for (const Worker& wk : workers_) n += wk.charged;
    return n;
  }

 private:
  /// A worker's private context: the coordinator's engine callbacks,
  /// parameters and TaskMemoryContext, its own stats, and the flag that
  /// routes its charges through ChargeBytesFromWorker (memory_governor.h
  /// contract). Feedback and EXPLAIN ANALYZE actuals stay coordinator-only
  /// — neither collector is thread-safe.
  ExecContext WorkerContext(int quantifier) const {
    ExecContext w;
    w.pool = ec_->pool;
    w.table_heap = ec_->table_heap;
    w.index = ec_->index;
    w.memory = ec_->memory;
    w.num_quantifiers = ec_->num_quantifiers;
    w.params = ec_->params;
    w.batch_cap = ec_->batch_cap;
    w.scan_masks = ec_->scan_masks;
    w.morsel_source = dispenser_.get();
    w.morsel_quantifier = quantifier;
    w.in_parallel_worker = true;
    return w;
  }

  /// The morsel-boundary revocation probe (paper §4.4: "the number of
  /// threads can easily be changed during execution"). The scan polls it
  /// right before pulling a NEW morsel (executor.cc), so a revoked worker
  /// never drops dispensed rows: it sees end of input and winds down
  /// through its body's normal drain path. Worker 0 always runs to
  /// completion so the pipeline cannot starve; worker w stands down once
  /// the governor's target drops to w or below.
  void InstallRevocationProbe(int w, ExecContext* wc) {
    ParallelismGovernor* gov = ec_->parallel;
    if (w == 0 || gov == nullptr || pipeline_ == nullptr) return;
    wc->morsel_revoked = [this, w, wc, gov] {
      if (w < gov->Reassess(pipeline_.get(), wc->memory)) return false;
      revoked_.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
  }

  /// Installs the owning statement's trace, so waits inside morsels —
  /// pool misses, lock conflicts, WAL — land in its tallies (DESIGN.md
  /// §11, §13), brackets the worker with a detached span, and keeps the
  /// first error.
  void RunWorker(int w, obs::StatementTrace* trace) {
    obs::ScopedCurrentTrace install(trace);
    uint32_t span = 0;
    if (trace != nullptr) {
      span = trace->OpenDetachedSpan(obs::kSpanOpParallelWorker,
                                     "w" + std::to_string(w));
    }
    const Status s = body_(w, workers_[w]);
    if (trace != nullptr && span != 0) trace->CloseSpan(span);
    if (!s.ok()) {
      LockGuard lock(mu_);
      if (error_.ok()) error_ = s;
    }
  }

  ExecContext* ec_;
  std::unique_ptr<MorselDispenser> dispenser_;
  std::shared_ptr<ParallelismGovernor::Pipeline> pipeline_;
  Body body_;
  std::vector<Worker> workers_;  // sized once per Start: stable addresses
  std::atomic<int> revoked_{0};
  bool folded_ = true;
  RankedMutex<LockRank::kParallelMerge> mu_;
  Status error_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
};

using Worker = FragmentCrew::Worker;

// ---------------------------------------------------------------------------
// Packets: worker → coordinator row transport. A packet owns its rows
// (copied out of the worker's batch), so its lifetime is independent of
// the producing fragment; the coordinator binds slot pointers straight
// into the packet and keeps it alive until the parent asks for the next
// batch (the RowBatch lifetime contract).
// ---------------------------------------------------------------------------

struct Packet {
  std::vector<uint16_t> slots;
  std::vector<std::vector<table::Row>> rows;  // parallel with `slots`
  std::vector<table::Row> output;  // empty, or parallel with the rows
  size_t count = 0;

  /// Copies in one row per slot (`rows[i]` for `s[i]`); a non-null
  /// `out` (the producing batch's projected row) is moved in beside them.
  void Append(const std::vector<uint16_t>& s, const table::Row* const* rows,
              table::Row* out) {
    if (slots.empty()) {
      slots = s;
      this->rows.resize(s.size());
    }
    for (size_t i = 0; i < s.size(); ++i) this->rows[i].push_back(*rows[i]);
    if (out != nullptr) output.push_back(std::move(*out));
    count++;
  }
};

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
// Streaming exchange base: the coordinator-side packet cursor shared by
// the scan/filter/project exchange and the hash-join probe, over one crew
// of packet producers. Subclasses whose members the workers read call
// Stop() in their own destructor, before those members go.
// ---------------------------------------------------------------------------

class StreamingExchangeOp : public Operator {
 public:
  explicit StreamingExchangeOp(ExecContext* ec) : crew_(ec) {}
  ~StreamingExchangeOp() override { Stop(); }

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
        if (!packet_.output.empty()) {
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
        HDB_RETURN_IF_ERROR(crew_.Join());
        return false;
      }
      pos_ = 0;
    }
  }

  void Close() override {
    Stop();
    crew_.Close();
  }

 protected:
  /// Starts `workers` producers over `fragment`; each runs `body` and then
  /// signs off the queue.
  Status StartStream(const PlanNode* fragment, int workers,
                     std::shared_ptr<ParallelismGovernor::Pipeline> pipeline,
                     FragmentCrew::Body body) {
    Stop();
    queue_ = std::make_unique<PacketQueue>(2 * static_cast<size_t>(workers),
                                           workers);
    return crew_.Start(fragment, workers, std::move(pipeline),
                       [this, body = std::move(body)](int w, Worker& wk) {
                         const Status s = body(w, wk);
                         queue_->ProducerDone();
                         return s;
                       });
  }

  /// False once the coordinator stopped listening.
  bool Push(Packet&& p) { return queue_->Push(std::move(p)); }

  /// Unblocks and joins the producers.
  void Stop() {
    if (queue_ != nullptr) queue_->Abort();
    (void)crew_.Join();
  }

 private:
  std::unique_ptr<PacketQueue> queue_;
  Packet packet_;
  size_t pos_ = 0;
  FragmentCrew crew_;
};

// ---------------------------------------------------------------------------
// ExchangeScanOp: parallel scan/filter/project. Each worker batch becomes
// one packet.
// ---------------------------------------------------------------------------

class ExchangeScanOp : public StreamingExchangeOp {
 public:
  ExchangeScanOp(const PlanNode* plan, ExecContext* ec, int workers)
      : StreamingExchangeOp(ec), plan_(plan), ec_(ec), workers_(workers),
        produces_output_(PlanProducesOutput(plan)) {}
  ~ExchangeScanOp() override { Stop(); }

  Status Open() override {
    const PlanNode* scan = FragmentScan(plan_);
    if (scan == nullptr) {
      return Status::Internal("parallel fragment without a seq scan");
    }
    slots_ = {static_cast<uint16_t>(scan->quantifier)};
    return StartStream(plan_, workers_, StartPipeline(ec_, plan_, workers_),
                       [this](int, Worker& wk) {
                         return wk.Drive([this](RowBatch& b) {
                           return Produce(b);
                         });
                       });
  }

 private:
  Result<bool> Produce(RowBatch& b) {
    const size_t n = b.ActiveCount();
    if (n == 0) return true;
    const table::Row* const* col = b.Column(slots_[0]);
    Packet p;
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = b.Active(i);
      p.Append(slots_, &col[pos],
               produces_output_ ? b.MutableOutput(pos) : nullptr);
    }
    return Push(std::move(p));
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  const bool produces_output_;
  std::vector<uint16_t> slots_;
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
      : StreamingExchangeOp(ec), plan_(plan), ec_(ec), workers_(workers),
        build_crew_(ec) {}
  ~ExchangeHashJoinOp() override { Stop(); }

  Status Open() override {
    const PlanNode* inner_scan = FragmentScan(plan_->children[1].get());
    const PlanNode* outer_scan = FragmentScan(plan_->children[0].get());
    if (inner_scan == nullptr || outer_scan == nullptr) {
      return Status::Internal("parallel join fragment without a seq scan");
    }
    Stop();  // the previous probe crew reads parts_
    build_q_ = inner_scan->quantifier;
    slots_ = {static_cast<uint16_t>(outer_scan->quantifier),
              static_cast<uint16_t>(build_q_)};
    auto pipeline = StartPipeline(ec_, plan_, workers_);

    // Phase 1: parallel partitioned build (blocking).
    staged_.assign(workers_, std::vector<std::vector<BuildEntry>>(
                                 kPartitions, std::vector<BuildEntry>()));
    HDB_RETURN_IF_ERROR(build_crew_.Start(
        plan_->children[1].get(), workers_, pipeline,
        [this](int w, Worker& wk) { return Build(w, wk); }));
    HDB_RETURN_IF_ERROR(build_crew_.Join());

    // Phase 2: partition-parallel merge + streaming probe. Revocation
    // during the build may have lowered the target; the probe crew starts
    // at the surviving count.
    probe_workers_ =
        pipeline == nullptr
            ? workers_
            : std::clamp(pipeline->target.load(std::memory_order_relaxed), 1,
                         workers_);
    parts_ = std::make_unique<Partition[]>(kPartitions);
    merged_ = std::make_unique<std::latch>(probe_workers_);
    return StartStream(plan_->children[0].get(), probe_workers_, pipeline,
                       [this](int w, Worker& wk) { return Probe(w, wk); });
  }

  void Close() override {
    StreamingExchangeOp::Close();
    build_crew_.Close();
    parts_.reset();
    staged_.clear();
  }

  uint64_t MemoryBytes() const override { return build_crew_.charged(); }

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

  /// Stages each build row of the worker's morsels under its key's hash
  /// partition. A revoked build worker's staged rows are still merged —
  /// only un-dispensed morsels shift to the surviving workers.
  Status Build(int w, Worker& wk) {
    BatchExprs key({plan_->inner_key.get()});
    RowContext ctx;
    InitScratchCtx(&wk.ctx, &ctx);
    auto& staged = staged_[w];
    return wk.Drive([&](RowBatch& b) -> Result<bool> {
      key.Bind(b);
      const table::Row* const* rows = b.Column(build_q_);
      const size_t n = b.ActiveCount();
      uint64_t batch_bytes = 0;
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = b.Active(i);
        HDB_RETURN_IF_ERROR(key.Prepare(b, pos, &ctx));
        const Value& k = key.Get(0, pos);
        if (k.is_null()) continue;
        const uint64_t h = k.Hash();
        const table::Row& row = *rows[pos];
        batch_bytes += 48 * row.size() + 96;
        staged[h % kPartitions].push_back(BuildEntry{h, k, row});
      }
      // One charge per fragment batch, not per row, to keep latch traffic
      // off the hot path.
      if (batch_bytes > 0) HDB_RETURN_IF_ERROR(wk.Charge(batch_bytes));
      return true;
    });
  }

  Status Probe(int w, Worker& wk) {
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
    merged_->arrive_and_wait();

    BatchExprs key({plan_->outer_key.get()});
    RowContext ctx;
    InitScratchCtx(&wk.ctx, &ctx);
    const optimizer::Expr* extra = plan_->extra_condition.get();
    const size_t cap =
        wk.ctx.batch_cap != 0 ? wk.ctx.batch_cap : kDefaultBatchCap;
    Packet pkt;
    HDB_RETURN_IF_ERROR(wk.Drive([&](RowBatch& b) -> Result<bool> {
      key.Bind(b);
      const table::Row* const* outer = b.Column(slots_[0]);
      const size_t n = b.ActiveCount();
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = b.Active(i);
        HDB_RETURN_IF_ERROR(key.Prepare(b, pos, &ctx));
        const Value& k = key.Get(0, pos);
        if (k.is_null()) continue;
        const uint64_t h = k.Hash();
        const Partition& part = parts_[h % kPartitions];
        for (uint32_t idx = part.table.First(h); idx != JoinIndex::kEnd;
             idx = part.table.Next(idx)) {
          if (part.keys[idx].Compare(k) != 0) continue;
          if (extra != nullptr) {
            b.BindRow(pos, &ctx);
            ctx.rows[build_q_] = &part.rows[idx];
            HDB_ASSIGN_OR_RETURN(const bool ok, extra->EvaluatesToTrue(ctx));
            if (!ok) continue;
          }
          const table::Row* matched[] = {outer[pos], &part.rows[idx]};
          pkt.Append(slots_, matched, /*out=*/nullptr);
          if (pkt.count >= cap) {
            if (!Push(std::move(pkt))) return false;
            pkt = Packet();
          }
        }
      }
      return true;
    }));
    if (pkt.count > 0) Push(std::move(pkt));
    return Status::OK();
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  int probe_workers_ = 1;
  int build_q_ = -1;
  std::vector<uint16_t> slots_;  // outer, build
  std::vector<std::vector<std::vector<BuildEntry>>> staged_;  // [w][part]
  std::unique_ptr<Partition[]> parts_;
  std::unique_ptr<std::latch> merged_;  // every partition is merged
  FragmentCrew build_crew_;
};

// ---------------------------------------------------------------------------
// Parallel pre-aggregation (hash group by / distinct): each worker folds
// its morsels into a private table with the serial operator's own step,
// merges it into the shared one under the merge latch once its fragment
// drains (revoked workers included), and the coordinator emits serially.
// The tables are the serial operators' GroupTable / KeyTable, and
// emission is in encoded-key order, so group-by output matches the serial
// HashGroupByOp exactly.
// ---------------------------------------------------------------------------

/// The crew both pre-aggregations run inside Open, whose workers merge
/// into a table guarded by merge_mu_.
class PreAggregateOp : public Operator {
 public:
  PreAggregateOp(const PlanNode* plan, ExecContext* ec, int workers)
      : plan_(plan), ec_(ec), workers_(workers), crew_(ec) {}

  uint64_t MemoryBytes() const override { return crew_.charged(); }

 protected:
  /// Runs `body` on every worker of a crew over the child fragment, to the
  /// end.
  Status RunCrew(FragmentCrew::Body body) {
    HDB_RETURN_IF_ERROR(crew_.Start(plan_->children[0].get(), workers_,
                                    StartPipeline(ec_, plan_, workers_),
                                    std::move(body)));
    return crew_.Join();
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  const int workers_;
  RankedMutex<LockRank::kParallelMerge> merge_mu_;
  FragmentCrew crew_;
};

class ExchangeGroupByOp : public PreAggregateOp {
 public:
  ExchangeGroupByOp(const PlanNode* plan, ExecContext* ec, int workers)
      : PreAggregateOp(plan, ec, workers),
        merged_(plan->group_keys.size(), plan->aggregates.size()) {}

  Status Open() override {
    merged_.Clear();
    emit_.Clear();
    HDB_RETURN_IF_ERROR(RunCrew([this](int, Worker& wk) {
      GroupTable local(plan_->group_keys.size(), plan_->aggregates.size());
      GroupAccumulator acc(plan_, wk.ctx);
      const Status s = wk.Drive([&](RowBatch& b) -> Result<bool> {
        HDB_RETURN_IF_ERROR(acc.Fold(b, &local, &wk.ctx, &wk.charged));
        return true;
      });
      if (s.ok()) Merge(local);
      return s;
    }));
    emit_.Reset(merged_.Finalize(plan_->aggregates));
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    return emit_.Next(ec_->num_quantifiers, plan_->having.get(), b);
  }

  void Close() override {
    crew_.Close();
    merged_.Clear();
    emit_.Clear();
  }

 private:
  void Merge(const GroupTable& local) {
    LockGuard lock(merge_mu_);
    for (uint32_t g = 0; g < local.size(); ++g) {
      merged_.Merge(local.keys.key(g), local.states_of(g));
    }
  }

  GroupTable merged_ GUARDED_BY(merge_mu_);
  GroupEmitter emit_;
};

/// Parallel DISTINCT: per-worker dedup tables (output row → first
/// occurrence, under the serial operator's key identity) merged as each
/// worker drains. Emission is in encoded-key order — deterministic, but
/// different from the serial streaming operator's arrival order; DISTINCT
/// without ORDER BY is unordered by contract (and ORDER BY below DISTINCT
/// makes the fragment ineligible, so the parallel path never has an order
/// to preserve).
class ExchangeDistinctOp : public PreAggregateOp {
 public:
  using PreAggregateOp::PreAggregateOp;

  Status Open() override {
    if (!PlanProducesOutput(plan_->children[0].get())) {
      return Status::Internal("parallel distinct fragment without projection");
    }
    merged_.Clear();
    HDB_RETURN_IF_ERROR(RunCrew([this](int, Worker& wk) {
      KeyTable local;
      const Status s = wk.Drive([&](RowBatch& b) -> Result<bool> {
        const size_t n = b.ActiveCount();
        for (size_t i = 0; i < n; ++i) {
          const table::Row& row = b.output(b.Active(i));
          auto key = [&](size_t k) -> const Value& { return row[k]; };
          const uint64_t h = KeyHash(row.size(), key);
          if (local.size() == 0) local.Reset(row.size());
          if (local.Find(h, key) != FlatHashTable::kAbsent) continue;
          local.Insert(h, key);
          HDB_RETURN_IF_ERROR(
              wk.Charge(EncodedValuesBytes(row.data(), row.size()) + 32));
        }
        return true;
      });
      if (s.ok()) Merge(local);
      return s;
    }));
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
    crew_.Close();
    merged_.Clear();
    order_.clear();
  }

 private:
  void Merge(const KeyTable& local) {
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

  KeyTable merged_ GUARDED_BY(merge_mu_);
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
