#ifndef HDB_EXEC_BATCH_EVAL_H_
#define HDB_EXEC_BATCH_EVAL_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "exec/row_batch.h"
#include "optimizer/expr.h"

namespace hdb::exec {

/// Executor-internal helpers shared by the serial operators (executor.cc)
/// and the exchange workers (exchange.cc), so that both run the same batch
/// code (DESIGN.md §9, §13.3).

inline void InitScratchCtx(const ExecContext* ec, optimizer::RowContext* ctx) {
  ctx->rows.assign(ec->num_quantifiers + 1, nullptr);
  ctx->params = ec->params;
}

/// Charges `bytes` of operator memory to the statement (no-op without a
/// memory context). Exchange workers must never run the coordinator-only
/// spill scheduler (memory_governor.h concurrency contract): their
/// charges take the latch-only path and rely on Eq. (4) for the hard stop.
inline Status ChargeQuota(ExecContext* ec, uint64_t bytes) {
  if (ec->memory == nullptr) return Status::OK();
  return ec->in_parallel_worker ? ec->memory->ChargeBytesFromWorker(bytes)
                                : ec->memory->ChargeBytes(bytes);
}

inline void ReleaseQuota(ExecContext* ec, uint64_t bytes) {
  if (ec->memory != nullptr && bytes > 0) ec->memory->ReleaseBytes(bytes);
}

/// Evaluates `e` for the row bound in `ctx`, fast-pathing the ubiquitous
/// plain-column case: a single copy-assign (which keeps `out`'s string
/// capacity) instead of an Evaluate tree walk returning a fresh
/// Result<Value> per row.
inline Status EvalExprInto(const optimizer::Expr* e,
                           const optimizer::RowContext& ctx, Value* out) {
  if (e->kind() == optimizer::ExprKind::kColumnRef) {
    const table::Row* r = ctx.rows[e->quantifier()];
    if (r != nullptr) {
      *out = (*r)[e->column()];
      return Status::OK();
    }
  }
  HDB_ASSIGN_OR_RETURN(Value v, e->Evaluate(ctx));
  *out = std::move(v);
  return Status::OK();
}

/// Reads a fixed list of expressions — projections, join keys, group keys,
/// aggregate arguments — at each position of a batch (DESIGN.md §9). A
/// plain column reference whose slot the batch binds is read in place from
/// RowBatch::Column. Any other expression is evaluated with EvalExprInto
/// into a scratch Value; that needs the row bound into a RowContext first
/// (needs_row()). A null expression (COUNT(*)'s argument) reads as NULL.
class BatchExprs {
 public:
  explicit BatchExprs(const std::vector<const optimizer::Expr*>& exprs) {
    items_.reserve(exprs.size());
    for (const optimizer::Expr* e : exprs) items_.emplace_back(e);
  }

  size_t size() const { return items_.size(); }

  /// Looks up `b`'s pointer columns; call once per batch.
  void Bind(const RowBatch& b) {
    needs_row_ = false;
    for (Item& it : items_) {
      const optimizer::Expr* e = it.expr;
      it.col = nullptr;
      if (e == nullptr) continue;
      if (e->kind() == optimizer::ExprKind::kColumnRef &&
          e->quantifier() >= 0 &&
          static_cast<size_t>(e->quantifier()) < b.num_slots()) {
        it.col = b.Column(static_cast<size_t>(e->quantifier()));
        it.column = e->column();
      }
      if (it.col == nullptr) needs_row_ = true;
    }
  }

  /// True when some expression is evaluated rather than read in place:
  /// bind each row into a RowContext and call Eval before Get.
  bool needs_row() const { return needs_row_; }

  /// Evaluates the expressions not read in place for the row in `ctx`.
  Status Eval(const optimizer::RowContext& ctx) {
    for (Item& it : items_) {
      if (it.col != nullptr || it.expr == nullptr) continue;
      HDB_RETURN_IF_ERROR(EvalExprInto(it.expr, ctx, &it.scratch));
    }
    return Status::OK();
  }

  /// Binds row `pos` of `b` into `ctx` and evaluates, when some
  /// expression needs it; then every Get(i, pos) is ready.
  Status Prepare(const RowBatch& b, size_t pos, optimizer::RowContext* ctx) {
    if (!needs_row_) return Status::OK();
    b.BindRow(pos, ctx);
    return Eval(*ctx);
  }

  /// Expression `i` at batch position `pos`.
  const Value& Get(size_t i, size_t pos) const {
    const Item& it = items_[i];
    return it.col != nullptr ? (*it.col[pos])[it.column] : it.scratch;
  }

 private:
  struct Item {
    explicit Item(const optimizer::Expr* e) : expr(e) {}
    const optimizer::Expr* expr;
    const table::Row* const* col = nullptr;  // null: evaluated
    int column = 0;
    Value scratch;
  };
  std::vector<Item> items_;
  bool needs_row_ = false;
};

}  // namespace hdb::exec

#endif  // HDB_EXEC_BATCH_EVAL_H_
