#include "exec/executor.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <string_view>

#include "common/ophash.h"
#include "exec/agg.h"
#include "exec/batch_eval.h"
#include "exec/exchange.h"
#include "exec/hash_table.h"
#include "exec/spill.h"
#include "obs/trace.h"
#include "table/row_codec.h"

namespace hdb::exec {

namespace {

using optimizer::CompareOp;
using optimizer::Expr;
using optimizer::ExprKind;
using optimizer::ExprPtr;
using optimizer::PlanKind;
using optimizer::PlanNode;
using optimizer::RowContext;

// ---------------------------------------------------------------------------
// Feedback observation: recognize single-column predicates whose outcomes
// can update the self-managing statistics (paper §3.2: "the evaluation of
// (almost) any predicate over a base column can lead to an update of the
// histogram for this column").
// ---------------------------------------------------------------------------

struct ObservablePred {
  enum Kind { kEq, kRange, kIsNull, kLike } kind = kEq;
  int column = -1;
  std::optional<Value> lo, hi;
  std::string pattern;
};

std::optional<ObservablePred> ClassifyObservable(const ExprPtr& e,
                                                 int quantifier) {
  ObservablePred p;
  if (e->kind() == ExprKind::kCompare) {
    const Expr* l = e->children()[0].get();
    const Expr* r = e->children()[1].get();
    const Expr* col = nullptr;
    const Expr* lit = nullptr;
    CompareOp op = e->compare_op();
    if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
      col = l;
      lit = r;
    } else if (r->kind() == ExprKind::kColumnRef &&
               l->kind() == ExprKind::kLiteral) {
      col = r;
      lit = l;
      switch (op) {
        case CompareOp::kLt: op = CompareOp::kGt; break;
        case CompareOp::kLe: op = CompareOp::kGe; break;
        case CompareOp::kGt: op = CompareOp::kLt; break;
        case CompareOp::kGe: op = CompareOp::kLe; break;
        default: break;
      }
    } else {
      return std::nullopt;
    }
    if (col->quantifier() != quantifier) return std::nullopt;
    p.column = col->column();
    switch (op) {
      case CompareOp::kEq:
        p.kind = ObservablePred::kEq;
        p.lo = lit->literal();
        return p;
      case CompareOp::kLt:
      case CompareOp::kLe:
        p.kind = ObservablePred::kRange;
        p.hi = lit->literal();
        return p;
      case CompareOp::kGt:
      case CompareOp::kGe:
        p.kind = ObservablePred::kRange;
        p.lo = lit->literal();
        return p;
      default:
        return std::nullopt;
    }
  }
  if (e->kind() == ExprKind::kBetween) {
    const Expr* v = e->children()[0].get();
    const Expr* lo = e->children()[1].get();
    const Expr* hi = e->children()[2].get();
    if (v->kind() == ExprKind::kColumnRef && v->quantifier() == quantifier &&
        lo->kind() == ExprKind::kLiteral && hi->kind() == ExprKind::kLiteral) {
      p.kind = ObservablePred::kRange;
      p.column = v->column();
      p.lo = lo->literal();
      p.hi = hi->literal();
      return p;
    }
    return std::nullopt;
  }
  if (e->kind() == ExprKind::kIsNull) {
    const Expr* v = e->children()[0].get();
    if (v->kind() == ExprKind::kColumnRef && v->quantifier() == quantifier &&
        !e->negated()) {
      p.kind = ObservablePred::kIsNull;
      p.column = v->column();
      return p;
    }
    return std::nullopt;
  }
  if (e->kind() == ExprKind::kLike) {
    const Expr* v = e->children()[0].get();
    if (v->kind() == ExprKind::kColumnRef && v->quantifier() == quantifier) {
      p.kind = ObservablePred::kLike;
      p.column = v->column();
      p.pattern = e->pattern();
      return p;
    }
  }
  return std::nullopt;
}

/// Reports one conjunct's outcomes over a batch: `matched` of `seen` rows
/// evaluated true (one collector call per conjunct per batch).
void Observe(ExecContext* ec, uint32_t table_oid, const ObservablePred& p,
             uint64_t seen, uint64_t matched) {
  if (ec == nullptr || ec->feedback == nullptr) return;
  switch (p.kind) {
    case ObservablePred::kEq:
      ec->feedback->ObserveEquals(table_oid, p.column, *p.lo, seen, matched);
      break;
    case ObservablePred::kRange:
      ec->feedback->ObserveRange(table_oid, p.column, p.lo, p.hi, seen,
                                 matched);
      break;
    case ObservablePred::kIsNull:
      ec->feedback->ObserveIsNull(table_oid, p.column, seen, matched);
      break;
    case ObservablePred::kLike:
      ec->feedback->ObserveLike(table_oid, p.column, p.pattern, seen,
                                matched);
      break;
  }
}

/// A conjunct compiled down to "column <op> literal" (or BETWEEN two
/// literals), evaluable against a batch column without walking the
/// expression tree or constructing a Result<Value> per row. The literals
/// are non-null, so matching `v.is_null() -> false; else Value::Compare`
/// is exactly the three-valued-logic outcome of Expr::Evaluate.
struct FastPred {
  bool is_between = false;
  int slot = 0;    // quantifier slot whose batch column holds the row
  int column = 0;  // column within that row
  optimizer::CompareOp op = optimizer::CompareOp::kEq;
  Value lo, hi;  // compare: lo only; between: [lo, hi]
};

std::optional<FastPred> ClassifyFast(const ExprPtr& e) {
  using optimizer::CompareOp;
  if (e->kind() == ExprKind::kCompare) {
    const Expr* l = e->children()[0].get();
    const Expr* r = e->children()[1].get();
    FastPred f;
    f.op = e->compare_op();
    if (l->kind() == ExprKind::kColumnRef &&
        r->kind() == ExprKind::kLiteral) {
      f.slot = l->quantifier();
      f.column = l->column();
      f.lo = r->literal();
    } else if (r->kind() == ExprKind::kColumnRef &&
               l->kind() == ExprKind::kLiteral) {
      f.slot = r->quantifier();
      f.column = r->column();
      f.lo = l->literal();
      switch (f.op) {  // literal <op> column: mirror the operator
        case CompareOp::kLt: f.op = CompareOp::kGt; break;
        case CompareOp::kLe: f.op = CompareOp::kGe; break;
        case CompareOp::kGt: f.op = CompareOp::kLt; break;
        case CompareOp::kGe: f.op = CompareOp::kLe; break;
        default: break;  // = and <> are symmetric
      }
    } else {
      return std::nullopt;
    }
    if (f.lo.is_null()) return std::nullopt;
    return f;
  }
  if (e->kind() == ExprKind::kBetween) {
    const Expr* v = e->children()[0].get();
    const Expr* lo = e->children()[1].get();
    const Expr* hi = e->children()[2].get();
    if (v->kind() != ExprKind::kColumnRef ||
        lo->kind() != ExprKind::kLiteral ||
        hi->kind() != ExprKind::kLiteral) {
      return std::nullopt;
    }
    FastPred f;
    f.is_between = true;
    f.slot = v->quantifier();
    f.column = v->column();
    f.lo = lo->literal();
    f.hi = hi->literal();
    if (f.lo.is_null() || f.hi.is_null()) return std::nullopt;
    return f;
  }
  return std::nullopt;
}

bool FastMatch(const FastPred& f, const table::Row& row) {
  using optimizer::CompareOp;
  const Value& v = row[f.column];
  if (v.is_null()) return false;  // NULL comparison fails a filter
  if (f.is_between) return v.Compare(f.lo) >= 0 && v.Compare(f.hi) <= 0;
  const int c = v.Compare(f.lo);
  switch (f.op) {
    case CompareOp::kEq: return c == 0;
    case CompareOp::kNe: return c != 0;
    case CompareOp::kLt: return c < 0;
    case CompareOp::kLe: return c <= 0;
    case CompareOp::kGt: return c > 0;
    case CompareOp::kGe: return c >= 0;
  }
  return false;
}

/// A conjunct plus its (optional) observable classification and compiled
/// fast form.
struct CheckedPred {
  ExprPtr expr;
  std::optional<ObservablePred> observable;
  std::optional<FastPred> fast;
};

std::vector<CheckedPred> PrepareResidual(const ExprPtr& residual,
                                         int quantifier) {
  std::vector<CheckedPred> out;
  std::vector<ExprPtr> conjuncts;
  optimizer::SplitConjuncts(residual, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    out.push_back(
        CheckedPred{c, ClassifyObservable(c, quantifier), ClassifyFast(c)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Vectorized-execution helpers (DESIGN.md §9)
// ---------------------------------------------------------------------------

void BumpBatchStats(ExecContext* ec, size_t rows) {
  ec->stats.batches++;
  ec->stats.batch_rows += rows;
}

/// Rough decoded-row footprint for a table: Value header plus small-string
/// storage per column, vector header per row. Used only to size batch row
/// pools against the memory governor's quota, not for exact accounting.
size_t ApproxRowBytes(const catalog::TableDef& table) {
  return 48 * table.columns.size() + 64;
}

/// Effective rows-per-batch for one operator: the configured cap, shrunk
/// so that a batch row pool of `row_bytes_hint`-sized rows never claims
/// more than 1/8 of the statement's soft memory quota. Under low-memory
/// strategies (paper §4.3) the cap degrades toward 1 — back to
/// row-at-a-time — before the blocking operators above start spilling.
size_t EffectiveBatchCap(ExecContext* ec, size_t row_bytes_hint) {
  size_t cap = ec->batch_cap != 0 ? ec->batch_cap : kDefaultBatchCap;
  cap = std::min(cap, kMaxBatchCap);
  if (ec->memory != nullptr && ec->pool != nullptr && row_bytes_hint > 0) {
    const uint64_t soft_bytes =
        static_cast<uint64_t>(ec->memory->soft_limit_pages()) *
        ec->pool->page_bytes();
    const uint64_t max_rows =
        std::max<uint64_t>(1, (soft_bytes / 8) / row_bytes_hint);
    if (max_rows < cap) {
      cap = static_cast<size_t>(max_rows);
      ec->stats.batch_cap_shrinks++;
    }
  }
  return cap;
}

/// Charges a batch row pool ("arena") against the statement quota and
/// tracks the live/peak arena bytes. `*charged` accumulates what must be
/// released.
Status ChargeArena(ExecContext* ec, uint64_t bytes, uint64_t* charged) {
  if (bytes == 0) return Status::OK();
  HDB_RETURN_IF_ERROR(ChargeQuota(ec, bytes));
  *charged += bytes;
  ec->batch_arena_live += bytes;
  ec->stats.batch_arena_peak_bytes =
      std::max(ec->stats.batch_arena_peak_bytes, ec->batch_arena_live);
  return Status::OK();
}

void ReleaseArena(ExecContext* ec, uint64_t* charged) {
  if (*charged == 0) return;
  ReleaseQuota(ec, *charged);
  ec->batch_arena_live -= std::min(ec->batch_arena_live, *charged);
  *charged = 0;
}

/// Applies residual conjuncts to a batch by compacting its selection
/// vector, conjunct-major: conjunct j is only evaluated on the survivors
/// of conjuncts 1..j-1, so per-row short-circuiting — and therefore the
/// feedback totals (paper §3.2) — is the same at every batch cap. Each
/// observable conjunct reports (rows evaluated, rows kept) once per batch.
/// In-place compaction is safe because the write index never passes the
/// read index.
Status ApplyPredsToBatch(ExecContext* ec, uint32_t table_oid,
                         std::span<const CheckedPred> preds, RowBatch* b,
                         RowContext* ctx) {
  for (const CheckedPred& p : preds) {
    const size_t n = b->ActiveCount();
    if (n == 0) break;
    uint16_t* sel = b->MutableSel();
    size_t k = 0;
    const table::Row* const* fast_col =
        p.fast.has_value() ? b->Column(p.fast->slot) : nullptr;
    if (fast_col != nullptr) {
      // Compiled simple conjunct: tight loop over the batch column, no
      // RowContext binding and no expression-tree walk per row.
      const FastPred& f = *p.fast;
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = b->Active(i);
        if (FastMatch(f, *fast_col[pos])) sel[k++] = static_cast<uint16_t>(pos);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = b->Active(i);
        b->BindRow(pos, ctx);
        HDB_ASSIGN_OR_RETURN(const bool ok, p.expr->EvaluatesToTrue(*ctx));
        if (ok) sel[k++] = static_cast<uint16_t>(pos);
      }
    }
    b->SetSelection(k);
    if (p.observable.has_value()) Observe(ec, table_oid, *p.observable, n, k);
  }
  return Status::OK();
}

/// Splits an expression into unobserved CheckedPreds (plain conjuncts, no
/// feedback classification) for batch evaluation of join extra conditions
/// and standalone filters.
std::vector<CheckedPred> PrepareUnobserved(const ExprPtr& e) {
  std::vector<CheckedPred> out;
  if (e == nullptr) return out;
  std::vector<ExprPtr> conjuncts;
  optimizer::SplitConjuncts(e, &conjuncts);
  for (const ExprPtr& c : conjuncts) {
    out.push_back(CheckedPred{c, std::nullopt, ClassifyFast(c)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Column pruning (DESIGN.md §9): which columns of each quantifier's base
// table does the plan actually reference? A scan hands the mask to
// DecodeRowInto so unreferenced columns are skipped in the byte stream
// rather than copied into the row pool.
// ---------------------------------------------------------------------------

void CollectExprColumns(const Expr* e,
                        std::vector<std::vector<uint8_t>>* masks) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kColumnRef) {
    const int q = e->quantifier();
    const int c = e->column();
    if (q >= 0 && c >= 0) {
      if (masks->size() <= static_cast<size_t>(q)) masks->resize(q + 1);
      auto& m = (*masks)[q];
      if (m.size() <= static_cast<size_t>(c)) m.resize(c + 1, 0);
      m[c] = 1;
    }
  }
  for (const ExprPtr& ch : e->children()) CollectExprColumns(ch.get(), masks);
}

void CollectPlanColumnMasks(const PlanNode* n,
                            std::vector<std::vector<uint8_t>>* masks) {
  CollectExprColumns(n->residual.get(), masks);
  CollectExprColumns(n->outer_key.get(), masks);
  CollectExprColumns(n->inner_key.get(), masks);
  CollectExprColumns(n->extra_condition.get(), masks);
  CollectExprColumns(n->index_lo_expr.get(), masks);
  CollectExprColumns(n->index_hi_expr.get(), masks);
  CollectExprColumns(n->having.get(), masks);
  for (const ExprPtr& k : n->group_keys) CollectExprColumns(k.get(), masks);
  for (const auto& a : n->aggregates) CollectExprColumns(a.arg.get(), masks);
  for (const auto& o : n->order) CollectExprColumns(o.expr.get(), masks);
  for (const auto& p : n->projections) CollectExprColumns(p.expr.get(), masks);
  for (const auto& c : n->children) CollectPlanColumnMasks(c.get(), masks);
}

void CollectBoundQuantifiers(const PlanNode* n, std::vector<int>* out) {
  switch (n->kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kIndexScan:
      out->push_back(n->quantifier);
      return;
    case PlanKind::kIndexNLJoin:
      CollectBoundQuantifiers(n->children[0].get(), out);
      out->push_back(n->quantifier);
      return;
    default:
      for (const auto& c : n->children) {
        CollectBoundQuantifiers(c.get(), out);
      }
  }
}

// ---------------------------------------------------------------------------
// Pre-decode stage of the heap scan (DESIGN.md §9): the scan's leading
// compiled conjuncts and the hash joins' key filters run on each row's
// encoded bytes, and only the rows that pass them are decoded.
// ---------------------------------------------------------------------------

bool IntegralType(TypeId t) {
  return t == TypeId::kInt || t == TypeId::kBigint || t == TypeId::kDate ||
         t == TypeId::kTimestamp;
}

/// A column the pre-decode stage can read off the encoded row: a number
/// ahead of the first VARCHAR. Its byte offset, or -1.
int NumericOffset(const catalog::TableDef& table,
                  const table::RowDecoder& decoder, int column) {
  const TypeId t = table.columns[column].type;
  if (!IntegralType(t) && t != TypeId::kDouble) return -1;
  return decoder.FixedOffset(column);
}

/// A numeric column read straight off an encoded row at its fixed offset:
/// the int64 Value it decodes to (INT is stored in 8 bytes and decodes
/// through int32) and that value as a double, the two operands
/// Value::Compare uses.
struct EncodedNumber {
  int64_t i = 0;
  double d = 0;

  EncodedNumber(const char* row, int offset, TypeId type) {
    if (type == TypeId::kDouble) {
      std::memcpy(&d, row + offset, 8);
      return;
    }
    std::memcpy(&i, row + offset, 8);
    if (type == TypeId::kInt) i = static_cast<int32_t>(i);
    d = static_cast<double>(i);
  }
};

/// A FastPred compiled against the encoded row: its column's fixed byte
/// offset and type, and each literal as the number Value::Compare would
/// compare with — exactly as int64s when column and literal both hold
/// one, through double otherwise.
struct ByteTerm {
  struct Bound {
    bool exact = false;
    int64_t i = 0;
    double d = 0;

    int Compare(const EncodedNumber& x) const {
      if (exact) return x.i < i ? -1 : (x.i > i ? 1 : 0);
      const double diff = x.d - d;
      return diff < 0 ? -1 : (diff > 0 ? 1 : 0);
    }
  };

  int offset = 0;
  TypeId type = TypeId::kInt;
  bool is_between = false;
  CompareOp op = CompareOp::kEq;
  Bound lo, hi;

  bool Matches(const char* row) const {
    const EncodedNumber x(row, offset, type);
    if (is_between) return lo.Compare(x) >= 0 && hi.Compare(x) <= 0;
    const int c = lo.Compare(x);
    switch (op) {
      case CompareOp::kEq: return c == 0;
      case CompareOp::kNe: return c != 0;
      case CompareOp::kLt: return c < 0;
      case CompareOp::kLe: return c <= 0;
      case CompareOp::kGt: return c > 0;
      case CompareOp::kGe: return c >= 0;
    }
    return false;
  }
};

/// Compiles `f` when it compares a numeric column at a fixed offset with
/// numeric literals.
std::optional<ByteTerm> CompileByteTerm(const FastPred& f,
                                        const catalog::TableDef& table,
                                        const table::RowDecoder& decoder) {
  if (f.column < 0 || static_cast<size_t>(f.column) >= table.columns.size()) {
    return std::nullopt;
  }
  const TypeId type = table.columns[f.column].type;
  const int offset = NumericOffset(table, decoder, f.column);
  if (offset < 0) return std::nullopt;
  const auto bound = [&](const Value& lit) -> std::optional<ByteTerm::Bound> {
    if (!lit.holds_int64() && !lit.holds_double()) return std::nullopt;
    ByteTerm::Bound b;
    b.exact = IntegralType(type) && lit.holds_int64();
    if (lit.holds_int64()) b.i = lit.AsInt();
    b.d = lit.AsDouble();
    return b;
  };
  ByteTerm t;
  t.offset = offset;
  t.type = type;
  t.is_between = f.is_between;
  t.op = f.op;
  const auto lo = bound(f.lo);
  if (!lo) return std::nullopt;
  t.lo = *lo;
  if (f.is_between) {
    const auto hi = bound(f.hi);
    if (!hi) return std::nullopt;
    t.hi = *hi;
  }
  return t;
}

/// The heap scan's pre-decode stage. Prepare() compiles the longest
/// leading run of the scan's conjuncts into ByteTerms (up to kMaxTerms);
/// Admit() runs once per live row in scan order. A row with a NULL, or
/// shorter than the terms need, is decoded first and its terms go through
/// FastMatch. Each term counts (seen, matched) for the batch, so Report()
/// gives the §3.2 feedback collector exactly what ApplyPredsToBatch would
/// have.
///
/// Key filters published by hash joins (up to kMaxFilters; a filter is
/// only ever an optimization, so more are declined) run after the terms,
/// and only when every conjunct is a term: otherwise the remaining
/// conjuncts' feedback would miss the rows they drop. A filter that has
/// dropped under 1/kMinDropShare of the first kProbationRows rows it
/// tested is switched off until the scan re-opens: hashing every row
/// would cost more than the decodes it saves. Terms and filters live
/// inline: a scan allocates nothing for them.
class ScanGate {
 public:
  static constexpr size_t kMaxTerms = 8;
  static constexpr size_t kMaxFilters = 4;
  static constexpr uint64_t kProbationRows = 4096;
  static constexpr uint64_t kMinDropShare = 32;

  void Prepare(const catalog::TableDef& table, int quantifier,
               const std::vector<CheckedPred>& preds,
               const table::RowDecoder* decoder) {
    table_ = &table;
    decoder_ = decoder;
    nterms_ = 0;
    for (const CheckedPred& p : preds) {
      if (!p.fast.has_value() || p.fast->slot != quantifier ||
          nterms_ == kMaxTerms) {
        break;
      }
      auto t = CompileByteTerm(*p.fast, table, *decoder);
      if (!t) break;
      terms_[nterms_++] = Term{*t, &p};
    }
    all_pushed_ = nterms_ == preds.size();
    for (size_t i = 0; i < nfilters_; ++i) {
      filters_[i].tested = filters_[i].dropped = 0;
      filters_[i].on = true;
    }
    CompileFilters();
  }

  /// Conjuncts the stage evaluates: the first pushed() of the scan's.
  size_t pushed() const { return nterms_; }

  /// False when neither terms nor key filters run here: plain decode.
  bool active() const { return nterms_ > 0 || FiltersHere(); }

  bool AddFilter(int column, const KeyFilter* f) {
    if (nfilters_ == kMaxFilters) return false;
    filters_[nfilters_++] = Filter{column, -1, TypeId::kInt, f};
    CompileFilters();
    return true;
  }

  void RemoveFilter(const KeyFilter* f) {
    size_t k = 0;
    for (size_t i = 0; i < nfilters_; ++i) {
      if (filters_[i].filter != f) filters_[k++] = filters_[i];
    }
    nfilters_ = k;
    CompileFilters();
  }

  void BeginBatch() {
    for (size_t j = 0; j < nterms_; ++j) terms_[j].seen = terms_[j].matched = 0;
    decoded_ = 0;
    for (size_t i = 0; i < nfilters_; ++i) {
      Filter& k = filters_[i];
      if (k.on && k.tested >= kProbationRows &&
          k.dropped * kMinDropShare < k.tested) {
        k.on = false;
        CompileFilters();
      }
    }
  }

  /// Rows decoded since BeginBatch().
  size_t decoded() const { return decoded_; }

  Result<bool> Admit(const char* data, size_t len, table::Row* row) {
    const bool on_bytes = len >= min_len_ && decoder_->NoNulls(data);
    if (on_bytes) {
      for (size_t j = 0; j < nterms_; ++j) {
        Term& t = terms_[j];
        ++t.seen;
        if (!t.test.Matches(data)) return false;
        ++t.matched;
      }
      if (FiltersHere()) {
        for (size_t i = 0; i < nfilters_; ++i) {
          Filter& k = filters_[i];
          if (!k.on || k.offset < 0) continue;
          const EncodedNumber x(data, k.offset, k.type);
          const uint64_t h =
              k.type == TypeId::kDouble ? HashDouble(x.d) : HashInt64(x.i);
          if (!Passes(k, k.filter->MayContain(h))) return false;
        }
      }
    }
    HDB_RETURN_IF_ERROR(decoder_->DecodeInto(data, len, row));
    ++decoded_;
    if (!on_bytes) {
      for (size_t j = 0; j < nterms_; ++j) {
        Term& t = terms_[j];
        ++t.seen;
        if (!FastMatch(*t.pred->fast, *row)) return false;
        ++t.matched;
      }
    }
    if (FiltersHere()) {
      for (size_t i = 0; i < nfilters_; ++i) {
        Filter& k = filters_[i];
        if (!k.on || (on_bytes && k.offset >= 0)) continue;
        if (!Passes(k, MayJoin(k, *row))) return false;
      }
    }
    return true;
  }

  /// Reports the batch's outcomes of each term, in conjunct order, and
  /// stops where ApplyPredsToBatch would: at the first term that saw no
  /// rows.
  void Report(ExecContext* ec, uint32_t table_oid) const {
    for (size_t j = 0; j < nterms_ && terms_[j].seen > 0; ++j) {
      const Term& t = terms_[j];
      if (t.pred->observable.has_value()) {
        Observe(ec, table_oid, *t.pred->observable, t.seen, t.matched);
      }
    }
  }

  /// Rows the key filters dropped, cumulative over the scan's lifetime.
  uint64_t filtered() const { return filtered_; }

 private:
  struct Term {
    ByteTerm test;
    const CheckedPred* pred = nullptr;  // the conjunct it compiles
    uint64_t seen = 0, matched = 0;     // this batch
  };
  struct Filter {
    int column = 0;
    int offset = -1;  // fixed byte offset when numeric, else -1
    TypeId type = TypeId::kInt;
    const KeyFilter* filter = nullptr;
    uint64_t tested = 0, dropped = 0;  // since the scan opened
    bool on = true;
  };

  bool FiltersHere() const { return all_pushed_ && filters_on_; }

  /// Counts one test of filter `k`; false drops the row.
  bool Passes(Filter& k, bool may_join) {
    ++k.tested;
    if (may_join) return true;
    ++k.dropped;
    ++filtered_;
    return false;
  }

  static bool MayJoin(const Filter& k, const table::Row& row) {
    const Value& v = row[k.column];
    return !v.is_null() && k.filter->MayContain(v.Hash());
  }

  // Byte offsets of the filter keys, and the row length the byte path
  // needs for every term and key.
  void CompileFilters() {
    if (decoder_ == nullptr) return;
    min_len_ = static_cast<size_t>(decoder_->FixedOffset(0));  // the bitmap
    for (size_t j = 0; j < nterms_; ++j) {
      min_len_ = std::max(min_len_,
                          static_cast<size_t>(terms_[j].test.offset) + 8);
    }
    filters_on_ = false;
    for (size_t i = 0; i < nfilters_; ++i) {
      Filter& k = filters_[i];
      filters_on_ = filters_on_ || k.on;
      if (!k.on) continue;
      k.type = table_->columns[k.column].type;
      k.offset = NumericOffset(*table_, *decoder_, k.column);
      if (k.offset >= 0) {
        min_len_ = std::max(min_len_, static_cast<size_t>(k.offset) + 8);
      }
    }
  }

  const catalog::TableDef* table_ = nullptr;
  const table::RowDecoder* decoder_ = nullptr;
  std::array<Term, kMaxTerms> terms_;
  size_t nterms_ = 0;
  bool all_pushed_ = false;
  std::array<Filter, kMaxFilters> filters_;
  size_t nfilters_ = 0;
  bool filters_on_ = false;  // some filter is switched on
  size_t min_len_ = 0;
  size_t decoded_ = 0;
  uint64_t filtered_ = 0;
};

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

class SeqScanOp : public Operator {
 public:
  SeqScanOp(const PlanNode* plan, ExecContext* ec)
      : plan_(plan), ec_(ec),
        preds_(PrepareResidual(plan->residual, plan->quantifier)) {}

  Status Open() override {
    InitScratchCtx(ec_, &scratch_);
    if (plan_->table->is_virtual) {
      // sys.* scan: the engine materializes live telemetry rows here.
      if (ec_->virtual_rows == nullptr) {
        return Status::Internal("no virtual-table row source");
      }
      HDB_ASSIGN_OR_RETURN(virtual_rows_,
                           ec_->virtual_rows(plan_->table->oid));
      virtual_pos_ = 0;
      cap_ = EffectiveBatchCap(ec_, 0);
      return Status::OK();
    }
    heap_ = ec_->table_heap(plan_->table->oid);
    if (heap_ == nullptr) return Status::Internal("missing table heap");
    // Exchange-worker fragment: this scan's rows come from the pipeline's
    // shared morsel dispenser (FCFS over one heap iterator, DESIGN.md
    // §13) instead of a private iterator. Decoding still happens here,
    // outside the dispenser's latch.
    morsel_mode_ = ec_->morsel_source != nullptr &&
                   plan_->quantifier == ec_->morsel_quantifier;
    morsel_n_ = 0;
    morsel_pos_ = 0;
    if (!morsel_mode_) it_ = heap_->Scan();
    const size_t hint = ApproxRowBytes(*plan_->table);
    cap_ = EffectiveBatchCap(ec_, hint);
    HDB_RETURN_IF_ERROR(ChargeArena(ec_, cap_ * hint, &arena_charged_));
    // Column pruning: when ExecuteToRows computed reference masks (root
    // projects output), decode only the columns this plan touches. The
    // decoder is prepared either way — fixed-offset decode pays off even
    // without a mask.
    const uint8_t* needed = nullptr;
    if (!ec_->scan_masks.empty()) {
      const auto q = static_cast<size_t>(plan_->quantifier);
      mask_storage_.assign(plan_->table->columns.size(), 0);
      if (q < ec_->scan_masks.size()) {
        const auto& m = ec_->scan_masks[q];
        std::copy(m.begin(),
                  m.begin() + std::min(m.size(), mask_storage_.size()),
                  mask_storage_.begin());
      }
      needed = mask_storage_.data();
    }
    decoder_.Prepare(*plan_->table, needed);
    gate_.Prepare(*plan_->table, plan_->quantifier, preds_, &decoder_);
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    const size_t cap = std::min(cap_, b->capacity());
    if (plan_->table->is_virtual) {
      if (virtual_pos_ >= virtual_rows_.size()) return false;
      const size_t n = std::min(cap, virtual_rows_.size() - virtual_pos_);
      const table::Row** col = b->BindSlot(plan_->quantifier);
      for (size_t i = 0; i < n; ++i) {
        col[i] = &virtual_rows_[virtual_pos_ + i];
      }
      virtual_pos_ += n;
      ec_->stats.rows_scanned += n;
      BumpBatchStats(ec_, n);
      b->SetSize(n);
      HDB_RETURN_IF_ERROR(
          ApplyPredsToBatch(ec_, plan_->table->oid, preds_, b, &scratch_));
      return true;
    }
    if (morsel_mode_) {
      if (morsel_pos_ >= morsel_n_) {
        // The revocation boundary (DESIGN.md §13): only between morsels,
        // never mid-morsel — rows already dispensed to this worker must
        // be fully consumed before it may stand down.
        if (ec_->morsel_revoked && ec_->morsel_revoked()) return false;
        HDB_ASSIGN_OR_RETURN(morsel_n_, ec_->morsel_source->Next(
                                            &morsel_bytes_, &morsel_rids_));
        morsel_pos_ = 0;
        if (morsel_n_ == 0) return false;
      }
      // A morsel can exceed the (governor-shrunk) batch cap; carry the
      // remainder over to the next pull instead of over-filling.
      const size_t n = std::min(cap, morsel_n_ - morsel_pos_);
      if (rows_pool_.size() < n) rows_pool_.resize(n);
      gate_.BeginBatch();
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        const std::string& bytes = morsel_bytes_[morsel_pos_ + i];
        HDB_ASSIGN_OR_RETURN(const bool keep,
                             Admit(bytes.data(), bytes.size(),
                                   &rows_pool_[kept]));
        kept += keep ? 1 : 0;
      }
      morsel_pos_ += n;
      return FinishBatch(b, n, kept);
    }
    gate_.BeginBatch();
    HDB_ASSIGN_OR_RETURN(
        const table::TableHeap::Iterator::Step step,
        it_->NextRowsIf(cap, &rows_pool_, &rids_pool_,
                        [this](const char* data, size_t len, table::Row* row) {
                          return Admit(data, len, row);
                        }));
    if (step.examined == 0) return false;
    return FinishBatch(b, step.examined, step.kept);
  }

  void Close() override {
    it_.reset();
    ReleaseArena(ec_, &arena_charged_);
  }

  bool AcceptKeyFilter(int quantifier, int column,
                       const KeyFilter* f) override {
    if (quantifier != plan_->quantifier || plan_->table->is_virtual ||
        column < 0 ||
        static_cast<size_t>(column) >= plan_->table->columns.size()) {
      return false;
    }
    return gate_.AddFilter(column, f);
  }

  void WithdrawKeyFilter(const KeyFilter* f) override {
    gate_.RemoveFilter(f);
  }

  uint64_t KeyFilteredRows() const override { return gate_.filtered(); }

 private:
  Result<bool> Admit(const char* data, size_t len, table::Row* row) {
    if (gate_.active()) return gate_.Admit(data, len, row);
    HDB_RETURN_IF_ERROR(decoder_.DecodeInto(data, len, row));
    return true;
  }

  /// Binds the `kept` of `examined` rows the gate let through, reports
  /// the gate's terms and applies the remaining conjuncts. The batch stays one of at
  /// most `cap` examined rows, so rows_scanned, batch boundaries and
  /// feedback do not depend on how many the gate dropped.
  Result<bool> FinishBatch(RowBatch* b, size_t examined, size_t kept) {
    ec_->stats.rows_scanned += examined;
    ec_->stats.rows_decoded += gate_.active() ? gate_.decoded() : examined;
    BumpBatchStats(ec_, examined);
    const table::Row** col = b->BindSlot(plan_->quantifier);
    for (size_t i = 0; i < kept; ++i) col[i] = &rows_pool_[i];
    b->SetSize(kept);
    gate_.Report(ec_, plan_->table->oid);
    HDB_RETURN_IF_ERROR(
        ApplyPredsToBatch(ec_, plan_->table->oid,
                          std::span(preds_).subspan(gate_.pushed()), b,
                          &scratch_));
    return true;
  }

  const PlanNode* plan_;
  ExecContext* ec_;
  std::vector<CheckedPred> preds_;
  table::TableHeap* heap_ = nullptr;
  std::optional<table::TableHeap::Iterator> it_;
  std::vector<std::vector<Value>> virtual_rows_;
  size_t virtual_pos_ = 0;
  // Reusable decoded-row pool (the "arena") + scratch context for
  // residual evaluation.
  size_t cap_ = kDefaultBatchCap;
  uint64_t arena_charged_ = 0;
  std::vector<table::Row> rows_pool_;
  std::vector<Rid> rids_pool_;
  // Morsel mode (exchange-worker fragments): encoded rows pulled from the
  // shared dispenser, consumed across batch pulls at morsel_pos_.
  bool morsel_mode_ = false;
  std::vector<std::string> morsel_bytes_;
  std::vector<Rid> morsel_rids_;
  size_t morsel_n_ = 0;
  size_t morsel_pos_ = 0;
  std::vector<uint8_t> mask_storage_;  // padded to the table's arity
  table::RowDecoder decoder_;          // compiled (schema, mask) decode
  RowContext scratch_;
  ScanGate gate_;                      // pre-decode stage
};

class IndexScanOp : public Operator {
 public:
  IndexScanOp(const PlanNode* plan, ExecContext* ec)
      : plan_(plan), ec_(ec),
        preds_(PrepareResidual(plan->residual, plan->quantifier)) {}

  Status Open() override {
    heap_ = ec_->table_heap(plan_->table->oid);
    index::BTree* tree = ec_->index(plan_->index->oid);
    if (heap_ == nullptr || tree == nullptr) {
      return Status::Internal("missing table heap or index");
    }
    rids_.clear();
    pos_ = 0;
    double lo = plan_->index_lo.value_or(
        -std::numeric_limits<double>::infinity());
    double hi =
        plan_->index_hi.value_or(std::numeric_limits<double>::infinity());
    // Parameterized bounds: the cached plan is parameter-independent; the
    // concrete range binds here, per invocation (paper §4.1).
    RowContext param_ctx;
    param_ctx.params = ec_->params;
    if (plan_->index_lo_expr != nullptr) {
      HDB_ASSIGN_OR_RETURN(const Value v,
                           plan_->index_lo_expr->Evaluate(param_ctx));
      lo = OrderPreservingHash(v);
    }
    if (plan_->index_hi_expr != nullptr) {
      HDB_ASSIGN_OR_RETURN(const Value v,
                           plan_->index_hi_expr->Evaluate(param_ctx));
      hi = OrderPreservingHash(v);
    }
    HDB_RETURN_IF_ERROR(tree->ScanRange(lo, plan_->index_lo_inclusive, hi,
                                        plan_->index_hi_inclusive,
                                        [this](double, Rid rid) {
                                          rids_.push_back(rid);
                                          return true;
                                        }));
    InitScratchCtx(ec_, &scratch_);
    const size_t hint = ApproxRowBytes(*plan_->table);
    cap_ = EffectiveBatchCap(ec_, hint);
    HDB_RETURN_IF_ERROR(ChargeArena(ec_, cap_ * hint, &arena_charged_));
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    if (pos_ >= rids_.size()) return false;
    const size_t n = std::min(std::min(cap_, b->capacity()),
                              rids_.size() - pos_);
    HDB_RETURN_IF_ERROR(heap_->GetMany(&rids_[pos_], n, &rows_pool_));
    pos_ += n;
    ec_->stats.rows_scanned += n;
    BumpBatchStats(ec_, n);
    const table::Row** col = b->BindSlot(plan_->quantifier);
    for (size_t i = 0; i < n; ++i) col[i] = &rows_pool_[i];
    b->SetSize(n);
    HDB_RETURN_IF_ERROR(
        ApplyPredsToBatch(ec_, plan_->table->oid, preds_, b, &scratch_));
    return true;
  }

  void Close() override { ReleaseArena(ec_, &arena_charged_); }

 private:
  const PlanNode* plan_;
  ExecContext* ec_;
  std::vector<CheckedPred> preds_;
  table::TableHeap* heap_ = nullptr;
  std::vector<Rid> rids_;
  size_t pos_ = 0;
  size_t cap_ = kDefaultBatchCap;
  uint64_t arena_charged_ = 0;
  std::vector<table::Row> rows_pool_;
  RowContext scratch_;
};

// ---------------------------------------------------------------------------
// Simple relational operators
// ---------------------------------------------------------------------------

class FilterOp : public Operator {
 public:
  FilterOp(const PlanNode* plan, std::unique_ptr<Operator> child)
      : child_(std::move(child)),
        conjuncts_(PrepareUnobserved(plan->residual)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> NextBatch(RowBatch* b) override {
    HDB_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(b));
    if (!more) return false;
    if (scratch_.rows.size() != b->num_slots()) {
      scratch_.rows.assign(b->num_slots(), nullptr);
      scratch_.params = b->params();
    }
    HDB_RETURN_IF_ERROR(ApplyPredsToBatch(/*ec=*/nullptr, /*table_oid=*/0,
                                          conjuncts_, b, &scratch_));
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<CheckedPred> conjuncts_;
  RowContext scratch_;
};

std::vector<const Expr*> ProjectionExprs(const PlanNode* plan) {
  std::vector<const Expr*> out;
  for (const auto& item : plan->projections) out.push_back(item.expr.get());
  return out;
}

class ProjectOp : public Operator {
 public:
  ProjectOp(const PlanNode* plan, std::unique_ptr<Operator> child)
      : child_(std::move(child)), exprs_(ProjectionExprs(plan)) {}

  Status Open() override { return child_->Open(); }

  Result<bool> NextBatch(RowBatch* b) override {
    HDB_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(b));
    if (!more) return false;
    if (scratch_.rows.size() != b->num_slots()) {
      scratch_.rows.assign(b->num_slots(), nullptr);
      scratch_.params = b->params();
    }
    // Plain column items are copied straight from the child's pointer
    // columns; a RowContext is bound only when some item is an expression.
    // Copy-assign into the reused output slot keeps string capacity.
    exprs_.Bind(*b);
    const size_t n = b->ActiveCount();
    const size_t nproj = exprs_.size();
    table::Row* outcol = b->OutputColumn();
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = b->Active(i);
      HDB_RETURN_IF_ERROR(exprs_.Prepare(*b, pos, &scratch_));
      table::Row& out = outcol[pos];
      out.resize(nproj);
      for (size_t j = 0; j < nproj; ++j) out[j] = exprs_.Get(j, pos);
    }
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  std::unique_ptr<Operator> child_;
  BatchExprs exprs_;
  RowContext scratch_;
};

class LimitOp : public Operator {
 public:
  LimitOp(const PlanNode* plan, std::unique_ptr<Operator> child)
      : plan_(plan), child_(std::move(child)) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    if (plan_->limit >= 0 && emitted_ >= plan_->limit) return false;
    HDB_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(b));
    if (!more) return false;
    if (plan_->limit >= 0) {
      const auto remaining = static_cast<size_t>(plan_->limit - emitted_);
      if (b->ActiveCount() > remaining) b->TruncateActive(remaining);
    }
    emitted_ += static_cast<int64_t>(b->ActiveCount());
    return true;
  }

  void Close() override { child_->Close(); }

 private:
  const PlanNode* plan_;
  std::unique_ptr<Operator> child_;
  int64_t emitted_ = 0;
};

/// Hash distinct with a deferred-dedup spill path (DESIGN.md §10). While
/// in memory it streams: unseen keys pass through immediately. Once the
/// spill scheduler picks it as a victim, the already-emitted keys are
/// dumped to an "emitted" spill file and the operator switches to
/// deferred mode: further rows are appended to a candidate file (deduped
/// against a best-effort in-memory cache that the scheduler may drop at
/// any time), then replayed in arrival order at end of input against the
/// emitted-key set — so ORDER BY below DISTINCT stays ordered.
class HashDistinctOp : public Operator, public MemoryConsumer {
 public:
  HashDistinctOp(const PlanNode* plan, std::unique_ptr<Operator> child,
                 ExecContext* ec)
      : plan_(plan), child_(std::move(child)), ec_(ec) {
    name = "hash_distinct";
  }

  Status Open() override {
    seen_.Clear();
    bytes_held_ = 0;
    spilled_ = false;
    draining_ = false;
    emitted_spill_.reset();
    candidate_spill_.reset();
    drain_reader_.reset();
    if (ec_->memory != nullptr) {
      plan_level = 4;
      predicted_pages = plan_->memory_quota_pages;
      ec_->memory->RegisterConsumer(this);
    }
    return child_->Open();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    if (draining_) return DrainBatch(b);
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(b));
      if (!more) {
        if (!spilled_) return false;
        HDB_RETURN_IF_ERROR(PrepareDrain());
        return DrainBatch(b);
      }
      const size_t n = b->ActiveCount();
      uint16_t* sel = b->MutableSel();
      size_t k = 0;
      for (size_t i = 0; i < n; ++i) {
        const size_t pos = b->Active(i);
        const table::Row& row = b->output(pos);
        if (spilled_) {
          // Deferred mode, possibly entered by a charge earlier in this
          // batch: the row joins the candidate stream.
          HDB_RETURN_IF_ERROR(DeferRow(row));
          continue;
        }
        // A charge that spills us on this very key is still exactly-once:
        // the key went out with the emitted dump.
        const uint64_t h = RowHash(row);
        if (Find(h, row) == FlatHashTable::kAbsent) {
          HDB_RETURN_IF_ERROR(AdmitKey(h, row));
          sel[k++] = static_cast<uint16_t>(pos);
        }
      }
      b->SetSelection(k);
      // A wholly deferred batch has nothing to emit: keep pulling.
      if (k > 0 || !spilled_) return true;
    }
  }

  void Close() override {
    child_->Close();
    if (ec_->memory != nullptr) ec_->memory->UnregisterConsumer(this);
    ReleaseQuota(ec_, bytes_held_);
    bytes_held_ = 0;
    seen_.Clear();
    emitted_spill_.reset();
    candidate_spill_.reset();
    drain_reader_.reset();
  }
  uint64_t MemoryBytes() const override { return bytes_held_; }
  uint64_t SpilledBytes() const override { return op_spilled_bytes_; }
  uint64_t SpilledTuples() const override { return op_spilled_tuples_; }

  // MemoryConsumer. During the drain the key set is load-bearing (it is
  // the dedup state being replayed) — reserve it, offer nothing.
  SpillableStats SpillStats() const override {
    SpillableStats s;
    s.spillable_bytes = draining_ ? 0 : bytes_held_;
    s.must_reserve_bytes = draining_ ? bytes_held_ : 0;
    s.respill_cost = 2.5;
    return s;
  }

  Result<uint64_t> SpillSome(uint64_t /*target_bytes*/) override {
    if (draining_ || seen_.size() == 0) return static_cast<uint64_t>(0);
    if (!spilled_) {
      // First spill: the in-memory keys have all been emitted to the
      // parent; persist them (encoded, one string each) so the drain can
      // still dedup against them.
      if (emitted_spill_ == nullptr) {
        emitted_spill_ = std::make_unique<SpillFile>(ec_->pool);
        candidate_spill_ = std::make_unique<SpillFile>(ec_->pool);
      }
      const uint64_t before = emitted_spill_->byte_count();
      std::vector<Value> tuple(1);
      std::string encoded;
      for (uint32_t e = 0; e < seen_.size(); ++e) {
        encoded.clear();
        AppendEncodedValues(seen_.key(e), seen_.arity(), &encoded);
        tuple[0].SetString(encoded);
        HDB_RETURN_IF_ERROR(emitted_spill_->Append(tuple));
      }
      const uint64_t delta = emitted_spill_->byte_count() - before;
      ec_->stats.spill_bytes_written += delta;
      op_spilled_bytes_ += delta;
      op_spilled_tuples_ += seen_.size();
      spilled_ = true;
    }
    // Later spills just drop the candidate dedup cache: duplicates in
    // the candidate file are legal (the drain dedups), so the cache is
    // pure memory.
    const uint64_t freed = bytes_held_;
    seen_.Clear();
    bytes_held_ = 0;
    return freed;
  }

 private:
  /// A row's values as KeyTable key slots.
  static auto Slots(const table::Row& row) {
    return [&row](size_t i) -> const Value& { return row[i]; };
  }
  static uint64_t RowHash(const table::Row& row) {
    return KeyHash(row.size(), Slots(row));
  }
  uint32_t Find(uint64_t h, const table::Row& row) const {
    return seen_.Find(h, Slots(row));
  }
  /// Copies `row` into seen_, uncharged (the first row sets the arity).
  void Remember(uint64_t h, const table::Row& row) {
    if (seen_.size() == 0) seen_.Reset(row.size());
    seen_.Insert(h, Slots(row));
  }

  /// Remembers `row` and charges its encoded size. The charge may run the
  /// spill scheduler against *this* operator (dump + clear); the caller
  /// handles the spilled_ transition.
  Status AdmitKey(uint64_t h, const table::Row& row) {
    Remember(h, row);
    const uint64_t bytes = EncodedValuesBytes(row.data(), row.size()) + 32;
    bytes_held_ += bytes;
    return ChargeQuota(ec_, bytes);
  }

  /// Deferred mode: dedup against the (droppable) cache, then append the
  /// row to the candidate stream instead of emitting.
  Status DeferRow(const table::Row& row) {
    const uint64_t h = RowHash(row);
    if (Find(h, row) != FlatHashTable::kAbsent) return Status::OK();
    HDB_RETURN_IF_ERROR(AdmitKey(h, row));
    if (Find(h, row) == FlatHashTable::kAbsent) {
      // The charge spilled us again and dropped the cache; re-seed it
      // (uncharged — the scheduler already took the account to zero).
      Remember(h, row);
    }
    const uint64_t before = candidate_spill_->byte_count();
    HDB_RETURN_IF_ERROR(candidate_spill_->Append(row));
    const uint64_t delta = candidate_spill_->byte_count() - before;
    ec_->stats.spill_bytes_written += delta;
    op_spilled_bytes_ += delta;
    op_spilled_tuples_++;
    return Status::OK();
  }

  /// End of input in deferred mode: reload the emitted-key set (charged
  /// — it fit in memory once) and replay candidates in arrival order.
  Status PrepareDrain() {
    draining_ = true;  // before any charge: we are no longer a victim
    seen_.Clear();
    ReleaseQuota(ec_, bytes_held_);
    bytes_held_ = 0;
    auto reader = emitted_spill_->Read();
    std::vector<Value> tuple;
    std::vector<Value> key;
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, reader.Next(&tuple));
      if (!more) break;
      const std::string& encoded = tuple[0].AsString();
      size_t consumed = 0;
      HDB_RETURN_IF_ERROR(
          DecodeValuesInto(encoded.data(), encoded.size(), &consumed, &key));
      HDB_RETURN_IF_ERROR(AdmitKey(RowHash(key), key));
    }
    ec_->stats.spill_bytes_read += emitted_spill_->byte_count();
    drain_reader_.emplace(candidate_spill_->Read());
    return Status::OK();
  }

  /// Replays deferred candidates in arrival order into the batch's output
  /// column, skipping keys already emitted. The reader is dropped once
  /// exhausted, so the candidate file's bytes are counted once.
  Result<bool> DrainBatch(RowBatch* b) {
    b->Reset();
    if (!drain_reader_.has_value()) return false;
    table::Row* out = b->OutputColumn();
    size_t n = 0;
    while (n < b->capacity()) {
      HDB_ASSIGN_OR_RETURN(const bool more, drain_reader_->Next(&out[n]));
      if (!more) {
        ec_->stats.spill_bytes_read += candidate_spill_->byte_count();
        drain_reader_.reset();
        break;
      }
      const uint64_t h = RowHash(out[n]);
      if (Find(h, out[n]) != FlatHashTable::kAbsent) continue;
      HDB_RETURN_IF_ERROR(AdmitKey(h, out[n]));
      ++n;
    }
    b->SetSize(n);
    return n > 0;
  }

  const PlanNode* plan_;
  std::unique_ptr<Operator> child_;
  ExecContext* ec_;
  KeyTable seen_;  // output rows, under the group/DISTINCT key identity
  uint64_t bytes_held_ = 0;
  bool spilled_ = false;
  bool draining_ = false;
  std::unique_ptr<SpillFile> emitted_spill_;    // keys emitted pre-spill
  std::unique_ptr<SpillFile> candidate_spill_;  // deferred output rows
  std::optional<SpillFile::Reader> drain_reader_;
  uint64_t op_spilled_bytes_ = 0;
  uint64_t op_spilled_tuples_ = 0;
};

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// Nested-loop join. The inner side fills the caller's batch directly; the
/// current outer row's slot pointers are stamped beside every inner row
/// and the extra condition runs over the batch. The inner is re-opened
/// once per outer row, so output stays outer-major in inner order.
class NLJoinOp : public Operator {
 public:
  NLJoinOp(const PlanNode* plan, std::unique_ptr<Operator> outer,
           std::unique_ptr<Operator> inner, ExecContext* ec)
      : outer_(std::move(outer)), inner_(std::move(inner)), ec_(ec),
        extra_preds_(PrepareUnobserved(plan->extra_condition)) {}

  Status Open() override {
    InitScratchCtx(ec_, &scratch_);
    outer_batch_ = std::make_unique<RowBatch>(
        ec_->num_quantifiers + 1, EffectiveBatchCap(ec_, 0), ec_->params);
    outer_i_ = 0;
    inner_open_ = false;
    return outer_->Open();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    for (;;) {
      if (inner_open_) {
        HDB_ASSIGN_OR_RETURN(const bool more, inner_->NextBatch(b));
        if (more) {
          const size_t opos = outer_batch_->Active(outer_i_);
          for (size_t pos = 0; pos < b->size(); ++pos) {
            outer_batch_->CopySlots(opos, b, pos);
          }
          HDB_RETURN_IF_ERROR(ApplyPredsToBatch(
              /*ec=*/nullptr, /*table_oid=*/0, extra_preds_, b, &scratch_));
          return true;
        }
        inner_open_ = false;
        ++outer_i_;
      }
      if (outer_i_ >= outer_batch_->ActiveCount()) {
        HDB_ASSIGN_OR_RETURN(const bool more,
                             outer_->NextBatch(outer_batch_.get()));
        if (!more) return false;
        outer_i_ = 0;
        continue;
      }
      inner_->Close();
      HDB_RETURN_IF_ERROR(inner_->Open());
      inner_open_ = true;
    }
  }

  void Close() override {
    outer_->Close();
    inner_->Close();
  }

 private:
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  ExecContext* ec_;
  std::vector<CheckedPred> extra_preds_;
  std::unique_ptr<RowBatch> outer_batch_;
  size_t outer_i_ = 0;  // active index of the current outer row
  bool inner_open_ = false;
  RowContext scratch_;
};

/// Batched index nested-loops matching, shared by IndexNLJoinOp and the
/// hash join's alternate strategy (paper §4.3). Probe() evaluates the join
/// key of every active row of an outer batch and looks all of them up in
/// the B-tree under one index latch; Emit() hands the queued (outer
/// row, rid) matches out a chunk at a time, fetching each chunk's inner
/// rows under one heap latch and stamping the outer row's slots beside
/// them. Inner rows are re-checked with `preds` (observed for feedback,
/// paper §3.2), then with `extra`. The outer batch must stay untouched
/// until every match it queued has been emitted.
class IndexNLProbe {
 public:
  IndexNLProbe(ExecContext* ec, const catalog::TableDef* table,
               const catalog::IndexDef* index, int quantifier,
               std::vector<CheckedPred> preds, std::vector<CheckedPred> extra)
      : ec_(ec), table_(table), index_(index), quantifier_(quantifier),
        preds_(std::move(preds)), extra_(std::move(extra)) {}

  /// Resolves the heap and index and charges the inner-row pool.
  Status Open() {
    heap_ = ec_->table_heap(table_->oid);
    tree_ = ec_->index(index_->oid);
    if (heap_ == nullptr || tree_ == nullptr) {
      return Status::Internal("index nested-loops: missing heap or index");
    }
    pending_.clear();
    pending_pos_ = 0;
    InitScratchCtx(ec_, &scratch_);
    const size_t hint = ApproxRowBytes(*table_);
    cap_ = EffectiveBatchCap(ec_, hint);
    return ChargeArena(ec_, cap_ * hint, &arena_charged_);
  }

  void Close() { ReleaseArena(ec_, &arena_charged_); }

  /// Rows per emitted chunk (the governor-shrunk cap of the inner pool).
  size_t cap() const { return cap_; }
  bool HasPending() const { return pending_pos_ < pending_.size(); }

  /// Queues the index matches of every active row of `outer`; a NULL key
  /// never equi-joins.
  Status Probe(const RowBatch* outer, const Expr& key) {
    outer_ = outer;
    pending_.clear();
    pending_pos_ = 0;
    probe_keys_.clear();
    probe_pos_.clear();
    for (size_t i = 0; i < outer->ActiveCount(); ++i) {
      const size_t pos = outer->Active(i);
      outer->BindRow(pos, &scratch_);
      HDB_RETURN_IF_ERROR(EvalExprInto(&key, scratch_, &key_scratch_));
      if (key_scratch_.is_null()) continue;
      probe_keys_.push_back(OrderPreservingHash(key_scratch_));
      probe_pos_.push_back(static_cast<uint16_t>(pos));
    }
    if (probe_keys_.empty()) return Status::OK();
    return tree_->ScanEqualBatch(probe_keys_.data(), probe_keys_.size(),
                                 [this](size_t i, Rid rid) {
                                   pending_.emplace_back(probe_pos_[i], rid);
                                   return true;
                                 });
  }

  /// Fills `b` with the next chunk of queued matches.
  Status Emit(RowBatch* b) {
    b->Reset();
    const size_t n =
        std::min(std::min(cap_, b->capacity()), pending_.size() - pending_pos_);
    fetch_rids_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      fetch_rids_[i] = pending_[pending_pos_ + i].second;
    }
    HDB_RETURN_IF_ERROR(heap_->GetMany(fetch_rids_.data(), n, &fetch_pool_));
    const table::Row** col = b->BindSlot(quantifier_);
    for (size_t i = 0; i < n; ++i) {
      outer_->CopySlots(pending_[pending_pos_ + i].first, b, i);
      col[i] = &fetch_pool_[i];
    }
    pending_pos_ += n;
    b->SetSize(n);
    BumpBatchStats(ec_, n);
    HDB_RETURN_IF_ERROR(
        ApplyPredsToBatch(ec_, table_->oid, preds_, b, &scratch_));
    return ApplyPredsToBatch(/*ec=*/nullptr, /*table_oid=*/0, extra_, b,
                             &scratch_);
  }

 private:
  ExecContext* ec_;
  const catalog::TableDef* table_;
  const catalog::IndexDef* index_;
  int quantifier_;
  std::vector<CheckedPred> preds_;
  std::vector<CheckedPred> extra_;
  table::TableHeap* heap_ = nullptr;
  index::BTree* tree_ = nullptr;
  const RowBatch* outer_ = nullptr;
  std::vector<std::pair<uint16_t, Rid>> pending_;  // (outer pos, rid)
  size_t pending_pos_ = 0;
  std::vector<double> probe_keys_;
  std::vector<uint16_t> probe_pos_;
  std::vector<Rid> fetch_rids_;
  std::vector<table::Row> fetch_pool_;
  size_t cap_ = kDefaultBatchCap;
  uint64_t arena_charged_ = 0;
  Value key_scratch_;  // reused join-key value (keeps string capacity)
  RowContext scratch_;
};

class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(const PlanNode* plan, std::unique_ptr<Operator> outer,
                ExecContext* ec)
      : plan_(plan), outer_(std::move(outer)), ec_(ec),
        probe_(ec, plan->table, plan->index, plan->quantifier,
               PrepareResidual(plan->residual, plan->quantifier),
               PrepareUnobserved(plan->extra_condition)) {}

  Status Open() override {
    HDB_RETURN_IF_ERROR(probe_.Open());
    outer_batch_ = std::make_unique<RowBatch>(ec_->num_quantifiers + 1,
                                              probe_.cap(), ec_->params);
    outer_done_ = false;
    return outer_->Open();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    for (;;) {
      if (probe_.HasPending()) {
        HDB_RETURN_IF_ERROR(probe_.Emit(b));
        return true;
      }
      if (outer_done_) return false;
      HDB_ASSIGN_OR_RETURN(const bool more,
                           outer_->NextBatch(outer_batch_.get()));
      if (!more) {
        outer_done_ = true;
        continue;
      }
      HDB_RETURN_IF_ERROR(probe_.Probe(outer_batch_.get(), *plan_->outer_key));
    }
  }

  void Close() override {
    outer_->Close();
    probe_.Close();
  }

 private:
  const PlanNode* plan_;
  std::unique_ptr<Operator> outer_;
  ExecContext* ec_;
  IndexNLProbe probe_;
  std::unique_ptr<RowBatch> outer_batch_;
  bool outer_done_ = false;
};

// ---------------------------------------------------------------------------
// Hash join with partition eviction and the alternate index-NL strategy
// (paper §4.3)
// ---------------------------------------------------------------------------

class HashJoinOp : public Operator, public MemoryConsumer {
 public:
  static constexpr int kPartitions = 8;

  /// Levels of recursive re-partitioning for spilled partitions whose
  /// build side exceeds the budget. Level 0 is the initial h % 8 split;
  /// each further level consumes the next 3 hash bits.
  static constexpr int kMaxSpillLevels = 5;

  HashJoinOp(const PlanNode* plan, std::unique_ptr<Operator> outer,
             std::unique_ptr<Operator> inner, ExecContext* ec)
      : plan_(plan), outer_(std::move(outer)), inner_(std::move(inner)),
        ec_(ec), extra_preds_(PrepareUnobserved(plan->extra_condition)),
        build_key_({plan->inner_key.get()}),
        probe_key_({plan->outer_key.get()}) {
    CollectBoundQuantifiers(plan_->children[0].get(), &outer_quants_);
    name = "hash_join";
  }

  uint64_t MemoryBytes() const override {
    return build_bytes_ + spill_loaded_bytes_;
  }
  uint64_t SpilledBytes() const override { return op_spilled_bytes_; }
  uint64_t SpilledTuples() const override { return op_spilled_tuples_; }

  Status Open() override {
    build_quantifier_ = plan_->children[1]->quantifier;
    InitScratchCtx(ec_, &probe_ctx_);
    cap_ = EffectiveBatchCap(ec_, 0);
    outer_batch_ = std::make_unique<RowBatch>(ec_->num_quantifiers + 1, cap_,
                                              ec_->params);
    emit_.clear();
    emit_pos_ = 0;
    ResetBuildState();
    if (ec_->memory != nullptr) {
      plan_level = 1;
      predicted_pages = plan_->memory_quota_pages;
      ec_->memory->RegisterConsumer(this);
    }
    HDB_RETURN_IF_ERROR(PublishKeyFilter());
    HDB_RETURN_IF_ERROR(BuildPhase());
    if (plan_->alt_index_nl && !AnyPartitionSpilled() &&
        TotalBuildRows() <= plan_->alt_switch_threshold_rows &&
        (plan_->children[0]->kind == PlanKind::kSeqScan ||
         plan_->children[0]->kind == PlanKind::kIndexScan)) {
      // The optimizer's estimate was wrong and the build input is tiny:
      // switch to the annotated index nested-loops strategy instead of
      // scanning the whole probe side (paper §4.3).
      alternate_ = true;
      ec_->stats.hash_join_used_alternate = true;
      return OpenAlternate();
    }
    HDB_RETURN_IF_ERROR(outer_->Open());
    return Status::OK();
  }

  /// One loop serves the in-memory probe and spilled-partition replay:
  /// refill outer_batch_ (from the probe child, or from the loaded
  /// spilled pair's probe stream once the child is exhausted), collect
  /// its matches, emit them a chunk at a time.
  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    if (alternate_) return AlternateBatch(b);
    for (;;) {
      if (emit_pos_ < emit_.size()) {
        const size_t n = std::min(std::min(cap_, b->capacity()),
                                  emit_.size() - emit_pos_);
        const table::Row** col = b->BindSlot(build_quantifier_);
        for (size_t i = 0; i < n; ++i) {
          const auto& [opos, idx] = emit_[emit_pos_ + i];
          outer_batch_->CopySlots(opos, b, i);
          col[i] = &build_rows_[idx];
        }
        emit_pos_ += n;
        b->SetSize(n);
        HDB_RETURN_IF_ERROR(ApplyPredsToBatch(/*ec=*/nullptr, /*table_oid=*/0,
                                              extra_preds_, b, &probe_ctx_));
        return true;
      }
      if (!outer_done_) {
        HDB_ASSIGN_OR_RETURN(const bool more,
                             outer_->NextBatch(outer_batch_.get()));
        if (!more) {
          outer_done_ = true;
          HDB_RETURN_IF_ERROR(PrepareSpilledProcessing());
          continue;
        }
      } else {
        HDB_ASSIGN_OR_RETURN(const bool more, NextReplayBatch());
        if (!more) return false;
      }
      HDB_RETURN_IF_ERROR(CollectMatches());
    }
  }

  void Close() override {
    outer_->Close();
    inner_->Close();
    WithdrawOwnFilter();
    if (alt_probe_ != nullptr) alt_probe_->Close();
    if (ec_->memory != nullptr) ec_->memory->UnregisterConsumer(this);
    ReleaseQuota(ec_, build_bytes_ + spill_loaded_bytes_);
    build_bytes_ = 0;
    spill_loaded_bytes_ = 0;
    spill_queue_.clear();
    current_pair_.build.reset();
    current_pair_.probe.reset();
    probe_reader_.reset();
  }

  // MemoryConsumer. The build side is the expensive thing to restart
  // (write + read back + rehash), so the join reports the highest respill
  // cost of the four blocking operators. Once the alternate index-NL
  // strategy scans build_rows_ by position, or spilled-partition replay
  // holds a loaded partition, nothing here is safely evictable — that
  // state is the reserve floor.
  SpillableStats SpillStats() const override {
    SpillableStats s;
    s.respill_cost = 3.0;
    if (alternate_ || outer_done_) {
      s.must_reserve_bytes = build_bytes_ + spill_loaded_bytes_;
      return s;
    }
    s.spillable_bytes = build_bytes_;
    return s;
  }

  Result<uint64_t> SpillSome(uint64_t target_bytes) override {
    if (alternate_ || outer_done_) return uint64_t{0};
    uint64_t freed = 0;
    // Evict whole partitions, largest first (paper §4.3: "selecting the
    // partition with the most rows frees up the most memory").
    while (freed < target_bytes) {
      int victim = -1;
      uint64_t victim_bytes = 0;
      for (int p = 0; p < kPartitions; ++p) {
        if (partition_spilled_[p]) continue;
        if (partition_bytes_[p] > victim_bytes) {
          victim_bytes = partition_bytes_[p];
          victim = p;
        }
      }
      if (victim < 0 || victim_bytes == 0) break;
      HDB_ASSIGN_OR_RETURN(const uint64_t bytes, EvictPartition(victim));
      if (bytes == 0) break;
      freed += bytes;
    }
    build_bytes_ -= std::min<uint64_t>(build_bytes_, freed);
    return freed;
  }

 private:
  size_t TotalBuildRows() const {
    size_t n = 0;
    for (int p = 0; p < kPartitions; ++p) n += partition_rows_[p];
    for (int p = 0; p < kPartitions; ++p) {
      if (build_spill_[p] != nullptr) n += build_spill_[p]->tuple_count();
    }
    return n;
  }

  bool AnyPartitionSpilled() const {
    for (int p = 0; p < kPartitions; ++p) {
      if (partition_spilled_[p]) return true;
    }
    return false;
  }

  /// Sizes this join's key filter and offers it to the probe child
  /// (DESIGN.md §9) before either input opens; BuildPhase sets its bits,
  /// so the scan only reads it once they are all set. Only a heap scan
  /// directly below the join takes it: below another join or a LIMIT it
  /// would change that operator's actual rows. The filter is sized once
  /// from the build estimate, capped at 1/16 of the join's grant and
  /// charged to the statement. Only a plain-column probe key qualifies.
  Status PublishKeyFilter() {
    WithdrawOwnFilter();
    const Expr* key = plan_->outer_key.get();
    if (key == nullptr || key->kind() != ExprKind::kColumnRef ||
        !outer_->AcceptKeyFilter(key->quantifier(), key->column(), &filter_)) {
      return Status::OK();
    }
    filter_published_ = true;
    const uint64_t page_bytes = ec_->pool != nullptr
                                    ? ec_->pool->page_bytes()
                                    : storage::kDefaultPageBytes;
    uint64_t grant_pages = plan_->memory_quota_pages;
    if (ec_->memory != nullptr) {
      const uint64_t soft = ec_->memory->soft_limit_pages();
      grant_pages = grant_pages == 0 ? soft : std::min(grant_pages, soft);
    }
    if (grant_pages == 0) grant_pages = kDefaultFilterGrantPages;
    filter_.Reset(plan_->children[1]->est_rows, grant_pages * page_bytes / 16);
    HDB_RETURN_IF_ERROR(ChargeQuota(ec_, filter_.bytes()));
    filter_charged_ = filter_.bytes();
    return Status::OK();
  }

  /// Drops whatever a previous Open left behind (an NL join re-opens its
  /// inner side once per outer row).
  void ResetBuildState() {
    ClearTable();
    for (int p = 0; p < kPartitions; ++p) {
      partition_rows_[p] = 0;
      partition_bytes_[p] = 0;
      partition_spilled_[p] = false;
      build_spill_[p].reset();
      probe_spill_[p].reset();
    }
    outer_done_ = false;
    spill_queue_.clear();
    current_pair_ = SpillPair{};
    probe_reader_.reset();
    spill_loaded_ = false;
    alternate_ = false;
    alt_probe_.reset();
    alt_build_pos_ = 0;
  }

  void WithdrawOwnFilter() {
    if (filter_published_) outer_->WithdrawKeyFilter(&filter_);
    filter_published_ = false;
    ReleaseQuota(ec_, filter_charged_);
    filter_charged_ = 0;
  }

  Status BuildPhase() {
    HDB_RETURN_IF_ERROR(inner_->Open());
    RowContext build_ctx;
    InitScratchCtx(ec_, &build_ctx);
    if (build_batch_ == nullptr) {
      build_batch_ = std::make_unique<RowBatch>(ec_->num_quantifiers + 1,
                                                cap_, ec_->params);
    }
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more,
                           inner_->NextBatch(build_batch_.get()));
      if (!more) break;
      const size_t bn = build_batch_->ActiveCount();
      build_key_.Bind(*build_batch_);
      const table::Row* const* rows = build_batch_->Column(build_quantifier_);
      const bool bind = build_key_.needs_row() || rows == nullptr;
      for (size_t r = 0; r < bn; ++r) {
        const size_t pos = build_batch_->Active(r);
        if (bind) {
          build_ctx.rows[build_quantifier_] = nullptr;
          build_batch_->BindRow(pos, &build_ctx);
          HDB_RETURN_IF_ERROR(build_key_.Eval(build_ctx));
        }
        // In place: the build input is a scan of the build quantifier,
        // whose rows no memory charge can take away.
        const Value& key = build_key_.Get(0, pos);
        if (key.is_null()) continue;
        const uint64_t h = key.Hash();
        if (filter_published_) filter_.Add(h);
        const int p = static_cast<int>(h % kPartitions);
        const std::vector<Value>& row =
            rows != nullptr ? *rows[pos] : *build_ctx.rows[build_quantifier_];
        if (partition_spilled_[p]) {
          HDB_RETURN_IF_ERROR(AppendSpill(build_spill_[p].get(), row));
          continue;
        }
        const uint64_t row_bytes = 48 * row.size() + 64;
        // Charging may run the spill scheduler, which may evict
        // partitions — including p — via SpillSome re-entering this
        // operator.
        HDB_RETURN_IF_ERROR(ChargeQuota(ec_, row_bytes));
        build_bytes_ += row_bytes;
        if (partition_spilled_[p]) {
          HDB_RETURN_IF_ERROR(AppendSpill(build_spill_[p].get(), row));
          build_bytes_ -= std::min(build_bytes_, row_bytes);
          ReleaseQuota(ec_, row_bytes);
          continue;
        }
        build_rows_.push_back(row);
        build_keys_.push_back(key);
        build_partition_.push_back(p);
        partition_rows_[p]++;
        partition_bytes_[p] += row_bytes;
        table_.Add(h);
      }
    }
    inner_->Close();
    return Status::OK();
  }

  /// Appends one tuple to a spill file, propagating the write status and
  /// keeping the spill-volume counters honest.
  Status AppendSpill(SpillFile* f, const std::vector<Value>& row) {
    const uint64_t before = f->byte_count();
    HDB_RETURN_IF_ERROR(f->Append(row));
    const uint64_t delta = f->byte_count() - before;
    op_spilled_bytes_ += delta;
    ec_->stats.spill_bytes_written += delta;
    ++op_spilled_tuples_;
    ec_->stats.hash_spilled_tuples++;
    return Status::OK();
  }

  /// Moves every in-memory row of partition `p` to its spill file.
  /// Returns bytes freed; a failed spill write propagates to the
  /// scheduler and aborts the charging statement.
  Result<uint64_t> EvictPartition(int p) {
    if (partition_spilled_[p]) return uint64_t{0};
    partition_spilled_[p] = true;
    if (build_spill_[p] == nullptr) {
      build_spill_[p] = std::make_unique<SpillFile>(ec_->pool);
      probe_spill_[p] = std::make_unique<SpillFile>(ec_->pool);
    }
    uint64_t freed = 0;
    for (size_t i = 0; i < build_rows_.size(); ++i) {
      if (build_partition_[i] != p || build_rows_[i].empty()) continue;
      HDB_RETURN_IF_ERROR(AppendSpill(build_spill_[p].get(), build_rows_[i]));
      freed += 48 * build_rows_[i].size() + 64;
      build_rows_[i].clear();
      build_keys_[i] = Value::Null();
      build_partition_[i] = -1;
    }
    ec_->stats.hash_partitions_evicted++;
    partition_rows_[p] = 0;
    partition_bytes_[p] = 0;
    return freed;
  }

  /// Probes the hash table with every active row of outer_batch_ and
  /// queues the (outer pos, build idx) matches in emit_. In the in-memory
  /// phase a row whose partition was evicted goes to that partition's
  /// probe spill file instead; during replay the table holds exactly the
  /// loaded pair's build side.
  Status CollectMatches() {
    emit_.clear();
    emit_pos_ = 0;
    const size_t on = outer_batch_->ActiveCount();
    probe_key_.Bind(*outer_batch_);
    for (size_t i = 0; i < on; ++i) {
      const size_t opos = outer_batch_->Active(i);
      HDB_RETURN_IF_ERROR(probe_key_.Prepare(*outer_batch_, opos, &probe_ctx_));
      const Value& key = probe_key_.Get(0, opos);
      if (key.is_null()) continue;
      const uint64_t h = key.Hash();
      const int p = static_cast<int>(h % kPartitions);
      if (!outer_done_ && partition_spilled_[p]) {
        outer_batch_->BindRow(opos, &probe_ctx_);
        flat_scratch_.clear();
        FlattenOuter(probe_ctx_, &flat_scratch_);
        HDB_RETURN_IF_ERROR(AppendSpill(probe_spill_[p].get(), flat_scratch_));
        continue;
      }
      // Matches come out in build order; rows of an evicted partition
      // stay chained but carry partition -1.
      for (uint32_t idx = table_.First(h); idx != JoinIndex::kEnd;
           idx = table_.Next(idx)) {
        if (build_partition_[idx] == p &&
            build_keys_[idx].Compare(key) == 0) {
          emit_.emplace_back(static_cast<uint16_t>(opos), idx);
        }
      }
    }
    return Status::OK();
  }

  void FlattenOuter(const RowContext& ctx, std::vector<Value>* flat) const {
    for (const int q : outer_quants_) {
      const std::vector<Value>& row = *ctx.rows[q];
      for (const Value& v : row) flat->push_back(v);
    }
  }

  /// Splits a flattened probe tuple back into one row per outer_quants_
  /// entry.
  void UnflattenOuter(const std::vector<Value>& flat,
                      std::vector<table::Row>* rows) const {
    rows->resize(outer_quants_.size());
    size_t pos = 0;
    for (size_t k = 0; k < outer_quants_.size(); ++k) {
      const size_t arity = outer_arity_.at(outer_quants_[k]);
      (*rows)[k].assign(flat.begin() + pos, flat.begin() + pos + arity);
      pos += arity;
    }
  }

  /// One unit of grace-hash work: a spilled (build, probe) pair at some
  /// re-partitioning depth. Level 0 pairs are the original h % 8
  /// partitions; a level-L child was split on bits (h >> 3(L)) % 8.
  struct SpillPair {
    std::unique_ptr<SpillFile> build;
    std::unique_ptr<SpillFile> probe;
    int level = 0;
  };

  Status PrepareSpilledProcessing() {
    // Record outer arities for reload (from the plan's table defs).
    outer_arity_.clear();
    RecordArities(plan_->children[0].get());
    // The in-memory probe phase is over: drop the memory-resident build
    // side and its charge so spilled-partition replay starts from a clean
    // account, then queue every spilled pair as grace-hash work.
    ClearTable();
    ReleaseQuota(ec_, build_bytes_);
    build_bytes_ = 0;
    for (int p = 0; p < kPartitions; ++p) {
      partition_rows_[p] = 0;
      partition_bytes_[p] = 0;
      if (!partition_spilled_[p] || build_spill_[p] == nullptr) continue;
      // An inner join needs both sides; a pair missing either is dead.
      if (build_spill_[p]->tuple_count() == 0 ||
          probe_spill_[p]->tuple_count() == 0) {
        build_spill_[p].reset();
        probe_spill_[p].reset();
        continue;
      }
      spill_queue_.push_back(SpillPair{std::move(build_spill_[p]),
                                       std::move(probe_spill_[p]),
                                       /*level=*/0});
    }
    spill_loaded_ = false;
    return Status::OK();
  }

  void ClearTable() {
    table_.Clear();
    build_rows_.clear();
    build_keys_.clear();
    build_partition_.clear();
  }

  /// Bytes of loaded build side the replay phase allows itself before
  /// re-partitioning instead: half the statement's soft limit, but at
  /// least one page (so tiny limits still terminate the recursion).
  uint64_t SpillLoadBudgetBytes() const {
    const uint64_t page_bytes = ec_->pool->page_bytes();
    if (ec_->memory == nullptr) return std::numeric_limits<uint64_t>::max();
    return std::max<uint64_t>(page_bytes,
                              ec_->memory->soft_limit_pages() * page_bytes / 2);
  }

  /// Splits an oversized spilled pair into up to kPartitions children on
  /// the next 3 hash bits and queues the live ones (grace hash join
  /// recursion). Skew-proof enough for the corpus: a pair whose build
  /// side is a single tuple, or that is already at the deepest level, is
  /// loaded as-is instead.
  Status Repartition(SpillPair pair) {
    const int level = pair.level + 1;
    const int shift = 3 * level;
    std::vector<SpillPair> kids(kPartitions);
    for (auto& k : kids) {
      k.build = std::make_unique<SpillFile>(ec_->pool);
      k.probe = std::make_unique<SpillFile>(ec_->pool);
      k.level = level;
    }
    RowContext key_ctx;
    InitScratchCtx(ec_, &key_ctx);
    std::vector<Value> row;
    auto breader = pair.build->Read();
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, breader.Next(&row));
      if (!more) break;
      key_ctx.rows[build_quantifier_] = &row;
      HDB_ASSIGN_OR_RETURN(const Value key, plan_->inner_key->Evaluate(key_ctx));
      const int c = static_cast<int>((key.Hash() >> shift) % kPartitions);
      HDB_RETURN_IF_ERROR(kids[c].build->Append(row));
    }
    ec_->stats.spill_bytes_read += pair.build->byte_count();
    std::vector<Value> flat;
    std::vector<table::Row> restored;
    auto preader = pair.probe->Read();
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, preader.Next(&flat));
      if (!more) break;
      UnflattenOuter(flat, &restored);
      for (size_t k = 0; k < outer_quants_.size(); ++k) {
        key_ctx.rows[outer_quants_[k]] = &restored[k];
      }
      HDB_ASSIGN_OR_RETURN(const Value key,
                           plan_->outer_key->Evaluate(key_ctx));
      if (key.is_null()) continue;
      const int c = static_cast<int>((key.Hash() >> shift) % kPartitions);
      HDB_RETURN_IF_ERROR(kids[c].probe->Append(flat));
    }
    ec_->stats.spill_bytes_read += pair.probe->byte_count();
    ec_->stats.spill_repartitions++;
    for (auto& k : kids) {
      if (k.build->tuple_count() == 0 || k.probe->tuple_count() == 0) continue;
      // Re-partition passes move bytes, not new tuples: count the write
      // volume but leave the tuple counters to the original eviction.
      ec_->stats.spill_bytes_written +=
          k.build->byte_count() + k.probe->byte_count();
      spill_queue_.push_back(std::move(k));
    }
    return Status::OK();
  }

  /// Loads a pair's build side into the (cleared) hash table, charging
  /// every row to the task quota so a spilled partition cannot silently
  /// blow the limit it was evicted to respect.
  Status LoadPair(SpillPair pair) {
    RowContext key_ctx;
    InitScratchCtx(ec_, &key_ctx);
    auto reader = pair.build->Read();
    std::vector<Value> row;
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, reader.Next(&row));
      if (!more) break;
      const uint64_t row_bytes = 48 * row.size() + 64;
      HDB_RETURN_IF_ERROR(ChargeQuota(ec_, row_bytes));
      spill_loaded_bytes_ += row_bytes;
      key_ctx.rows[build_quantifier_] = &row;
      HDB_ASSIGN_OR_RETURN(Value key, plan_->inner_key->Evaluate(key_ctx));
      const uint64_t h = key.Hash();
      table_.Add(h);
      build_partition_.push_back(static_cast<int>(h % kPartitions));
      build_keys_.push_back(std::move(key));
      build_rows_.push_back(std::move(row));
    }
    ec_->stats.spill_bytes_read += pair.build->byte_count();
    current_pair_ = std::move(pair);
    probe_reader_.emplace(current_pair_.probe->Read());
    spill_loaded_ = true;
    return Status::OK();
  }

  void FinishCurrentPair() {
    ec_->stats.spill_bytes_read += current_pair_.probe->byte_count();
    ReleaseQuota(ec_, spill_loaded_bytes_);
    spill_loaded_bytes_ = 0;
    ClearTable();
    probe_reader_.reset();
    current_pair_.build.reset();
    current_pair_.probe.reset();
    spill_loaded_ = false;
  }

  void RecordArities(const PlanNode* n) {
    if (n->table != nullptr && n->quantifier >= 0) {
      outer_arity_[n->quantifier] = n->table->columns.size();
    }
    for (const auto& c : n->children) RecordArities(c.get());
  }

  /// Refills outer_batch_ from spilled-partition replay: the next batch of
  /// the loaded pair's probe stream, loading (or first re-partitioning)
  /// the next queued pair whenever a stream ends. A build side too big
  /// for the load budget is split on the next 3 hash bits instead of being
  /// loaded whole — the recursion that makes ≥10x-over-limit inputs finish
  /// inside the limit. False when no grace-hash work is left.
  Result<bool> NextReplayBatch() {
    for (;;) {
      if (spill_loaded_) {
        HDB_ASSIGN_OR_RETURN(const bool more, ReadReplayBatch());
        if (more) return true;
        FinishCurrentPair();
      }
      if (spill_queue_.empty()) return false;
      SpillPair pair = std::move(spill_queue_.front());
      spill_queue_.pop_front();
      if (pair.build->byte_count() > SpillLoadBudgetBytes() &&
          pair.level + 1 < kMaxSpillLevels && pair.build->tuple_count() > 1) {
        HDB_RETURN_IF_ERROR(Repartition(std::move(pair)));
        continue;
      }
      HDB_RETURN_IF_ERROR(LoadPair(std::move(pair)));
    }
  }

  /// Reads up to one batch of probe tuples from the loaded pair into
  /// replay_rows_ and binds them as outer_batch_'s outer slots.
  Result<bool> ReadReplayBatch() {
    outer_batch_->Reset();
    const size_t cap = outer_batch_->capacity();
    if (replay_rows_.size() < cap) replay_rows_.resize(cap);
    size_t n = 0;
    while (n < cap) {
      HDB_ASSIGN_OR_RETURN(const bool more,
                           probe_reader_->Next(&flat_scratch_));
      if (!more) break;
      UnflattenOuter(flat_scratch_, &replay_rows_[n++]);
    }
    for (size_t k = 0; k < outer_quants_.size(); ++k) {
      const table::Row** col = outer_batch_->BindSlot(outer_quants_[k]);
      for (size_t i = 0; i < n; ++i) col[i] = &replay_rows_[i][k];
    }
    outer_batch_->SetSize(n);
    return n > 0;
  }

  // --- Alternate index-NL strategy ---

  /// The build rows become the outer side of an index nested-loops probe
  /// into the probe side's table. The probe matches on order-preserving
  /// hash codes, so the equi condition is re-verified on values ahead of
  /// the extra condition.
  Status OpenAlternate() {
    const PlanNode* outer_scan = plan_->children[0].get();
    std::vector<CheckedPred> extra = PrepareUnobserved(
        Expr::Compare(CompareOp::kEq, plan_->outer_key, plan_->inner_key));
    extra.insert(extra.end(), extra_preds_.begin(), extra_preds_.end());
    alt_probe_ = std::make_unique<IndexNLProbe>(
        ec_, outer_scan->table, plan_->alt_index, outer_scan->quantifier,
        PrepareResidual(outer_scan->residual, outer_scan->quantifier),
        std::move(extra));
    alt_outer_ = std::make_unique<RowBatch>(ec_->num_quantifiers + 1, cap_,
                                            ec_->params);
    alt_build_pos_ = 0;
    return alt_probe_->Open();
  }

  Result<bool> AlternateBatch(RowBatch* b) {
    for (;;) {
      if (alt_probe_->HasPending()) {
        HDB_RETURN_IF_ERROR(alt_probe_->Emit(b));
        return true;
      }
      // Bind the next batch of build rows as the outer side.
      alt_outer_->Reset();
      const table::Row** col = alt_outer_->BindSlot(build_quantifier_);
      size_t n = 0;
      while (n < alt_outer_->capacity() &&
             alt_build_pos_ < build_rows_.size()) {
        col[n++] = &build_rows_[alt_build_pos_++];
      }
      if (n == 0) return false;
      alt_outer_->SetSize(n);
      HDB_RETURN_IF_ERROR(
          alt_probe_->Probe(alt_outer_.get(), *plan_->inner_key));
    }
  }

  /// Grant assumed for sizing the key filter when neither the plan nor a
  /// memory context gives one.
  static constexpr uint64_t kDefaultFilterGrantPages = 64;

  const PlanNode* plan_;
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  ExecContext* ec_;

  // Key filter over the build keys, published to the probe-side scan.
  KeyFilter filter_;
  bool filter_published_ = false;
  uint64_t filter_charged_ = 0;

  int build_quantifier_ = -1;
  std::vector<int> outer_quants_;

  // Hash table: the in-memory build side, or during replay the loaded
  // spilled pair's build side. Row r of table_ is build_rows_[r].
  JoinIndex table_;
  std::vector<std::vector<Value>> build_rows_;
  std::vector<Value> build_keys_;
  std::vector<int> build_partition_;
  size_t partition_rows_[kPartitions] = {};
  uint64_t partition_bytes_[kPartitions] = {};
  bool partition_spilled_[kPartitions] = {};
  std::unique_ptr<SpillFile> build_spill_[kPartitions];
  std::unique_ptr<SpillFile> probe_spill_[kPartitions];
  uint64_t build_bytes_ = 0;

  // Probe state: the outer batch, its (outer pos, build idx) matches for
  // chunked emission, and scratch.
  bool outer_done_ = false;
  std::unique_ptr<RowBatch> outer_batch_;
  std::unique_ptr<RowBatch> build_batch_;
  std::vector<std::pair<uint16_t, uint32_t>> emit_;
  size_t emit_pos_ = 0;
  std::vector<CheckedPred> extra_preds_;
  std::vector<Value> flat_scratch_;
  size_t cap_ = kDefaultBatchCap;
  BatchExprs build_key_;  // inner_key over build batches
  BatchExprs probe_key_;  // outer_key over probe batches
  RowContext probe_ctx_;

  // Spilled-partition (grace hash) replay state: the work queue of
  // spilled pairs, the pair currently loaded, the quota charged for its
  // build side (released when the pair is drained), and the restored
  // probe rows outer_batch_ points into.
  std::deque<SpillPair> spill_queue_;
  SpillPair current_pair_;
  uint64_t spill_loaded_bytes_ = 0;
  bool spill_loaded_ = false;
  std::map<int, size_t> outer_arity_;
  std::vector<std::vector<table::Row>> replay_rows_;  // [pos][outer quant]
  std::optional<SpillFile::Reader> probe_reader_;
  // Cumulative spill output for EXPLAIN ANALYZE's `spilled=` actuals.
  uint64_t op_spilled_bytes_ = 0;
  uint64_t op_spilled_tuples_ = 0;

  // Alternate-strategy state: build rows bound as the outer batch.
  bool alternate_ = false;
  std::unique_ptr<IndexNLProbe> alt_probe_;
  std::unique_ptr<RowBatch> alt_outer_;
  size_t alt_build_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Hash group by with the low-memory fallback (paper §4.3)
// ---------------------------------------------------------------------------

// AggState, GroupTable and the accumulate and emission steps live in
// exec/agg.h, shared with the parallel pre-aggregation in exchange.cc.

class HashGroupByOp : public Operator, public MemoryConsumer {
 public:
  HashGroupByOp(const PlanNode* plan, std::unique_ptr<Operator> child,
                ExecContext* ec)
      : plan_(plan), child_(std::move(child)), ec_(ec), acc_(plan, *ec),
        groups_(plan->group_keys.size(), plan->aggregates.size()) {
    name = "hash_group_by";
  }

  Status Open() override {
    if (ec_->memory != nullptr) {
      plan_level = 2;
      predicted_pages = plan_->memory_quota_pages;
      ec_->memory->RegisterConsumer(this);
    }
    emitting_ = false;
    HDB_RETURN_IF_ERROR(Aggregate());
    emitting_ = true;
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    return emit_.Next(ec_->num_quantifiers, plan_->having.get(), b);
  }

  void Close() override {
    child_->Close();
    if (ec_->memory != nullptr) ec_->memory->UnregisterConsumer(this);
    ReleaseQuota(ec_, bytes_held_);
    bytes_held_ = 0;
  }

  // MemoryConsumer: the low-memory fallback — flush partially computed
  // groups (keys + encoded AggStates) to a temporary stream and keep
  // aggregating; the finalize phase merges partials back (paper §4.3).
  // Once emission starts, the finalized rows are the reserve.
  SpillableStats SpillStats() const override {
    SpillableStats s;
    s.respill_cost = 2.0;
    if (emitting_) {
      s.must_reserve_bytes = bytes_held_;
      return s;
    }
    s.spillable_bytes = bytes_held_;
    return s;
  }

  Result<uint64_t> SpillSome(uint64_t /*target_bytes*/) override {
    if (emitting_ || groups_.size() == 0) return uint64_t{0};
    if (spill_ == nullptr) spill_ = std::make_unique<SpillFile>(ec_->pool);
    const uint64_t before = spill_->byte_count();
    const size_t nkeys = groups_.keys.arity();
    std::vector<Value> tuple;
    for (uint32_t g = 0; g < groups_.size(); ++g) {
      tuple.assign(groups_.keys.key(g), groups_.keys.key(g) + nkeys);
      for (size_t a = 0; a < groups_.naggs; ++a) {
        const auto enc = EncodeAggState(groups_.states_of(g)[a]);
        tuple.insert(tuple.end(), enc.begin(), enc.end());
      }
      HDB_RETURN_IF_ERROR(spill_->Append(tuple));
      ++op_spilled_tuples_;
    }
    const uint64_t written = spill_->byte_count() - before;
    op_spilled_bytes_ += written;
    ec_->stats.spill_bytes_written += written;
    ec_->stats.group_by_used_fallback = true;
    ec_->stats.group_by_spilled_groups += groups_.size();
    const uint64_t freed = bytes_held_;
    groups_.Clear();
    bytes_held_ = 0;
    return freed;
  }

  uint64_t MemoryBytes() const override { return bytes_held_; }
  uint64_t SpilledBytes() const override { return op_spilled_bytes_; }
  uint64_t SpilledTuples() const override { return op_spilled_tuples_; }

 private:
  Status Aggregate() {
    HDB_RETURN_IF_ERROR(child_->Open());
    if (child_batch_ == nullptr) {
      child_batch_ = std::make_unique<RowBatch>(
          ec_->num_quantifiers + 1, EffectiveBatchCap(ec_, 0), ec_->params);
    }
    groups_.Clear();
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more,
                           child_->NextBatch(child_batch_.get()));
      if (!more) break;
      HDB_RETURN_IF_ERROR(
          acc_.Fold(*child_batch_, &groups_, ec_, &bytes_held_));
    }
    if (spill_ != nullptr) HDB_RETURN_IF_ERROR(MergeSpilled());
    emit_.Reset(groups_.Finalize(plan_->aggregates));
    return Status::OK();
  }

  /// Merges the spilled partial groups, in spill order, and then the
  /// in-memory ones into a fresh table, which replaces groups_.
  Status MergeSpilled() {
    const size_t nkeys = groups_.keys.arity();
    GroupTable merged(nkeys, groups_.naggs);
    auto reader = spill_->Read();
    std::vector<Value> tuple;
    std::vector<AggState> partial(groups_.naggs);
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more, reader.Next(&tuple));
      if (!more) break;
      for (size_t a = 0; a < partial.size(); ++a) {
        partial[a] = DecodeAggState(tuple, nkeys + a * kAggStateArity);
      }
      merged.Merge(tuple.data(), partial.data());
    }
    for (uint32_t g = 0; g < groups_.size(); ++g) {
      merged.Merge(groups_.keys.key(g), groups_.states_of(g));
    }
    groups_ = std::move(merged);
    ec_->stats.spill_bytes_read += spill_->byte_count();
    spill_.reset();
    return Status::OK();
  }

  const PlanNode* plan_;
  std::unique_ptr<Operator> child_;
  ExecContext* ec_;
  GroupAccumulator acc_;

  GroupTable groups_;  // numbered in arrival order
  std::unique_ptr<SpillFile> spill_;
  uint64_t bytes_held_ = 0;
  bool emitting_ = false;
  uint64_t op_spilled_bytes_ = 0;
  uint64_t op_spilled_tuples_ = 0;

  GroupEmitter emit_;
  std::unique_ptr<RowBatch> child_batch_;  // reused across the aggregation
};

// ---------------------------------------------------------------------------
// Sort (top-N under a LIMIT, external merge when over quota)
// ---------------------------------------------------------------------------

/// Batch-native sort. Without a limit it buffers every input row, sorts
/// stably by the ORDER BY keys and, over quota, spills sorted runs that a
/// streaming merge combines. With plan->limit = N (set by the optimizer
/// when a LIMIT sits directly above the ORDER BY) the buffer is a bounded
/// heap of the N best rows ordered by (keys, arrival sequence): a row no
/// better than the heap's worst is dropped once its keys are evaluated,
/// without being copied, and ties keep exactly the rows and the order a
/// stable sort truncated to N gives.
class SortOp : public Operator, public MemoryConsumer {
 public:
  SortOp(const PlanNode* plan, std::unique_ptr<Operator> child,
         ExecContext* ec)
      : plan_(plan), child_(std::move(child)), ec_(ec) {
    for (const auto& c : plan_->children) CollectBoundQuantifiers(c.get(), &quants_);
    name = "sort";
  }

  Status Open() override {
    pending_.clear();
    runs_.clear();
    rows_.clear();
    merge_.reset();
    merging_ = false;
    merge_read_counted_ = false;
    top_n_ = plan_->limit >= 0;
    group_bound_ = false;
    seq_ = 0;
    pos_ = 0;
    emitted_ = 0;
    if (ec_->memory != nullptr) {
      plan_level = 3;
      predicted_pages = plan_->memory_quota_pages;
      ec_->memory->RegisterConsumer(this);
    }
    HDB_RETURN_IF_ERROR(Materialize());
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* b) override {
    b->Reset();
    // Slot pointers go straight into the sorted rows (or, while merging
    // spilled runs, into emit_buf_), which stay put until the next call.
    if (merging_ && emit_buf_.size() < b->capacity()) {
      emit_buf_.resize(b->capacity());
    }
    slot_cols_.resize(quants_.size());
    for (size_t k = 0; k < quants_.size(); ++k) {
      slot_cols_[k] = b->BindSlot(quants_[k]);
    }
    const table::Row** group_col =
        group_bound_ ? b->BindSlot(ec_->num_quantifiers) : nullptr;
    size_t n = 0;
    while (n < b->capacity()) {
      HDB_ASSIGN_OR_RETURN(const MatRow* r,
                           NextRow(merging_ ? &emit_buf_[n] : nullptr));
      if (r == nullptr) break;
      for (size_t k = 0; k < quants_.size(); ++k) {
        slot_cols_[k][n] = &r->slots[k];
      }
      if (group_col != nullptr) {
        group_col[n] = r->has_group ? &r->group_row : nullptr;
      }
      ++n;
    }
    b->SetSize(n);
    return n > 0;
  }

  void Close() override {
    child_->Close();
    if (ec_->memory != nullptr) ec_->memory->UnregisterConsumer(this);
    ReleaseQuota(ec_, bytes_held_);
    bytes_held_ = 0;
    merge_.reset();
    runs_.clear();
  }

  // MemoryConsumer: a sort run is cheap to respill (sequential write, one
  // sequential read back through the merge, no rebuild), so the sort is
  // the scheduler's preferred victim. During the merge phase the buffer
  // is already on disk — nothing left to give.
  SpillableStats SpillStats() const override {
    SpillableStats s;
    s.respill_cost = 1.5;
    if (merging_) return s;
    s.spillable_bytes = bytes_held_;
    return s;
  }

  Result<uint64_t> SpillSome(uint64_t /*target_bytes*/) override {
    if (merging_ || pending_.empty()) return uint64_t{0};
    // A top-N heap asked to give its memory back becomes the first run and
    // the plain external sort takes over: the rows the heap already
    // dropped cannot be among the first N, and emission still stops at N.
    top_n_ = false;
    HDB_RETURN_IF_ERROR(WriteRun());
    const uint64_t freed = bytes_held_;
    bytes_held_ = 0;
    return freed;
  }

  uint64_t MemoryBytes() const override { return bytes_held_; }
  uint64_t SpilledBytes() const override { return op_spilled_bytes_; }
  uint64_t SpilledTuples() const override { return op_spilled_tuples_; }

 private:
  struct MatRow {
    std::vector<table::Row> slots;  // one per quants_ entry
    table::Row group_row;           // pseudo-quantifier content
    bool has_group = false;
    std::vector<Value> keys;        // precomputed sort keys
    uint64_t seq = 0;               // arrival order, the tie-breaker
  };

  int CompareKeys(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < plan_->order.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return plan_->order[i].ascending ? c : -c;
    }
    return 0;
  }

  /// Output order: by keys, then by arrival — a stable sort.
  bool Before(const MatRow& a, const MatRow& b) const {
    const int c = CompareKeys(a.keys, b.keys);
    return c != 0 ? c < 0 : a.seq < b.seq;
  }

  void SortPending() {
    std::sort(pending_.begin(), pending_.end(),
              [this](const MatRow& a, const MatRow& b) { return Before(a, b); });
  }

  /// Sorts the pending buffer and writes it out as one run, propagating
  /// any spill-write failure.
  Status WriteRun() {
    SortPending();
    auto run = std::make_unique<SpillFile>(ec_->pool);
    for (const auto& r : pending_) {
      HDB_RETURN_IF_ERROR(run->Append(Flatten(r)));
    }
    op_spilled_bytes_ += run->byte_count();
    op_spilled_tuples_ += run->tuple_count();
    ec_->stats.spill_bytes_written += run->byte_count();
    ec_->stats.sort_runs_spilled++;
    runs_.push_back(std::move(run));
    pending_.clear();
    return Status::OK();
  }

  std::vector<Value> Flatten(const MatRow& r) const {
    // [keys..., has_group, group arity, group..., per quant: arity, vals...]
    std::vector<Value> flat = r.keys;
    flat.push_back(Value::Boolean(r.has_group));
    flat.push_back(Value::Bigint(static_cast<int64_t>(r.group_row.size())));
    for (const Value& v : r.group_row) flat.push_back(v);
    for (const auto& slot : r.slots) {
      flat.push_back(Value::Bigint(static_cast<int64_t>(slot.size())));
      for (const Value& v : slot) flat.push_back(v);
    }
    return flat;
  }

  /// Decodes a run tuple into `r`, reusing its storage.
  void Unflatten(const std::vector<Value>& flat, MatRow* r) const {
    size_t pos = plan_->order.size();
    r->keys.assign(flat.begin(), flat.begin() + pos);
    r->has_group = flat[pos++].AsBool();
    const auto garity = static_cast<size_t>(flat[pos++].AsInt());
    r->group_row.assign(flat.begin() + pos, flat.begin() + pos + garity);
    pos += garity;
    r->slots.resize(quants_.size());
    for (auto& slot : r->slots) {
      const auto arity = static_cast<size_t>(flat[pos++].AsInt());
      slot.assign(flat.begin() + pos, flat.begin() + pos + arity);
      pos += arity;
    }
  }

  /// Next row in output order, or nullptr at the end or at the limit. A
  /// row merged from spilled runs is decoded into `*buf`.
  Result<const MatRow*> NextRow(MatRow* buf) {
    const MatRow* none = nullptr;
    if (plan_->limit >= 0 && emitted_ >= plan_->limit) return none;
    if (merging_) {
      HDB_ASSIGN_OR_RETURN(const bool more, merge_->Next(&flat_));
      if (!more) {
        if (!merge_read_counted_) {
          for (const auto& run : runs_) {
            ec_->stats.spill_bytes_read += run->byte_count();
          }
          merge_read_counted_ = true;
        }
        return none;
      }
      Unflatten(flat_, buf);
      ++emitted_;
      return static_cast<const MatRow*>(buf);
    }
    if (pos_ >= rows_.size()) return none;
    ++emitted_;
    return static_cast<const MatRow*>(&rows_[pos_++]);
  }

  /// Copies the row bound in `ctx` into `r` (reusing its storage).
  void Capture(const RowContext& ctx, uint64_t seq, MatRow* r) const {
    r->slots.resize(quants_.size());
    for (size_t k = 0; k < quants_.size(); ++k) {
      const table::Row* src = ctx.rows[quants_[k]];
      if (src != nullptr) {
        r->slots[k] = *src;
      } else {
        r->slots[k].clear();
      }
    }
    const table::Row* group = ctx.rows[ec_->num_quantifiers];
    r->has_group = group != nullptr;
    if (r->has_group) {
      r->group_row = *group;
    } else {
      r->group_row.clear();
    }
    r->keys = keys_;
    r->seq = seq;
  }

  static uint64_t RowBytes(const MatRow& r) {
    uint64_t bytes = 96;
    for (const auto& s : r.slots) bytes += 48 * s.size();
    return bytes;
  }

  Status Materialize() {
    HDB_RETURN_IF_ERROR(child_->Open());
    const size_t nslots = ec_->num_quantifiers + 1;
    if (child_batch_ == nullptr) {
      child_batch_ = std::make_unique<RowBatch>(
          nslots, EffectiveBatchCap(ec_, 0), ec_->params);
    }
    RowContext ctx;
    ctx.rows.assign(nslots, nullptr);
    ctx.params = ec_->params;
    keys_.resize(plan_->order.size());
    const auto heap_less = [this](const MatRow& a, const MatRow& b) {
      return Before(a, b);
    };
    const auto limit = static_cast<size_t>(std::max<int64_t>(plan_->limit, 0));
    for (;;) {
      HDB_ASSIGN_OR_RETURN(const bool more,
                           child_->NextBatch(child_batch_.get()));
      if (!more) break;
      // The batch's charge is taken after its rows are copied: charging
      // can evict a hash-join partition below us, which the batch's slot
      // pointers may still point into.
      uint64_t added = 0;
      uint64_t dropped = 0;
      const size_t bn = child_batch_->ActiveCount();
      for (size_t i = 0; i < bn; ++i) {
        child_batch_->BindRow(child_batch_->Active(i), &ctx);
        for (size_t k = 0; k < keys_.size(); ++k) {
          HDB_RETURN_IF_ERROR(
              EvalExprInto(plan_->order[k].expr.get(), ctx, &keys_[k]));
        }
        const uint64_t seq = seq_++;
        if (!top_n_ || pending_.size() < limit) {
          pending_.emplace_back();
          Capture(ctx, seq, &pending_.back());
          if (top_n_) std::push_heap(pending_.begin(), pending_.end(), heap_less);
        } else {
          // Full heap: a later row with keys equal to the worst's loses
          // the tie, so only strictly better keys displace it.
          if (limit == 0 || CompareKeys(keys_, pending_.front().keys) >= 0) {
            continue;
          }
          std::pop_heap(pending_.begin(), pending_.end(), heap_less);
          dropped += RowBytes(pending_.back());
          Capture(ctx, seq, &pending_.back());
          std::push_heap(pending_.begin(), pending_.end(), heap_less);
        }
        added += RowBytes(pending_.back());
        group_bound_ = group_bound_ || pending_.back().has_group;
      }
      if (added > dropped) {
        bytes_held_ += added - dropped;
        HDB_RETURN_IF_ERROR(ChargeQuota(ec_, added - dropped));
      } else if (dropped > added) {
        bytes_held_ -= dropped - added;
        ReleaseQuota(ec_, dropped - added);
      }
    }

    if (runs_.empty()) {
      SortPending();
      rows_ = std::move(pending_);
      pending_.clear();
      return Status::OK();
    }
    // External merge: the in-memory remainder becomes a final run (and
    // its charge is released), then all runs merge *streamingly*: one
    // decoded tuple per run, never the whole result.
    if (!pending_.empty()) {
      HDB_RETURN_IF_ERROR(WriteRun());
      ReleaseQuota(ec_, bytes_held_);
      bytes_held_ = 0;
    }
    std::vector<SpillFile*> run_ptrs;
    run_ptrs.reserve(runs_.size());
    for (const auto& run : runs_) run_ptrs.push_back(run.get());
    merge_ = std::make_unique<SpillMergeReader>(
        std::move(run_ptrs),
        // Flat run tuples lead with the precomputed sort keys; ties keep
        // the earliest run, i.e. arrival order.
        [this](const std::vector<Value>& a, const std::vector<Value>& b) {
          return CompareKeys(a, b);
        });
    HDB_RETURN_IF_ERROR(merge_->Init());
    merging_ = true;
    return Status::OK();
  }

  const PlanNode* plan_;
  std::unique_ptr<Operator> child_;
  ExecContext* ec_;
  std::vector<int> quants_;

  // Rows not yet in a run: arrival order, or the top-N max-heap (worst
  // row at the front) while top_n_.
  std::vector<MatRow> pending_;
  std::vector<std::unique_ptr<SpillFile>> runs_;
  std::vector<MatRow> rows_;
  bool top_n_ = false;
  bool group_bound_ = false;
  uint64_t seq_ = 0;
  size_t pos_ = 0;
  int64_t emitted_ = 0;
  uint64_t bytes_held_ = 0;

  // Per-row scratch, reused across the whole input and emission.
  std::unique_ptr<RowBatch> child_batch_;
  std::vector<Value> keys_;
  std::vector<Value> flat_;
  std::vector<MatRow> emit_buf_;
  std::vector<const table::Row**> slot_cols_;

  // Streaming-merge emission state (spilled executions only).
  std::unique_ptr<SpillMergeReader> merge_;
  bool merging_ = false;
  bool merge_read_counted_ = false;
  uint64_t op_spilled_bytes_ = 0;
  uint64_t op_spilled_tuples_ = 0;
};

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE instrumentation and statement-trace spans
// ---------------------------------------------------------------------------

/// Decorator observing one operator, installed only when some observer is
/// on. Under EXPLAIN ANALYZE (`actuals` non-null) it fills the plan node's
/// actuals: wall time inclusive of children (which are themselves wrapped,
/// so self time can be derived by subtraction), statement-trace wait
/// deltas, selected rows and batch pulls, and the high-water mark of the
/// wrapped operator's MemoryBytes(), sampled after Open and each
/// NextBatch. With a `span_name` (blocking operators, when the building
/// thread carries a statement trace) it brackets the operator's lifetime
/// with a span: opened before Open(), closed after Close() so child
/// operator spans nest inside and the span bookkeeping stays out of the
/// measured wall time.
class ObservedOp : public Operator {
 public:
  ObservedOp(const PlanNode* plan, std::unique_ptr<Operator> inner,
             optimizer::OpActualsMap* actuals, obs::StatementTrace* trace,
             const char* span_name)
      : plan_(plan), inner_(std::move(inner)), actuals_(actuals),
        trace_(trace), span_name_(span_name) {}

  ~ObservedOp() override {
    // Error paths can skip Close(); the span must not dangle past the
    // operator tree.
    if (span_id_ != 0) trace_->CloseSpan(span_id_);
  }

  Status Open() override {
    if (span_name_ != nullptr) {
      // NL-join inner sides re-open per outer row: each rebuild gets its
      // own span (capped by the trace's span budget).
      if (span_id_ != 0) trace_->CloseSpan(span_id_);
      span_id_ = trace_->OpenSpan(span_name_);
    }
    if (actuals_ == nullptr) return inner_->Open();
    const auto t0 = std::chrono::steady_clock::now();
    const obs::WaitBreakdown w0 = obs::CurrentWaitBreakdown();
    const Status s = inner_->Open();
    optimizer::OpActuals& a = Sample(t0, w0);
    a.opens++;
    return s;
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    if (actuals_ == nullptr) return inner_->NextBatch(batch);
    const auto t0 = std::chrono::steady_clock::now();
    const obs::WaitBreakdown w0 = obs::CurrentWaitBreakdown();
    const uint64_t filtered0 = inner_->KeyFilteredRows();
    Result<bool> r = inner_->NextBatch(batch);
    optimizer::OpActuals& a = Sample(t0, w0);
    a.invocations++;
    a.batches++;
    // Actual rows are the *selected* rows the operator produced — not
    // the number of NextBatch pulls (DESIGN.md §6) — including those that
    // passed its own predicates and then a hash join's key filter.
    const uint64_t filtered = inner_->KeyFilteredRows() - filtered0;
    a.hash_filtered += filtered;
    a.rows += filtered;
    if (r.ok() && *r) a.rows += batch->ActiveCount();
    return r;
  }

  bool AcceptKeyFilter(int quantifier, int column,
                       const KeyFilter* f) override {
    return inner_->AcceptKeyFilter(quantifier, column, f);
  }
  void WithdrawKeyFilter(const KeyFilter* f) override {
    inner_->WithdrawKeyFilter(f);
  }
  uint64_t KeyFilteredRows() const override {
    return inner_->KeyFilteredRows();
  }

  void Close() override {
    if (actuals_ != nullptr) {
      optimizer::OpActuals& a = (*actuals_)[plan_];
      a.peak_memory_bytes =
          std::max(a.peak_memory_bytes, inner_->MemoryBytes());
      a.spilled_bytes = inner_->SpilledBytes();
      a.spilled_tuples = inner_->SpilledTuples();
    }
    inner_->Close();
    if (span_id_ != 0) {
      trace_->CloseSpan(span_id_);
      span_id_ = 0;
    }
  }

  uint64_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  uint64_t SpilledBytes() const override { return inner_->SpilledBytes(); }
  uint64_t SpilledTuples() const override { return inner_->SpilledTuples(); }

 private:
  optimizer::OpActuals& Sample(std::chrono::steady_clock::time_point started,
                               const obs::WaitBreakdown& before) {
    optimizer::OpActuals& a = (*actuals_)[plan_];
    a.wall_micros += std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    a.peak_memory_bytes = std::max(a.peak_memory_bytes, inner_->MemoryBytes());
    a.spilled_bytes = inner_->SpilledBytes();
    a.spilled_tuples = inner_->SpilledTuples();
    // Statement-trace wait deltas across the wrapped call (children
    // included, same nesting rule as wall_micros). Tallies only grow, so
    // the subtraction is safe; all-zero when no trace is installed.
    const obs::WaitBreakdown after = obs::CurrentWaitBreakdown();
    a.wait_lock_micros += after.lock_micros - before.lock_micros;
    a.wait_wal_micros += after.wal_micros - before.wal_micros;
    a.wait_spill_micros += after.spill_micros - before.spill_micros;
    a.wait_pool_micros += after.pool_micros - before.pool_micros;
    return a;
  }

  const PlanNode* plan_;
  std::unique_ptr<Operator> inner_;
  optimizer::OpActualsMap* actuals_;
  obs::StatementTrace* trace_;
  const char* span_name_;
  uint32_t span_id_ = 0;
};

/// Span name for a blocking (materializing) operator, or nullptr.
const char* BlockingSpanName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kHashJoin:
      return obs::kSpanOpHashJoin;
    case PlanKind::kSort:
      return obs::kSpanOpSort;
    case PlanKind::kHashGroupBy:
      return obs::kSpanOpHashGroupBy;
    case PlanKind::kHashDistinct:
      return obs::kSpanOpHashDistinct;
    default:
      return nullptr;
  }
}

Result<std::unique_ptr<Operator>> BuildExecutorNode(const PlanNode* plan,
                                                    ExecContext* ctx);

}  // namespace

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

bool PlanProducesOutput(const PlanNode* plan) {
  switch (plan->kind) {
    case PlanKind::kProject:
    case PlanKind::kHashDistinct:
      return true;
    case PlanKind::kFilter:
    case PlanKind::kLimit:
      return !plan->children.empty() &&
             PlanProducesOutput(plan->children[0].get());
    default:
      // Sort and the joins/scans carry bare quantifier slots; result fetch
      // flattens them, so every column must be materialized.
      return false;
  }
}

Result<std::unique_ptr<Operator>> BuildExecutor(const PlanNode* plan,
                                                ExecContext* ctx) {
  HDB_ASSIGN_OR_RETURN(auto op, BuildExecutorNode(plan, ctx));
  obs::StatementTrace* trace = obs::CurrentStatementTrace();
  const char* span_name =
      trace != nullptr ? BlockingSpanName(plan->kind) : nullptr;
  if (ctx->actuals == nullptr && span_name == nullptr) return op;
  return std::unique_ptr<Operator>(
      new ObservedOp(plan, std::move(op), ctx->actuals, trace, span_name));
}

namespace {

// Children are built through BuildExecutor so each level gets observed
// when EXPLAIN ANALYZE instrumentation or statement tracing is on.
Result<std::unique_ptr<Operator>> BuildExecutorNode(const PlanNode* plan,
                                                    ExecContext* ctx) {
  // Intra-query parallelism (paper §4.4, DESIGN.md §13): for nodes the
  // optimizer marked parallel-eligible, ask the governor for a worker
  // grant at pipeline start. grant == 1 (the default under load, and
  // always when parallel.max_workers is 1) falls through to the serial
  // operators below — the parallel machinery costs serial plans nothing.
  // Worker fragments never recurse here (in_parallel_worker), and an
  // exchange already consuming a dispenser never nests another.
  if (ctx->parallel != nullptr && plan->parallel_workers > 1 &&
      ctx->morsel_source == nullptr && !ctx->in_parallel_worker) {
    // Per-worker predicted share: the optimizer's quota is for the whole
    // operator; join build partitions are disjoint across the crew and
    // pre-aggregation maps split the same way, so the crew collectively
    // holds roughly the serial plan's memory.
    const uint32_t share =
        plan->memory_quota_pages == 0
            ? 0
            : std::max<uint32_t>(
                  1, plan->memory_quota_pages /
                         static_cast<uint32_t>(plan->parallel_workers));
    const int grant = ctx->parallel->PickWorkers(plan->parallel_workers, share);
    if (grant > 1) return MakeExchangeOp(plan, ctx, grant);
  }
  switch (plan->kind) {
    case PlanKind::kSeqScan:
      return std::unique_ptr<Operator>(new SeqScanOp(plan, ctx));
    case PlanKind::kIndexScan:
      if (plan->index_is_virtual) {
        return Status::Internal("virtual index in an executable plan");
      }
      return std::unique_ptr<Operator>(new IndexScanOp(plan, ctx));
    case PlanKind::kFilter: {
      HDB_ASSIGN_OR_RETURN(auto child,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(new FilterOp(plan, std::move(child)));
    }
    case PlanKind::kProject: {
      HDB_ASSIGN_OR_RETURN(auto child,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(new ProjectOp(plan, std::move(child)));
    }
    case PlanKind::kLimit: {
      HDB_ASSIGN_OR_RETURN(auto child,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(new LimitOp(plan, std::move(child)));
    }
    case PlanKind::kHashDistinct: {
      HDB_ASSIGN_OR_RETURN(auto child,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(
          new HashDistinctOp(plan, std::move(child), ctx));
    }
    case PlanKind::kNLJoin: {
      HDB_ASSIGN_OR_RETURN(auto outer,
                           BuildExecutor(plan->children[0].get(), ctx));
      HDB_ASSIGN_OR_RETURN(auto inner,
                           BuildExecutor(plan->children[1].get(), ctx));
      return std::unique_ptr<Operator>(
          new NLJoinOp(plan, std::move(outer), std::move(inner), ctx));
    }
    case PlanKind::kIndexNLJoin: {
      if (plan->index_is_virtual) {
        return Status::Internal("virtual index in an executable plan");
      }
      HDB_ASSIGN_OR_RETURN(auto outer,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(
          new IndexNLJoinOp(plan, std::move(outer), ctx));
    }
    case PlanKind::kHashJoin: {
      HDB_ASSIGN_OR_RETURN(auto outer,
                           BuildExecutor(plan->children[0].get(), ctx));
      HDB_ASSIGN_OR_RETURN(auto inner,
                           BuildExecutor(plan->children[1].get(), ctx));
      return std::unique_ptr<Operator>(
          new HashJoinOp(plan, std::move(outer), std::move(inner), ctx));
    }
    case PlanKind::kHashGroupBy: {
      HDB_ASSIGN_OR_RETURN(auto child,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(
          new HashGroupByOp(plan, std::move(child), ctx));
    }
    case PlanKind::kSort: {
      HDB_ASSIGN_OR_RETURN(auto child,
                           BuildExecutor(plan->children[0].get(), ctx));
      return std::unique_ptr<Operator>(
          new SortOp(plan, std::move(child), ctx));
    }
  }
  return Status::Internal("unhandled plan kind");
}

}  // namespace

Result<std::vector<std::vector<Value>>> ExecuteToRows(const PlanNode* plan,
                                                      ExecContext* ctx) {
  // Column pruning: when the root chain projects output (so result fetch
  // never flattens raw slots), collect which columns of each quantifier
  // the plan references; scans skip decoding the rest.
  ctx->scan_masks.clear();
  const bool projected = PlanProducesOutput(plan);
  if (projected) {
    ctx->scan_masks.resize(ctx->num_quantifiers + 1);
    CollectPlanColumnMasks(plan, &ctx->scan_masks);
  }
  HDB_ASSIGN_OR_RETURN(auto op, BuildExecutor(plan, ctx));
  RowContext rc;
  rc.rows.assign(ctx->num_quantifiers + 1, nullptr);
  rc.params = ctx->params;
  RowBatch batch(ctx->num_quantifiers + 1,
                 ctx->batch_cap != 0 ? ctx->batch_cap : kDefaultBatchCap,
                 ctx->params);
  HDB_RETURN_IF_ERROR(op->Open());
  std::vector<std::vector<Value>> out;
  for (;;) {
    HDB_ASSIGN_OR_RETURN(const bool more, op->NextBatch(&batch));
    if (!more) break;
    const size_t n = batch.ActiveCount();
    ctx->stats.rows_output += n;
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = batch.Active(i);
      if (projected) {
        // Steal the output row's buffer; the slot refills next batch.
        out.push_back(std::move(*batch.MutableOutput(pos)));
      } else {
        batch.BindRow(pos, &rc);
        std::vector<Value> flat;
        for (const auto* slot : rc.rows) {
          if (slot != nullptr) {
            flat.insert(flat.end(), slot->begin(), slot->end());
          }
        }
        out.push_back(std::move(flat));
      }
    }
  }
  op->Close();
  return out;
}

}  // namespace hdb::exec
