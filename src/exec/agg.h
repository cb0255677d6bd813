#ifndef HDB_EXEC_AGG_H_
#define HDB_EXEC_AGG_H_

#include <cstdint>
#include <vector>

#include "common/value.h"
#include "exec/batch_eval.h"
#include "exec/hash_table.h"
#include "exec/spill.h"
#include "optimizer/plan.h"
#include "optimizer/query.h"

namespace hdb::exec {

/// Running state of one aggregate over one group. Shared by the serial
/// hash group by (executor.cc), its spill encode/decode, and the parallel
/// pre-aggregation workers (exchange.cc) — AggMerge is exactly the
/// partial-merge both the spill replay and the worker merge need.
struct AggState {
  int64_t count = 0;       // non-null inputs
  int64_t count_star = 0;  // all rows
  double sum = 0;
  bool int_only = true;
  bool has = false;
  Value min, max;
};

/// Folds one input into `s`, touching only the fields `kind` finalizes
/// from: COUNT(*) and COUNT count, SUM and AVG also add, MIN and MAX only
/// compare. The untouched fields keep their defaults, so AggMerge and the
/// spill encoding treat every kind alike.
inline void AggUpdate(AggState& s, optimizer::AggKind kind, const Value& v) {
  s.count_star++;
  if (kind == optimizer::AggKind::kCountStar || v.is_null()) return;
  s.count++;
  switch (kind) {
    case optimizer::AggKind::kSum:
    case optimizer::AggKind::kAvg:
      if (v.type() == TypeId::kDouble) s.int_only = false;
      if (v.type() != TypeId::kVarchar) s.sum += v.AsDouble();
      return;
    case optimizer::AggKind::kMin:
      if (!s.has || v.Compare(s.min) < 0) s.min = v;
      s.has = true;
      return;
    case optimizer::AggKind::kMax:
      if (!s.has || v.Compare(s.max) > 0) s.max = v;
      s.has = true;
      return;
    case optimizer::AggKind::kCountStar:
    case optimizer::AggKind::kCount:
      return;
  }
}

inline void AggMerge(AggState& into, const AggState& from) {
  into.count += from.count;
  into.count_star += from.count_star;
  into.sum += from.sum;
  into.int_only = into.int_only && from.int_only;
  if (from.has) {
    if (!into.has || from.min.Compare(into.min) < 0) into.min = from.min;
    if (!into.has || from.max.Compare(into.max) > 0) into.max = from.max;
    into.has = true;
  }
}

inline Value AggFinalize(const AggState& s, optimizer::AggKind kind) {
  switch (kind) {
    case optimizer::AggKind::kCountStar:
      return Value::Bigint(s.count_star);
    case optimizer::AggKind::kCount:
      return Value::Bigint(s.count);
    case optimizer::AggKind::kSum:
      if (s.count == 0) return Value::Null(TypeId::kDouble);
      return s.int_only ? Value::Bigint(static_cast<int64_t>(s.sum))
                        : Value::Double(s.sum);
    case optimizer::AggKind::kMin:
      return s.has ? s.min : Value::Null();
    case optimizer::AggKind::kMax:
      return s.has ? s.max : Value::Null();
    case optimizer::AggKind::kAvg:
      if (s.count == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(s.sum / static_cast<double>(s.count));
  }
  return Value::Null();
}

/// Spill wire format for a partial AggState: kAggStateArity Values per
/// aggregate, appended after the group-key values.
inline constexpr size_t kAggStateArity = 7;

inline std::vector<Value> EncodeAggState(const AggState& s) {
  return {Value::Bigint(s.count),          Value::Bigint(s.count_star),
          Value::Double(s.sum),            Value::Boolean(s.int_only),
          Value::Boolean(s.has),           s.has ? s.min : Value::Null(),
          s.has ? s.max : Value::Null()};
}

inline AggState DecodeAggState(const std::vector<Value>& v, size_t at) {
  AggState s;
  s.count = v[at].AsInt();
  s.count_star = v[at + 1].AsInt();
  s.sum = v[at + 2].AsDouble();
  s.int_only = v[at + 3].AsBool();
  s.has = v[at + 4].AsBool();
  s.min = v[at + 5];
  s.max = v[at + 6];
  return s;
}

/// The groups of one hash aggregation: their keys in a KeyTable and, by
/// group number, their aggregate states ([group * naggs + aggregate]).
/// Shared by the serial HashGroupByOp (its in-memory groups, and the merge
/// of its spilled partials) and the parallel pre-aggregation (each
/// worker's groups, and their merge once the worker drains).
struct GroupTable {
  GroupTable(size_t nkeys, size_t naggs) : keys(nkeys), naggs(naggs) {}

  KeyTable keys;
  std::vector<AggState> states;
  size_t naggs;

  size_t size() const { return keys.size(); }
  AggState* states_of(uint32_t g) { return states.data() + g * naggs; }
  const AggState* states_of(uint32_t g) const {
    return states.data() + g * naggs;
  }

  /// Adds a group for the key `get(0..nkeys)` (absent, hash `h`) with
  /// fresh states; returns its number.
  template <typename Get>
  uint32_t Add(uint64_t h, const Get& get) {
    states.resize(states.size() + naggs);
    return keys.Insert(h, get);
  }

  /// Folds one partial group in: a new key starts as `partial`, a known
  /// one AggMerges it.
  void Merge(const Value* key, const AggState* partial) {
    auto get = [&](size_t i) -> const Value& { return key[i]; };
    const uint64_t h = KeyHash(keys.arity(), get);
    const uint32_t g = keys.Find(h, get);
    if (g == FlatHashTable::kAbsent) {
      keys.Insert(h, get);
      states.insert(states.end(), partial, partial + naggs);
      return;
    }
    for (size_t a = 0; a < naggs; ++a) AggMerge(states_of(g)[a], partial[a]);
  }

  void Clear() {
    keys.Clear();
    states.clear();
  }

  /// The result rows — group keys, then one finalized value per aggregate
  /// — in ascending encoded-key order, the GROUP BY emission order. Moves
  /// the keys out and empties the table. A scalar aggregation (no group
  /// keys) over no rows still yields one row.
  std::vector<std::vector<Value>> Finalize(
      const std::vector<optimizer::AggSpec>& aggs) {
    const size_t nkeys = keys.arity();
    std::vector<std::vector<Value>> rows;
    rows.reserve(size());
    for (const uint32_t g : keys.EncodedOrder()) {
      std::vector<Value> row;
      row.reserve(nkeys + naggs);
      Value* key = keys.mutable_key(g);
      for (size_t i = 0; i < nkeys; ++i) row.push_back(std::move(key[i]));
      for (size_t a = 0; a < naggs; ++a) {
        row.push_back(AggFinalize(states_of(g)[a], aggs[a].kind));
      }
      rows.push_back(std::move(row));
    }
    Clear();
    if (nkeys == 0 && rows.empty() && !aggs.empty()) {
      std::vector<Value> row;
      for (const auto& spec : aggs) {
        row.push_back(AggFinalize(AggState{}, spec.kind));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }
};

/// Group-key and aggregate-argument expressions of a group-by plan node,
/// in the order GroupAccumulator reads them.
inline std::vector<const optimizer::Expr*> GroupKeyExprs(
    const optimizer::PlanNode* plan) {
  std::vector<const optimizer::Expr*> out;
  for (const optimizer::ExprPtr& k : plan->group_keys) out.push_back(k.get());
  return out;
}
inline std::vector<const optimizer::Expr*> AggArgExprs(
    const optimizer::PlanNode* plan) {
  std::vector<const optimizer::Expr*> out;
  for (const auto& a : plan->aggregates) out.push_back(a.arg.get());
  return out;
}

/// The accumulate step of a hash group by: folds one batch into a
/// GroupTable. The serial HashGroupByOp runs it over its child's batches
/// and every parallel pre-aggregation worker over its fragment's, each
/// into its own table. Group keys and aggregate arguments are read through
/// BatchExprs, plain columns in place.
class GroupAccumulator {
 public:
  GroupAccumulator(const optimizer::PlanNode* plan, const ExecContext& ec)
      : aggs_(plan->aggregates), keys_(GroupKeyExprs(plan)),
        args_(AggArgExprs(plan)), scratch_keys_(plan->group_keys.size()),
        scratch_args_(plan->aggregates.size()) {
    InitScratchCtx(&ec, &ctx_);
  }

  /// Folds the active rows of `b` into `groups`, charging each new group
  /// to `ec` (ChargeQuota) and adding it to `*held` first. A new group's
  /// keys and arguments are copied out of the batch *before* the charge:
  /// charging may reclaim memory by evicting a hash-join partition below
  /// the operator, which frees the rows the batch points into. The charge
  /// may also spill `groups` (the serial operator's fallback), group
  /// included, in which case the group starts again, uncharged (the
  /// scheduler took the account to zero).
  Status Fold(const RowBatch& b, GroupTable* groups, ExecContext* ec,
              uint64_t* held) {
    const size_t nkeys = scratch_keys_.size();
    const size_t naggs = scratch_args_.size();
    keys_.Bind(b);
    args_.Bind(b);
    const bool bind = keys_.needs_row() || args_.needs_row();
    const size_t n = b.ActiveCount();
    for (size_t r = 0; r < n; ++r) {
      const size_t pos = b.Active(r);
      if (bind) {
        b.BindRow(pos, &ctx_);
        HDB_RETURN_IF_ERROR(keys_.Eval(ctx_));
        HDB_RETURN_IF_ERROR(args_.Eval(ctx_));
      }
      auto key = [&](size_t i) -> const Value& { return keys_.Get(i, pos); };
      const uint64_t h = KeyHash(nkeys, key);
      uint32_t g = groups->keys.Find(h, key);
      if (g != FlatHashTable::kAbsent) {
        AggState* states = groups->states_of(g);
        for (size_t a = 0; a < naggs; ++a) {
          AggUpdate(states[a], aggs_[a].kind, args_.Get(a, pos));
        }
        continue;
      }
      for (size_t i = 0; i < nkeys; ++i) scratch_keys_[i] = keys_.Get(i, pos);
      for (size_t a = 0; a < naggs; ++a) scratch_args_[a] = args_.Get(a, pos);
      auto copied = [&](size_t i) -> const Value& { return scratch_keys_[i]; };
      g = groups->Add(h, copied);
      const uint64_t bytes =
          EncodedValuesBytes(scratch_keys_.data(), nkeys) + 64 * naggs + 64;
      *held += bytes;
      HDB_RETURN_IF_ERROR(ChargeQuota(ec, bytes));
      if (groups->size() == 0) g = groups->Add(h, copied);
      AggState* states = groups->states_of(g);
      for (size_t a = 0; a < naggs; ++a) {
        AggUpdate(states[a], aggs_[a].kind, scratch_args_[a]);
      }
    }
    return Status::OK();
  }

 private:
  const std::vector<optimizer::AggSpec>& aggs_;
  BatchExprs keys_;
  BatchExprs args_;
  // New-group copies and the scratch row context, reused across batches
  // so the loop does not allocate.
  std::vector<Value> scratch_keys_;
  std::vector<Value> scratch_args_;
  optimizer::RowContext ctx_;
};

/// The emission step of a hash group by, shared by HashGroupByOp and the
/// parallel group by: hands out finalized group rows a batch at a time,
/// bound in place (the rows stay put for the whole emission), keeping
/// those that pass HAVING.
class GroupEmitter {
 public:
  void Reset(std::vector<table::Row> rows) {
    rows_ = std::move(rows);
    pos_ = 0;
  }
  void Clear() { Reset({}); }

  /// Binds the next rows into slot `slot` of `b` and applies `having`
  /// (may be null); false once every row has gone out.
  Result<bool> Next(size_t slot, const optimizer::Expr* having, RowBatch* b) {
    b->Reset();
    const table::Row** col = b->BindSlot(slot);
    size_t n = 0;
    while (n < b->capacity() && pos_ < rows_.size()) {
      col[n++] = &rows_[pos_++];
    }
    if (n == 0) return false;
    b->SetSize(n);
    if (having == nullptr) return true;
    if (ctx_.rows.size() != b->num_slots()) {
      ctx_.rows.assign(b->num_slots(), nullptr);
      ctx_.params = b->params();
    }
    uint16_t* sel = b->MutableSel();
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = b->Active(i);
      b->BindRow(pos, &ctx_);
      HDB_ASSIGN_OR_RETURN(const bool ok, having->EvaluatesToTrue(ctx_));
      if (ok) sel[k++] = static_cast<uint16_t>(pos);
    }
    b->SetSelection(k);
    return true;
  }

 private:
  std::vector<table::Row> rows_;  // finalized, in emission order
  size_t pos_ = 0;
  optimizer::RowContext ctx_;  // HAVING scratch
};

}  // namespace hdb::exec

#endif  // HDB_EXEC_AGG_H_
