#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

namespace hdb::optimizer {

namespace {

/// AND-combines a list of conjuncts (nullptr when empty).
ExprPtr Conjoin(const std::vector<ExprPtr>& parts) {
  ExprPtr acc;
  for (const ExprPtr& p : parts) {
    acc = acc == nullptr ? p : Expr::And(acc, p);
  }
  return acc;
}

bool AllBound(const ClassifiedConjunct& c, const std::vector<char>& bound) {
  for (const int q : c.quantifiers) {
    if (q >= static_cast<int>(bound.size()) || !bound[q]) return false;
  }
  return !c.quantifiers.empty();
}

/// Plan-time memory estimate for a blocking operator (DESIGN.md §10):
/// estimated buffered rows × the executor's per-row charge (48 bytes per
/// value + overhead), capped by the predicted soft limit. Feeds
/// MemoryConsumer::predicted_pages (the sys.governors predicted column)
/// and EXPLAIN's mem=Np annotation — no longer the bare soft limit, so
/// the annotation distinguishes a 1-page aggregate from a spill-bound
/// join under the same governor.
uint32_t EstimateQuotaPages(const OptimizerContext& ctx, double est_rows,
                            size_t row_arity) {
  const double page_bytes =
      ctx.pool != nullptr ? static_cast<double>(ctx.pool->page_bytes())
                          : 4096.0;
  const double bytes =
      std::max(1.0, est_rows) *
      (48.0 * static_cast<double>(row_arity) + 64.0);
  const double pages = std::max(1.0, bytes / page_bytes);
  return static_cast<uint32_t>(
      std::max(1.0, std::min(ctx.predicted_soft_limit_pages, pages)));
}

}  // namespace

Optimizer::Optimizer(OptimizerContext ctx)
    : ctx_(ctx),
      estimator_(ctx.stats, ctx.catalog, ctx.index_prober),
      cost_model_(&ctx.catalog->dtt_model(), ctx.pool, ctx.index_stats,
                  ctx.cost_options) {}

bool Optimizer::QualifiesForBypass(const Query& q) {
  return q.quantifiers.size() == 1 && !q.has_grouping() &&
         q.order_by.empty() && !q.distinct;
}

PlanPtr Optimizer::BuildScanNode(
    const Query& q, const EnumerationStep& step,
    const std::vector<ClassifiedConjunct>& classified) {
  auto node = std::make_unique<PlanNode>();
  const int quant = step.quantifier;
  node->quantifier = quant;
  node->table = q.quantifiers[quant].table;
  const bool has_range =
      step.path.lo.has_value() || step.path.hi.has_value() ||
      step.path.lo_expr != nullptr || step.path.hi_expr != nullptr;
  if (step.path.index != nullptr && has_range) {
    node->kind = PlanKind::kIndexScan;
    node->index = step.path.index;
    node->index_is_virtual = step.path.is_virtual;
    node->index_lo = step.path.lo;
    node->index_hi = step.path.hi;
    node->index_lo_expr = step.path.lo_expr;
    node->index_hi_expr = step.path.hi_expr;
    node->index_lo_inclusive = step.path.lo_inclusive;
    node->index_hi_inclusive = step.path.hi_inclusive;
  } else {
    node->kind = PlanKind::kSeqScan;
  }
  // Residual: every local predicate, including the index condition — index
  // keys are order-preserving hashes, so matches must be re-verified.
  std::vector<ExprPtr> locals;
  for (const ClassifiedConjunct& c : classified) {
    if (!c.is_equijoin && c.quantifiers.size() == 1 &&
        c.quantifiers[0] == quant) {
      locals.push_back(c.expr);
    }
  }
  node->residual = Conjoin(locals);
  node->est_rows = step.rows_after;
  node->est_cost = step.path.cost;
  return node;
}

void Optimizer::AnnotateHashJoinAlternate(const Query& q, PlanNode* join,
                                          int outer_quantifier,
                                          int outer_column,
                                          double est_build_rows,
                                          double probe_rows) {
  const catalog::TableDef& outer_table = *q.quantifiers[outer_quantifier].table;
  for (catalog::IndexDef* idx : ctx_.catalog->TableIndexes(outer_table.oid)) {
    if (idx->column_indexes.empty() ||
        idx->column_indexes[0] != outer_column) {
      continue;
    }
    // Cost of probing the outer's index once, with an average number of
    // matches per key.
    const double rows_per_probe = std::max(
        1.0, static_cast<double>(outer_table.row_count) /
                 std::max(1.0, est_build_rows * 4));
    const double one_probe = cost_model_.IndexProbeCost(
        outer_table, idx->oid, 1.0, rows_per_probe,
        ctx_.predicted_soft_limit_pages);
    const double hash_side =
        cost_model_.SeqScanCost(outer_table, 1.0) +
        probe_rows * cost_model_.options().cpu_hash_us;
    join->alt_index_nl = true;
    join->alt_index = idx;
    join->alt_switch_threshold_rows =
        one_probe > 0 ? hash_side / one_probe : 0;
    return;
  }
}

Result<PlanPtr> Optimizer::BuildPlanFromSteps(
    const Query& q, const EnumerationResult& enumeration) {
  const auto classified = estimator_.Classify(q);
  std::vector<char> bound(q.quantifiers.size(), 0);
  std::vector<char> conjunct_applied(classified.size(), 0);

  // Mark single-quantifier conjuncts applied: scans carry them.
  for (size_t i = 0; i < classified.size(); ++i) {
    if (!classified[i].is_equijoin && classified[i].quantifiers.size() == 1) {
      conjunct_applied[i] = 1;
    }
  }

  PlanPtr current;
  for (size_t si = 0; si < enumeration.steps.size(); ++si) {
    const EnumerationStep& step = enumeration.steps[si];
    const int quant = step.quantifier;
    const catalog::TableDef& t = *q.quantifiers[quant].table;
    PlanPtr scan = BuildScanNode(q, step, classified);

    if (si == 0) {
      current = std::move(scan);
      bound[quant] = 1;
      continue;
    }

    auto join = std::make_unique<PlanNode>();
    join->est_rows = step.rows_after;
    join->est_cost = step.cost_after;
    join->quantifier = quant;
    join->table = &t;

    const JoinEdge* key = step.key_edge >= 0
                              ? &enumeration.edges[step.key_edge]
                              : nullptr;
    // Orient the key: "outer" is the already-bound side.
    int outer_q = -1, outer_c = -1, inner_c = -1;
    if (key != nullptr) {
      if (key->qa == quant) {
        outer_q = key->qb;
        outer_c = key->cb;
        inner_c = key->ca;
      } else {
        outer_q = key->qa;
        outer_c = key->ca;
        inner_c = key->cb;
      }
    }

    switch (step.method) {
      case JoinMethod::kHash: {
        join->kind = PlanKind::kHashJoin;
        join->outer_key = Expr::Column(
            outer_q, outer_c,
            q.quantifiers[outer_q].table->columns[outer_c].type,
            q.quantifiers[outer_q].table->columns[outer_c].name);
        join->inner_key =
            Expr::Column(quant, inner_c, t.columns[inner_c].type,
                         t.columns[inner_c].name);
        // The join buffers its build side: the inner scan's output.
        join->memory_quota_pages =
            EstimateQuotaPages(ctx_, scan->est_rows, t.columns.size());
        // The alternate index-NL strategy applies when the probe side is a
        // single base table with an index on the join column (paper §4.3).
        if (si == 1) {
          AnnotateHashJoinAlternate(q, join.get(), outer_q, outer_c,
                                    step.rows_after, step.rows_after);
        }
        join->children.push_back(std::move(current));  // probe / outer
        join->children.push_back(std::move(scan));     // build / inner
        break;
      }
      case JoinMethod::kIndexNL: {
        join->kind = PlanKind::kIndexNLJoin;
        join->index = step.path.index;
        join->index_is_virtual = step.path.is_virtual;
        join->outer_key = Expr::Column(
            outer_q, outer_c,
            q.quantifiers[outer_q].table->columns[outer_c].type,
            q.quantifiers[outer_q].table->columns[outer_c].name);
        join->inner_key =
            Expr::Column(quant, inner_c, t.columns[inner_c].type,
                         t.columns[inner_c].name);
        // Residual: local predicates plus the equi condition itself (the
        // probe is on hash codes; re-verify on values).
        join->residual = scan->residual;
        if (key != nullptr) {
          join->residual = join->residual == nullptr
                               ? key->expr
                               : Expr::And(join->residual, key->expr);
        }
        join->children.push_back(std::move(current));
        break;
      }
      case JoinMethod::kNL:
      case JoinMethod::kFirst: {
        join->kind = PlanKind::kNLJoin;
        join->children.push_back(std::move(current));
        join->children.push_back(std::move(scan));
        break;
      }
    }

    bound[quant] = 1;
    // Mark the key conjunct applied where the join method itself enforces
    // it: hash joins match on Values (exact) and index-NL rechecks via the
    // residual above. Plain NL joins evaluate it as an extra condition.
    if (key != nullptr && step.method != JoinMethod::kNL) {
      for (size_t i = 0; i < classified.size(); ++i) {
        if (classified[i].expr == key->expr) conjunct_applied[i] = 1;
      }
    }
    // Any other conjunct that just became fully bound attaches here.
    std::vector<ExprPtr> extras;
    for (size_t i = 0; i < classified.size(); ++i) {
      if (!conjunct_applied[i] && AllBound(classified[i], bound)) {
        extras.push_back(classified[i].expr);
        conjunct_applied[i] = 1;
      }
    }
    join->extra_condition = Conjoin(extras);
    current = std::move(join);
  }

  // Safety net: conjuncts that never became bound (shouldn't happen).
  std::vector<ExprPtr> leftovers;
  for (size_t i = 0; i < classified.size(); ++i) {
    if (!conjunct_applied[i]) leftovers.push_back(classified[i].expr);
  }
  if (!leftovers.empty()) {
    auto filter = std::make_unique<PlanNode>();
    filter->kind = PlanKind::kFilter;
    filter->residual = Conjoin(leftovers);
    filter->est_rows = current->est_rows;
    filter->est_cost = current->est_cost;
    filter->children.push_back(std::move(current));
    current = std::move(filter);
  }

  AddPostJoinNodes(q, &current);
  return current;
}

void Optimizer::AddPostJoinNodes(const Query& q, PlanPtr* root) {
  if (q.has_grouping()) {
    auto gb = std::make_unique<PlanNode>();
    gb->kind = PlanKind::kHashGroupBy;
    gb->group_keys = q.group_by;
    gb->aggregates = q.aggregates;
    gb->having = q.having;
    gb->est_rows = std::max(1.0, (*root)->est_rows / 10.0);
    // One group entry per output row: keys plus one agg state each.
    gb->memory_quota_pages = EstimateQuotaPages(
        ctx_, gb->est_rows, q.group_by.size() + q.aggregates.size());
    gb->est_cost = (*root)->est_cost;
    gb->children.push_back(std::move(*root));
    *root = std::move(gb);
  }
  if (!q.order_by.empty()) {
    auto sort = std::make_unique<PlanNode>();
    sort->kind = PlanKind::kSort;
    sort->order = q.order_by;
    // The sort buffers whole flattened rows: every bound table's width.
    size_t sort_arity = q.order_by.size();
    for (const auto& quant : q.quantifiers) {
      if (quant.table != nullptr) sort_arity += quant.table->columns.size();
    }
    // A LIMIT directly above the ORDER BY (Project in between is 1:1; a
    // DISTINCT is not) makes this a top-N sort: it keeps and emits at
    // most `limit` rows, and is sized for them.
    sort->est_rows = (*root)->est_rows;
    if (q.limit >= 0 && !q.distinct) {
      sort->limit = q.limit;
      sort->est_rows =
          std::min(sort->est_rows, static_cast<double>(q.limit));
    }
    sort->memory_quota_pages =
        EstimateQuotaPages(ctx_, sort->est_rows, sort_arity);
    sort->est_cost = (*root)->est_cost;
    sort->children.push_back(std::move(*root));
    *root = std::move(sort);
  }
  {
    auto proj = std::make_unique<PlanNode>();
    proj->kind = PlanKind::kProject;
    proj->projections = q.select;
    proj->est_rows = (*root)->est_rows;
    proj->est_cost = (*root)->est_cost;
    proj->children.push_back(std::move(*root));
    *root = std::move(proj);
  }
  if (q.distinct) {
    auto d = std::make_unique<PlanNode>();
    d->kind = PlanKind::kHashDistinct;
    // Distinct runs above the projection: it keys on the select list.
    d->memory_quota_pages =
        EstimateQuotaPages(ctx_, (*root)->est_rows, q.select.size());
    d->est_rows = (*root)->est_rows;
    d->est_cost = (*root)->est_cost;
    d->children.push_back(std::move(*root));
    *root = std::move(d);
  }
  if (q.limit >= 0) {
    auto l = std::make_unique<PlanNode>();
    l->kind = PlanKind::kLimit;
    l->limit = q.limit;
    l->est_rows = std::min<double>((*root)->est_rows,
                                   static_cast<double>(q.limit));
    l->est_cost = (*root)->est_cost;
    l->children.push_back(std::move(*root));
    *root = std::move(l);
  }
}

Result<PlanPtr> Optimizer::BuildBypassPlan(const Query& q) {
  if (q.quantifiers.size() != 1) {
    return Status::InvalidArgument("bypass plan needs exactly one table");
  }
  const catalog::TableDef& t = *q.quantifiers[0].table;
  const auto classified = estimator_.Classify(q);

  // Heuristic: first indexable predicate with a matching index wins; no
  // costing at all (paper §4.1).
  PlanPtr scan = std::make_unique<PlanNode>();
  scan->kind = PlanKind::kSeqScan;
  scan->quantifier = 0;
  scan->table = &t;
  for (const ClassifiedConjunct& c : classified) {
    if (c.is_equijoin) continue;
    const auto range = estimator_.AsIndexRange(q, c.expr);
    if (!range.has_value()) continue;
    for (catalog::IndexDef* idx : ctx_.catalog->TableIndexes(t.oid)) {
      if (!idx->column_indexes.empty() &&
          idx->column_indexes[0] == range->column) {
        scan->kind = PlanKind::kIndexScan;
        scan->index = idx;
        scan->index_lo = range->lo;
        scan->index_hi = range->hi;
        scan->index_lo_expr = range->lo_expr;
        scan->index_hi_expr = range->hi_expr;
        scan->index_lo_inclusive = range->lo_inclusive;
        scan->index_hi_inclusive = range->hi_inclusive;
        break;
      }
    }
    if (scan->kind == PlanKind::kIndexScan) break;
  }
  std::vector<ExprPtr> locals;
  for (const ClassifiedConjunct& c : classified) locals.push_back(c.expr);
  scan->residual = Conjoin(locals);
  scan->est_rows = static_cast<double>(t.row_count);
  AddPostJoinNodes(q, &scan);
  return scan;
}

Result<PlanPtr> Optimizer::Optimize(const Query& q, bool allow_bypass,
                                    OptimizeDiagnostics* diag) {
  if (allow_bypass && QualifiesForBypass(q)) {
    if (diag != nullptr) diag->bypassed = true;
    HDB_ASSIGN_OR_RETURN(PlanPtr plan, BuildBypassPlan(q));
    MarkParallelFragments(plan.get());
    return plan;
  }
  EnumeratorOptions opts;
  opts.governor = ctx_.governor;
  opts.arena_budget_bytes = ctx_.arena_budget_bytes;
  opts.use_virtual_indexes = ctx_.use_virtual_indexes;
  opts.invert_promise_order = ctx_.invert_promise_order;
  JoinEnumerator enumerator(q, &estimator_, &cost_model_, ctx_.catalog,
                            ctx_.pool, ctx_.virtual_indexes, opts);
  HDB_ASSIGN_OR_RETURN(EnumerationResult result, enumerator.Run());
  if (diag != nullptr) diag->enumeration = result;
  HDB_ASSIGN_OR_RETURN(PlanPtr plan, BuildPlanFromSteps(q, result));
  MarkParallelFragments(plan.get());
  return plan;
}

namespace {

/// Walks a {Filter, Project}* chain down to its scan; returns it when the
/// chain is exchange-runnable: a plain SeqScan over a real (non-virtual)
/// base table, so workers can share one FCFS morsel dispenser.
const PlanNode* EligibleFragmentScan(const PlanNode* n) {
  while (n->kind == PlanKind::kFilter || n->kind == PlanKind::kProject) {
    if (n->children.size() != 1) return nullptr;
    n = n->children[0].get();
  }
  if (n->kind != PlanKind::kSeqScan) return nullptr;
  if (n->table == nullptr || n->table->is_virtual) return nullptr;
  return n;
}

bool FragmentHasProjection(const PlanNode* n) {
  for (;;) {
    switch (n->kind) {
      case PlanKind::kProject:
        return true;
      case PlanKind::kFilter:
        n = n->children[0].get();
        break;
      default:
        return false;
    }
  }
}

}  // namespace

int Optimizer::SeedWorkers(double scan_rows) const {
  if (scan_rows < ctx_.parallel_min_table_rows) return 1;
  const double per = std::max(1.0, ctx_.parallel_rows_per_worker);
  const int w = static_cast<int>(std::ceil(scan_rows / per));
  return std::clamp(w, 1, ctx_.parallel_max_workers);
}

void Optimizer::MarkParallelFragments(PlanNode* root) {
  if (ctx_.parallel_max_workers <= 1 || root == nullptr) return;
  MarkParallelNode(root, /*under_limit=*/false);
}

/// Seeds parallel_workers on the topmost exchange-capable nodes. The
/// worker count is driven by the scanned tables' cardinalities — that is
/// what the dispenser dispenses, regardless of predicate selectivity.
/// `under_limit` tracks a LIMIT above us with no intervening Sort:
/// exchange packet order is nondeterministic, so parallelizing there
/// would change *which* rows a LIMIT keeps, not just their order (a Sort
/// or a group-by in between restores determinism — both emit in an order
/// independent of arrival). NL-join inner sides are never descended
/// into: they re-Open per outer row, which would relaunch a worker crew
/// each time.
void Optimizer::MarkParallelNode(PlanNode* n, bool under_limit) {
  switch (n->kind) {
    case PlanKind::kLimit:
      MarkParallelNode(n->children[0].get(), true);
      return;
    case PlanKind::kSort:
      MarkParallelNode(n->children[0].get(), false);
      return;
    case PlanKind::kNLJoin:
    case PlanKind::kIndexNLJoin:
      MarkParallelNode(n->children[0].get(), under_limit);
      return;
    case PlanKind::kHashJoin: {
      const PlanNode* outer = EligibleFragmentScan(n->children[0].get());
      const PlanNode* inner = EligibleFragmentScan(n->children[1].get());
      // alt_index_nl joins stay serial: the build-side cardinality check
      // and index-NL switchover are serial-operator machinery.
      if (!under_limit && outer != nullptr && inner != nullptr &&
          !n->alt_index_nl) {
        const double rows = std::max(
            static_cast<double>(outer->table->row_count),
            static_cast<double>(inner->table->row_count));
        const int w = SeedWorkers(rows);
        if (w > 1) {
          n->parallel_workers = w;
          return;
        }
      }
      MarkParallelNode(n->children[0].get(), under_limit);
      MarkParallelNode(n->children[1].get(), under_limit);
      return;
    }
    case PlanKind::kHashGroupBy: {
      // Parallel pre-aggregation emits in encoded-key order — the same
      // order as the serial operator — so a LIMIT above is still
      // deterministic and under_limit does not block marking.
      const PlanNode* scan = EligibleFragmentScan(n->children[0].get());
      if (scan != nullptr) {
        const int w =
            SeedWorkers(static_cast<double>(scan->table->row_count));
        if (w > 1) {
          n->parallel_workers = w;
          return;
        }
      }
      MarkParallelNode(n->children[0].get(), under_limit);
      return;
    }
    case PlanKind::kHashDistinct: {
      // Needs the fragment's projected output as the dedup key; emission
      // order differs from the serial arrival order, so not under LIMIT.
      const PlanNode* scan = EligibleFragmentScan(n->children[0].get());
      if (!under_limit && scan != nullptr &&
          FragmentHasProjection(n->children[0].get())) {
        const int w =
            SeedWorkers(static_cast<double>(scan->table->row_count));
        if (w > 1) {
          n->parallel_workers = w;
          return;
        }
      }
      MarkParallelNode(n->children[0].get(), under_limit);
      return;
    }
    default: {
      const PlanNode* scan = EligibleFragmentScan(n);
      if (scan != nullptr) {
        // This whole subtree is one fragment; either it parallelizes as a
        // unit or it stays serial — nothing below to mark separately.
        if (!under_limit) {
          const int w =
              SeedWorkers(static_cast<double>(scan->table->row_count));
          if (w > 1) n->parallel_workers = w;
        }
        return;
      }
      for (auto& c : n->children) MarkParallelNode(c.get(), under_limit);
      return;
    }
  }
}

}  // namespace hdb::optimizer
