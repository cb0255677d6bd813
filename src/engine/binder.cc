#include "engine/binder.h"

#include <algorithm>

namespace hdb::engine {

using optimizer::AggKind;
using optimizer::AggSpec;
using optimizer::Expr;
using optimizer::ExprPtr;
using optimizer::Query;
using optimizer::SelectItem;

Result<Value> CoerceValue(const Value& v, TypeId target) {
  if (v.is_null()) return Value::Null(target);
  if (v.type() == target) return v;
  switch (target) {
    case TypeId::kInt:
      if (v.type() == TypeId::kBigint) {
        return Value::Int(static_cast<int32_t>(v.AsInt()));
      }
      if (v.type() == TypeId::kDouble) {
        return Value::Int(static_cast<int32_t>(v.AsDouble()));
      }
      break;
    case TypeId::kBigint:
      if (v.type() == TypeId::kInt) return Value::Bigint(v.AsInt());
      if (v.type() == TypeId::kDouble) {
        return Value::Bigint(static_cast<int64_t>(v.AsDouble()));
      }
      break;
    case TypeId::kDouble:
      if (v.type() == TypeId::kInt || v.type() == TypeId::kBigint) {
        return Value::Double(static_cast<double>(v.AsInt()));
      }
      break;
    case TypeId::kDate:
      if (v.type() == TypeId::kInt || v.type() == TypeId::kBigint) {
        return Value::Date(v.AsInt());
      }
      break;
    case TypeId::kTimestamp:
      if (v.type() == TypeId::kInt || v.type() == TypeId::kBigint) {
        return Value::Timestamp(v.AsInt());
      }
      break;
    case TypeId::kBoolean:
      if (v.type() == TypeId::kInt || v.type() == TypeId::kBigint) {
        return Value::Boolean(v.AsInt() != 0);
      }
      break;
    case TypeId::kVarchar:
      break;
  }
  return Status::InvalidArgument("cannot coerce " +
                                 std::string(TypeName(v.type())) + " to " +
                                 std::string(TypeName(target)));
}

Result<Value> ParamValue(const AstExpr& placeholder,
                         const optimizer::ParamBindings* params) {
  if (params != nullptr) {
    if (placeholder.ordinal < 0) {
      for (const auto& [name, value] : *params) {
        if (name == placeholder.column) return value;
      }
    } else if (static_cast<size_t>(placeholder.ordinal) < params->size()) {
      return (*params)[placeholder.ordinal].second;
    }
  }
  return Status::InvalidArgument(
      placeholder.ordinal < 0
          ? "unbound parameter :" + placeholder.column
          : "unbound parameter ?" + std::to_string(placeholder.ordinal + 1));
}

Result<ExprPtr> Binder::ResolveColumn(const AstExpr& ast,
                                      const Scope& scope) {
  int found_q = -1, found_c = -1;
  TypeId type = TypeId::kInt;
  std::string display;
  for (size_t q = 0; q < scope.quantifiers.size(); ++q) {
    const auto& quant = scope.quantifiers[q];
    if (!ast.table.empty() && quant.alias != ast.table &&
        quant.table->name != ast.table) {
      continue;
    }
    const int c = quant.table->ColumnIndex(ast.column);
    if (c < 0) continue;
    if (found_q >= 0) {
      return Status::InvalidArgument("ambiguous column " + ast.column);
    }
    found_q = static_cast<int>(q);
    found_c = c;
    type = quant.table->columns[c].type;
    display = quant.alias + "." + ast.column;
  }
  if (found_q < 0) {
    return Status::NotFound("column " + ast.column);
  }
  return Expr::Column(found_q, found_c, type, display);
}

Result<ExprPtr> Binder::BindExpr(const AstExprPtr& ast, const Scope& scope,
                                 Query* query_for_aggs) {
  switch (ast->kind) {
    case AstExpr::kLiteral:
      return Expr::Literal(ast->literal);
    case AstExpr::kParam: {
      if (params_ == nullptr && ast->ordinal < 0) {
        return Expr::Param(ast->column);
      }
      HDB_ASSIGN_OR_RETURN(Value v, ParamValue(*ast, params_));
      return Expr::Literal(std::move(v));
    }
    case AstExpr::kColumn:
      return ResolveColumn(*ast, scope);
    case AstExpr::kCompare: {
      HDB_ASSIGN_OR_RETURN(ExprPtr l,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      HDB_ASSIGN_OR_RETURN(ExprPtr r,
                           BindExpr(ast->children[1], scope, query_for_aggs));
      return Expr::Compare(ast->cmp, std::move(l), std::move(r));
    }
    case AstExpr::kAnd: {
      HDB_ASSIGN_OR_RETURN(ExprPtr l,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      HDB_ASSIGN_OR_RETURN(ExprPtr r,
                           BindExpr(ast->children[1], scope, query_for_aggs));
      return Expr::And(std::move(l), std::move(r));
    }
    case AstExpr::kOr: {
      HDB_ASSIGN_OR_RETURN(ExprPtr l,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      HDB_ASSIGN_OR_RETURN(ExprPtr r,
                           BindExpr(ast->children[1], scope, query_for_aggs));
      return Expr::Or(std::move(l), std::move(r));
    }
    case AstExpr::kNot: {
      HDB_ASSIGN_OR_RETURN(ExprPtr c,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      return Expr::Not(std::move(c));
    }
    case AstExpr::kIsNull: {
      HDB_ASSIGN_OR_RETURN(ExprPtr c,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      return Expr::IsNull(std::move(c), ast->negated);
    }
    case AstExpr::kBetween: {
      HDB_ASSIGN_OR_RETURN(ExprPtr v,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      HDB_ASSIGN_OR_RETURN(ExprPtr lo,
                           BindExpr(ast->children[1], scope, query_for_aggs));
      HDB_ASSIGN_OR_RETURN(ExprPtr hi,
                           BindExpr(ast->children[2], scope, query_for_aggs));
      return Expr::Between(std::move(v), std::move(lo), std::move(hi));
    }
    case AstExpr::kLike: {
      HDB_ASSIGN_OR_RETURN(ExprPtr v,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      return Expr::Like(std::move(v), ast->pattern);
    }
    case AstExpr::kInList: {
      HDB_ASSIGN_OR_RETURN(ExprPtr v,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      std::vector<ExprPtr> items;
      for (size_t i = 1; i < ast->children.size(); ++i) {
        HDB_ASSIGN_OR_RETURN(
            ExprPtr item, BindExpr(ast->children[i], scope, query_for_aggs));
        items.push_back(std::move(item));
      }
      return Expr::InList(std::move(v), std::move(items));
    }
    case AstExpr::kArith: {
      HDB_ASSIGN_OR_RETURN(ExprPtr l,
                           BindExpr(ast->children[0], scope, query_for_aggs));
      HDB_ASSIGN_OR_RETURN(ExprPtr r,
                           BindExpr(ast->children[1], scope, query_for_aggs));
      return Expr::Arith(ast->arith, std::move(l), std::move(r));
    }
    case AstExpr::kAggregate: {
      if (query_for_aggs == nullptr) {
        return Status::InvalidArgument("aggregate not allowed here");
      }
      AggSpec spec;
      spec.kind = ast->agg;
      if (!ast->children.empty()) {
        HDB_ASSIGN_OR_RETURN(
            spec.arg, BindExpr(ast->children[0], scope, nullptr));
      }
      // Dedupe identical aggregates.
      const std::string repr =
          std::to_string(static_cast<int>(spec.kind)) +
          (spec.arg != nullptr ? spec.arg->ToString() : "*");
      int idx = -1;
      for (size_t i = 0; i < query_for_aggs->aggregates.size(); ++i) {
        const auto& a = query_for_aggs->aggregates[i];
        const std::string other =
            std::to_string(static_cast<int>(a.kind)) +
            (a.arg != nullptr ? a.arg->ToString() : "*");
        if (other == repr) {
          idx = static_cast<int>(i);
          break;
        }
      }
      if (idx < 0) {
        idx = static_cast<int>(query_for_aggs->aggregates.size());
        spec.name = repr;
        query_for_aggs->aggregates.push_back(spec);
      }
      TypeId out_type = TypeId::kDouble;
      if (spec.kind == AggKind::kCount || spec.kind == AggKind::kCountStar) {
        out_type = TypeId::kBigint;
      } else if ((spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) &&
                 spec.arg != nullptr) {
        out_type = spec.arg->type();
      }
      const int col = static_cast<int>(query_for_aggs->group_by.size()) + idx;
      return Expr::Column(query_for_aggs->group_quantifier(), col, out_type,
                          "agg" + std::to_string(idx));
    }
    case AstExpr::kStar:
      return Status::InvalidArgument("'*' not allowed here");
  }
  return Status::Internal("unhandled AST node");
}

ExprPtr Binder::ReplaceGroupKeys(const ExprPtr& e,
                                 const std::vector<std::string>& key_strs,
                                 int group_quantifier) {
  if (e == nullptr) return nullptr;
  // Already a group-output reference (an aggregate rewritten by BindExpr)?
  if (e->kind() == optimizer::ExprKind::kColumnRef &&
      e->quantifier() == group_quantifier) {
    return e;
  }
  const std::string repr = e->ToString();
  for (size_t i = 0; i < key_strs.size(); ++i) {
    if (repr == key_strs[i]) {
      return Expr::Column(group_quantifier, static_cast<int>(i), e->type(),
                          repr);
    }
  }
  if (e->children().empty()) return e;
  // Rebuild with rewritten children.
  std::vector<ExprPtr> kids;
  bool changed = false;
  for (const ExprPtr& c : e->children()) {
    ExprPtr nc = ReplaceGroupKeys(c, key_strs, group_quantifier);
    changed = changed || nc != c;
    kids.push_back(std::move(nc));
  }
  if (!changed) return e;
  switch (e->kind()) {
    case optimizer::ExprKind::kCompare:
      return Expr::Compare(e->compare_op(), kids[0], kids[1]);
    case optimizer::ExprKind::kAnd:
      return Expr::And(kids[0], kids[1]);
    case optimizer::ExprKind::kOr:
      return Expr::Or(kids[0], kids[1]);
    case optimizer::ExprKind::kNot:
      return Expr::Not(kids[0]);
    case optimizer::ExprKind::kIsNull:
      return Expr::IsNull(kids[0], e->negated());
    case optimizer::ExprKind::kBetween:
      return Expr::Between(kids[0], kids[1], kids[2]);
    case optimizer::ExprKind::kLike:
      return Expr::Like(kids[0], e->pattern());
    case optimizer::ExprKind::kInList: {
      std::vector<ExprPtr> rest(kids.begin() + 1, kids.end());
      return Expr::InList(kids[0], std::move(rest));
    }
    case optimizer::ExprKind::kArith:
      return Expr::Arith(e->arith_op(), kids[0], kids[1]);
    default:
      return e;
  }
}

Result<Query> Binder::BindSelect(const SelectAst& ast) {
  Query q;
  Scope scope;
  for (const TableRef& tr : ast.from) {
    HDB_ASSIGN_OR_RETURN(catalog::TableDef * def,
                         catalog_->GetTable(tr.table));
    optimizer::Quantifier quant;
    quant.table = def;
    quant.alias = tr.alias;
    scope.quantifiers.push_back(quant);
  }
  q.quantifiers = scope.quantifiers;

  if (ast.where != nullptr) {
    HDB_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(ast.where, scope, nullptr));
    optimizer::SplitConjuncts(where, &q.conjuncts);
  }

  // GROUP BY keys bind first so select/having can be rewritten over them.
  std::vector<std::string> key_strs;
  for (const AstExprPtr& g : ast.group_by) {
    HDB_ASSIGN_OR_RETURN(ExprPtr key, BindExpr(g, scope, nullptr));
    key_strs.push_back(key->ToString());
    q.group_by.push_back(std::move(key));
  }

  q.distinct = ast.distinct;
  q.limit = ast.limit;

  // Select list.
  for (const SelectAst::Item& item : ast.items) {
    if (item.star) {
      if (!ast.group_by.empty()) {
        return Status::InvalidArgument("SELECT * with GROUP BY");
      }
      for (size_t qi = 0; qi < scope.quantifiers.size(); ++qi) {
        const auto& quant = scope.quantifiers[qi];
        for (size_t c = 0; c < quant.table->columns.size(); ++c) {
          SelectItem si;
          si.expr = Expr::Column(static_cast<int>(qi), static_cast<int>(c),
                                 quant.table->columns[c].type,
                                 quant.table->columns[c].name);
          si.name = quant.table->columns[c].name;
          q.select.push_back(std::move(si));
        }
      }
      continue;
    }
    SelectItem si;
    HDB_ASSIGN_OR_RETURN(si.expr, BindExpr(item.expr, scope, &q));
    if (!item.alias.empty()) {
      si.name = item.alias;
    } else if (item.expr->kind == AstExpr::kColumn) {
      si.name = item.expr->column;  // bare column name, unqualified
    } else {
      si.name = si.expr->ToString();
    }
    q.select.push_back(std::move(si));
  }

  if (ast.having != nullptr) {
    HDB_ASSIGN_OR_RETURN(q.having, BindExpr(ast.having, scope, &q));
  }
  for (const SelectAst::Order& o : ast.order_by) {
    optimizer::OrderItem oi;
    HDB_ASSIGN_OR_RETURN(oi.expr, BindExpr(o.expr, scope, &q));
    oi.ascending = o.ascending;
    q.order_by.push_back(std::move(oi));
  }

  // With grouping, rewrite select/having/order over the grouped output.
  if (q.has_grouping()) {
    const int gq = q.group_quantifier();
    for (SelectItem& si : q.select) {
      si.expr = ReplaceGroupKeys(si.expr, key_strs, gq);
      // Validate: no base-column references may survive.
      std::vector<bool> mask;
      si.expr->CollectQuantifiers(&mask);
      for (size_t i = 0; i < mask.size() && i < q.quantifiers.size(); ++i) {
        if (mask[i]) {
          return Status::InvalidArgument(
              "select item references a column outside GROUP BY: " +
              si.expr->ToString());
        }
      }
    }
    if (q.having != nullptr) {
      q.having = ReplaceGroupKeys(q.having, key_strs, gq);
    }
    for (optimizer::OrderItem& oi : q.order_by) {
      oi.expr = ReplaceGroupKeys(oi.expr, key_strs, gq);
    }
  }
  return q;
}

Result<BoundInsert> Binder::BindInsert(const InsertAst& ast) {
  BoundInsert out;
  HDB_ASSIGN_OR_RETURN(out.table, catalog_->GetTable(ast.table));
  if (out.table->is_virtual) {
    return Status::InvalidArgument("cannot INSERT into virtual table " +
                                   ast.table);
  }
  const size_t ncols = out.table->columns.size();

  std::vector<int> targets;
  if (ast.columns.empty()) {
    for (size_t i = 0; i < ncols; ++i) targets.push_back(static_cast<int>(i));
  } else {
    for (const std::string& name : ast.columns) {
      const int c = out.table->ColumnIndex(name);
      if (c < 0) return Status::NotFound("column " + name);
      targets.push_back(c);
    }
  }

  Scope empty;
  for (const auto& row_ast : ast.rows) {
    if (row_ast.size() != targets.size()) {
      return Status::InvalidArgument("INSERT arity mismatch");
    }
    table::Row row(ncols, Value::Null());
    for (size_t i = 0; i < ncols; ++i) {
      row[i] = Value::Null(out.table->columns[i].type);
    }
    for (size_t i = 0; i < targets.size(); ++i) {
      HDB_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(row_ast[i], empty, nullptr));
      optimizer::RowContext ctx;
      HDB_ASSIGN_OR_RETURN(const Value v, e->Evaluate(ctx));
      HDB_ASSIGN_OR_RETURN(
          row[targets[i]],
          CoerceValue(v, out.table->columns[targets[i]].type));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<BoundUpdate> Binder::BindUpdate(const UpdateAst& ast) {
  BoundUpdate out;
  HDB_ASSIGN_OR_RETURN(out.table, catalog_->GetTable(ast.table));
  if (out.table->is_virtual) {
    return Status::InvalidArgument("cannot UPDATE virtual table " + ast.table);
  }
  Scope scope;
  optimizer::Quantifier quant;
  quant.table = out.table;
  quant.alias = ast.table;
  scope.quantifiers.push_back(quant);
  out.scan.quantifiers = scope.quantifiers;
  for (const auto& [col_name, expr_ast] : ast.sets) {
    const int c = out.table->ColumnIndex(col_name);
    if (c < 0) return Status::NotFound("column " + col_name);
    HDB_ASSIGN_OR_RETURN(ExprPtr e, BindExpr(expr_ast, scope, nullptr));
    out.sets.emplace_back(c, std::move(e));
  }
  if (ast.where != nullptr) {
    HDB_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(ast.where, scope, nullptr));
    optimizer::SplitConjuncts(where, &out.scan.conjuncts);
  }
  return out;
}

Result<BoundDelete> Binder::BindDelete(const DeleteAst& ast) {
  BoundDelete out;
  HDB_ASSIGN_OR_RETURN(out.table, catalog_->GetTable(ast.table));
  if (out.table->is_virtual) {
    return Status::InvalidArgument("cannot DELETE from virtual table " +
                                   ast.table);
  }
  Scope scope;
  optimizer::Quantifier quant;
  quant.table = out.table;
  quant.alias = ast.table;
  scope.quantifiers.push_back(quant);
  out.scan.quantifiers = scope.quantifiers;
  if (ast.where != nullptr) {
    HDB_ASSIGN_OR_RETURN(ExprPtr where, BindExpr(ast.where, scope, nullptr));
    optimizer::SplitConjuncts(where, &out.scan.conjuncts);
  }
  return out;
}

}  // namespace hdb::engine
