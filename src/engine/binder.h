#ifndef HDB_ENGINE_BINDER_H_
#define HDB_ENGINE_BINDER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "engine/parser.h"
#include "optimizer/query.h"
#include "table/row_codec.h"

namespace hdb::engine {

struct BoundInsert {
  catalog::TableDef* table = nullptr;
  std::vector<table::Row> rows;
};

struct BoundUpdate {
  catalog::TableDef* table = nullptr;
  std::vector<std::pair<int, optimizer::ExprPtr>> sets;
  optimizer::Query scan;  // single-quantifier query selecting victim rows
};

struct BoundDelete {
  catalog::TableDef* table = nullptr;
  optimizer::Query scan;
};

/// Coerces a literal/computed value to a column type (e.g. BIGINT literal
/// into an INT column). Returns InvalidArgument on impossible coercions.
Result<Value> CoerceValue(const Value& v, TypeId target);

/// The value bound to one placeholder node (`?` by position, `:name` by
/// name); InvalidArgument when `params` holds none for it.
Result<Value> ParamValue(const AstExpr& placeholder,
                         const optimizer::ParamBindings* params);

/// Name resolution and semantic analysis: parse trees in, optimizer
/// Queries out. When the query groups, select/having/order expressions are
/// rewritten over the grouped-output pseudo-quantifier (see
/// optimizer/query.h).
///
/// With `params`, every placeholder folds to its value as a literal, so the
/// optimizer sees real constants (paper §3). Without, `:name` placeholders
/// stay symbolic for a cached procedure plan (§4.1) and bind at execution
/// through RowContext::params.
class Binder {
 public:
  explicit Binder(catalog::Catalog* catalog,
                  const optimizer::ParamBindings* params = nullptr)
      : catalog_(catalog), params_(params) {}

  Result<optimizer::Query> BindSelect(const SelectAst& ast);
  Result<BoundInsert> BindInsert(const InsertAst& ast);
  Result<BoundUpdate> BindUpdate(const UpdateAst& ast);
  Result<BoundDelete> BindDelete(const DeleteAst& ast);

 private:
  struct Scope {
    std::vector<optimizer::Quantifier> quantifiers;
  };

  Result<optimizer::ExprPtr> BindExpr(const AstExprPtr& ast,
                                      const Scope& scope,
                                      optimizer::Query* query_for_aggs);
  Result<optimizer::ExprPtr> ResolveColumn(const AstExpr& ast,
                                           const Scope& scope);
  /// Replaces subtrees equal to a group key with group-output references.
  static optimizer::ExprPtr ReplaceGroupKeys(
      const optimizer::ExprPtr& e, const std::vector<std::string>& key_strs,
      int group_quantifier);

  catalog::Catalog* catalog_;
  const optimizer::ParamBindings* params_;
};

}  // namespace hdb::engine

#endif  // HDB_ENGINE_BINDER_H_
