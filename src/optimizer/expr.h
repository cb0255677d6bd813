#ifndef HDB_OPTIMIZER_EXPR_H_
#define HDB_OPTIMIZER_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace hdb::optimizer {

enum class ExprKind : uint8_t {
  kLiteral,
  kColumnRef,
  kParam,       // :name placeholder of a cached procedure plan
  kCompare,     // =, <>, <, <=, >, >=
  kAnd,
  kOr,
  kNot,
  kIsNull,      // IS [NOT] NULL via negated_
  kBetween,     // child0 BETWEEN child1 AND child2
  kLike,        // child0 LIKE literal pattern
  kInList,      // child0 IN (literals...)
  kArith,       // +, -, *, /
};

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// The values a statement's placeholders take: one (name, value) per
/// procedure :name parameter, or one per positional '?' in order (names
/// empty).
using ParamBindings = std::vector<std::pair<std::string, Value>>;

/// A row context for evaluation: one row slot per quantifier; each slot is
/// the decoded base-table row. ColumnRefs address (quantifier, column).
struct RowContext {
  /// rows[q] may be null while q is not yet bound (e.g. probing).
  std::vector<const std::vector<Value>*> rows;
  /// Procedure parameter bindings (kParam lookup). Plans for statements
  /// inside procedures keep parameters symbolic so one cached plan serves
  /// every invocation (paper §4.1); values bind here at execution.
  const ParamBindings* params = nullptr;
};

/// Immutable expression tree with SQL three-valued-logic evaluation.
/// Built by the binder; consumed by the optimizer (selectivity analysis)
/// and the executor (predicate/projection evaluation).
class Expr {
 public:
  // --- Factories ---
  static ExprPtr Literal(Value v);
  static ExprPtr Column(int quantifier, int column, TypeId type,
                        std::string name = "");
  static ExprPtr Param(std::string name);
  static ExprPtr Compare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr IsNull(ExprPtr e, bool negated);
  static ExprPtr Between(ExprPtr v, ExprPtr lo, ExprPtr hi);
  static ExprPtr Like(ExprPtr v, std::string pattern);
  static ExprPtr InList(ExprPtr v, std::vector<ExprPtr> list);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);

  ExprKind kind() const { return kind_; }
  CompareOp compare_op() const { return cmp_; }
  ArithOp arith_op() const { return arith_; }
  const Value& literal() const { return literal_; }
  int quantifier() const { return quantifier_; }
  int column() const { return column_; }
  TypeId type() const { return type_; }
  const std::string& name() const { return name_; }
  const std::string& pattern() const { return pattern_; }
  bool negated() const { return negated_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Evaluates under `ctx`. Comparison/logic results are Boolean Values or
  /// NULL (three-valued logic). Errors only on type misuse.
  Result<Value> Evaluate(const RowContext& ctx) const;

  /// True iff Evaluate yields TRUE (NULL and FALSE both fail a filter).
  Result<bool> EvaluatesToTrue(const RowContext& ctx) const;

  /// Bitmask of quantifiers referenced anywhere in this tree (supports up
  /// to 128 quantifiers — the 100-way-join experiment needs >64).
  void CollectQuantifiers(std::vector<bool>* mask) const;

  /// Display form for EXPLAIN and the profiler.
  std::string ToString() const;

  /// SQL LIKE matching ('%' any run, '_' one char), case-insensitive.
  static bool LikeMatch(std::string_view text, std::string_view pattern);

 private:
  explicit Expr(ExprKind k) : kind_(k) {}

  ExprKind kind_;
  CompareOp cmp_ = CompareOp::kEq;
  ArithOp arith_ = ArithOp::kAdd;
  Value literal_;
  int quantifier_ = -1;
  int column_ = -1;
  TypeId type_ = TypeId::kInt;
  std::string name_;
  std::string pattern_;
  bool negated_ = false;
  std::vector<ExprPtr> children_;
};

/// Splits a predicate tree on AND into conjuncts.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

}  // namespace hdb::optimizer

#endif  // HDB_OPTIMIZER_EXPR_H_
