#ifndef HDB_ENGINE_PARSER_H_
#define HDB_ENGINE_PARSER_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/lexer.h"
#include "optimizer/query.h"

namespace hdb::engine {

// --- Parse-tree expressions (column names unresolved) ---

struct AstExpr;
using AstExprPtr = std::shared_ptr<AstExpr>;

struct AstExpr {
  enum Kind {
    kLiteral,
    kColumn,   // [table.]column
    kParam,
    kCompare,
    kAnd,
    kOr,
    kNot,
    kIsNull,   // negated flag for IS NOT NULL
    kBetween,
    kLike,
    kInList,
    kArith,
    kAggregate,
    kStar,     // only inside COUNT(*)
  };

  Kind kind = kLiteral;
  Value literal;
  std::string table;   // qualifier, may be empty
  std::string column;  // column or :name parameter name
  int ordinal = -1;    // kParam: 0-based position of a '?'; -1 for :name
  optimizer::CompareOp cmp = optimizer::CompareOp::kEq;
  optimizer::ArithOp arith = optimizer::ArithOp::kAdd;
  optimizer::AggKind agg = optimizer::AggKind::kCountStar;
  std::string pattern;
  bool negated = false;
  std::vector<AstExprPtr> children;
};

// --- Statements ---

struct TableRef {
  std::string table;
  std::string alias;  // empty = table name
};

struct SelectAst {
  struct Item {
    AstExprPtr expr;  // null for '*'
    std::string alias;
    bool star = false;
  };
  struct Order {
    AstExprPtr expr;
    bool ascending = true;
  };
  bool distinct = false;
  std::vector<Item> items;
  std::vector<TableRef> from;
  AstExprPtr where;  // JOIN ... ON conditions are folded in
  std::vector<AstExprPtr> group_by;
  AstExprPtr having;
  std::vector<Order> order_by;
  int64_t limit = -1;
};

struct InsertAst {
  std::string table;
  std::vector<std::string> columns;  // empty = all, in table order
  std::vector<std::vector<AstExprPtr>> rows;
};

struct UpdateAst {
  std::string table;
  std::vector<std::pair<std::string, AstExprPtr>> sets;
  AstExprPtr where;
};

struct DeleteAst {
  std::string table;
  AstExprPtr where;
};

struct CreateTableAst {
  struct Column {
    std::string name;
    TypeId type;
    bool not_null = false;
  };
  struct Fk {
    std::string column;
    std::string ref_table;
    std::string ref_column;
  };
  std::string name;
  std::vector<Column> columns;
  std::vector<Fk> foreign_keys;
};

struct CreateIndexAst {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
};

struct CreateStatisticsAst {
  std::string table;
  std::vector<std::string> columns;  // empty = all columns
};

struct CreateProcedureAst {
  std::string name;
  std::vector<std::string> params;
  /// One or more statements (';'-separated in the source), each of which
  /// may reference :params. A CALL returns the last statement's result.
  std::vector<std::string> body_statements;
};

struct CallAst {
  std::string name;
  std::vector<AstExprPtr> args;  // each a kLiteral or a kParam
};

struct SetOptionAst {
  std::string name;
  std::string value;
};

struct SimpleAst {
  enum Kind { kBegin, kCommit, kRollback, kCalibrate } kind;
};

struct DropAst {
  enum Kind { kTable, kIndex } kind;
  std::string name;
};

struct ExplainAst {
  std::shared_ptr<SelectAst> select;
  /// EXPLAIN ANALYZE: execute the plan and render per-operator actual
  /// rows/invocations/time/memory next to the optimizer's estimates.
  bool analyze = false;
};

using StatementAst =
    std::variant<SelectAst, InsertAst, UpdateAst, DeleteAst, CreateTableAst,
                 CreateIndexAst, CreateStatisticsAst, CreateProcedureAst,
                 CallAst, SetOptionAst, SimpleAst, DropAst, ExplainAst>;

/// Parses exactly one statement (a trailing ';' is allowed). Values enter
/// a statement only through placeholders: positional `?` or named `:name`
/// (procedure bodies), never both in one statement. A placeholder may
/// stand wherever an expression may, and as a CALL argument; LIMIT and
/// SET OPTION take literals only.
Result<StatementAst> Parse(const std::string& sql);

/// Normalizes a SQL text to its *statement shape*: literals and
/// placeholders replaced by '?', whitespace canonicalized, keywords
/// uppercased. Statements that
/// differ only in constants normalize identically (paper §5; used by the
/// request tracer and the `sys.statements` virtual table).
std::string NormalizeStatement(const std::string& sql);

}  // namespace hdb::engine

#endif  // HDB_ENGINE_PARSER_H_
