#include "engine/parser.h"

#include <cstdlib>

namespace hdb::engine {

namespace {

using optimizer::AggKind;
using optimizer::ArithOp;
using optimizer::CompareOp;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementAst> ParseStatement();

 private:
  const Token& Peek(int ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Is(const std::string& word) const {
    return (Peek().kind == TokenKind::kIdent ||
            Peek().kind == TokenKind::kSymbol) &&
           Peek().text == word;
  }
  bool Accept(const std::string& word) {
    if (Is(word)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(const std::string& word) {
    if (Accept(word)) return Status::OK();
    return Status::SyntaxError("expected '" + word + "' near '" +
                               Peek().raw + "'");
  }
  Result<std::string> ExpectIdent() {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::SyntaxError("expected identifier near '" + Peek().raw +
                                 "'");
    }
    return Advance().raw;
  }
  /// Table name, optionally schema-qualified: `ident` or `ident.ident`.
  /// The only schema today is the reserved virtual `sys.` one.
  Result<std::string> ExpectTableName() {
    HDB_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    if (Is(".")) {
      Advance();
      HDB_ASSIGN_OR_RETURN(const std::string rest, ExpectIdent());
      name += "." + rest;
    }
    return name;
  }

  Result<SelectAst> ParseSelect();
  Result<InsertAst> ParseInsert();
  Result<UpdateAst> ParseUpdate();
  Result<DeleteAst> ParseDelete();
  Result<StatementAst> ParseCreate();
  Result<CallAst> ParseCall();

  Result<AstExprPtr> ParseExpr() { return ParseOr(); }
  Result<AstExprPtr> ParseOr();
  Result<AstExprPtr> ParseAnd();
  Result<AstExprPtr> ParseNot();
  Result<AstExprPtr> ParsePredicate();
  Result<AstExprPtr> ParseAdditive();
  Result<AstExprPtr> ParseMultiplicative();
  Result<AstExprPtr> ParsePrimary();

  Result<TypeId> ParseType();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int positional_params_ = 0;  // '?' placeholders seen so far
  bool named_params_ = false;  // any :name placeholder seen
};

AstExprPtr MakeNode(AstExpr::Kind k) {
  auto e = std::make_shared<AstExpr>();
  e->kind = k;
  return e;
}

Result<Value> NumberToValue(const Token& t) {
  if (t.is_double) return Value::Double(std::strtod(t.text.c_str(), nullptr));
  return Value::Bigint(std::strtoll(t.text.c_str(), nullptr, 10));
}

Result<AstExprPtr> Parser::ParseOr() {
  HDB_ASSIGN_OR_RETURN(AstExprPtr left, ParseAnd());
  while (Accept("OR")) {
    HDB_ASSIGN_OR_RETURN(AstExprPtr right, ParseAnd());
    auto e = MakeNode(AstExpr::kOr);
    e->children = {left, right};
    left = e;
  }
  return left;
}

Result<AstExprPtr> Parser::ParseAnd() {
  HDB_ASSIGN_OR_RETURN(AstExprPtr left, ParseNot());
  while (Accept("AND")) {
    HDB_ASSIGN_OR_RETURN(AstExprPtr right, ParseNot());
    auto e = MakeNode(AstExpr::kAnd);
    e->children = {left, right};
    left = e;
  }
  return left;
}

Result<AstExprPtr> Parser::ParseNot() {
  if (Accept("NOT")) {
    HDB_ASSIGN_OR_RETURN(AstExprPtr inner, ParseNot());
    auto e = MakeNode(AstExpr::kNot);
    e->children = {inner};
    return e;
  }
  return ParsePredicate();
}

Result<AstExprPtr> Parser::ParsePredicate() {
  HDB_ASSIGN_OR_RETURN(AstExprPtr left, ParseAdditive());

  if (Accept("IS")) {
    const bool negated = Accept("NOT");
    HDB_RETURN_IF_ERROR(Expect("NULL"));
    auto e = MakeNode(AstExpr::kIsNull);
    e->negated = negated;
    e->children = {left};
    return e;
  }
  bool negated = false;
  if (Is("NOT") && (Peek(1).text == "BETWEEN" || Peek(1).text == "LIKE" ||
                    Peek(1).text == "IN")) {
    Advance();
    negated = true;
  }
  if (Accept("BETWEEN")) {
    HDB_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
    HDB_RETURN_IF_ERROR(Expect("AND"));
    HDB_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
    auto e = MakeNode(AstExpr::kBetween);
    e->children = {left, lo, hi};
    if (!negated) return e;
    auto n = MakeNode(AstExpr::kNot);
    n->children = {e};
    return n;
  }
  if (Accept("LIKE")) {
    if (Peek().kind != TokenKind::kString) {
      return Status::SyntaxError("LIKE requires a string literal pattern");
    }
    auto e = MakeNode(AstExpr::kLike);
    e->pattern = Advance().text;
    e->children = {left};
    if (!negated) return e;
    auto n = MakeNode(AstExpr::kNot);
    n->children = {e};
    return n;
  }
  if (Accept("IN")) {
    HDB_RETURN_IF_ERROR(Expect("("));
    auto e = MakeNode(AstExpr::kInList);
    e->children.push_back(left);
    do {
      HDB_ASSIGN_OR_RETURN(AstExprPtr item, ParseAdditive());
      e->children.push_back(item);
    } while (Accept(","));
    HDB_RETURN_IF_ERROR(Expect(")"));
    if (!negated) return e;
    auto n = MakeNode(AstExpr::kNot);
    n->children = {e};
    return n;
  }

  static const std::pair<const char*, CompareOp> kOps[] = {
      {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"<=", CompareOp::kLe},
      {">=", CompareOp::kGe}, {"<", CompareOp::kLt},  {">", CompareOp::kGt},
  };
  for (const auto& [sym, op] : kOps) {
    if (Accept(sym)) {
      HDB_ASSIGN_OR_RETURN(AstExprPtr right, ParseAdditive());
      auto e = MakeNode(AstExpr::kCompare);
      e->cmp = op;
      e->children = {left, right};
      return e;
    }
  }
  return left;
}

Result<AstExprPtr> Parser::ParseAdditive() {
  HDB_ASSIGN_OR_RETURN(AstExprPtr left, ParseMultiplicative());
  for (;;) {
    ArithOp op;
    if (Accept("+")) {
      op = ArithOp::kAdd;
    } else if (Accept("-")) {
      op = ArithOp::kSub;
    } else {
      return left;
    }
    HDB_ASSIGN_OR_RETURN(AstExprPtr right, ParseMultiplicative());
    auto e = MakeNode(AstExpr::kArith);
    e->arith = op;
    e->children = {left, right};
    left = e;
  }
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  HDB_ASSIGN_OR_RETURN(AstExprPtr left, ParsePrimary());
  for (;;) {
    ArithOp op;
    if (Accept("*")) {
      op = ArithOp::kMul;
    } else if (Accept("/")) {
      op = ArithOp::kDiv;
    } else {
      return left;
    }
    HDB_ASSIGN_OR_RETURN(AstExprPtr right, ParsePrimary());
    auto e = MakeNode(AstExpr::kArith);
    e->arith = op;
    e->children = {left, right};
    left = e;
  }
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  if (t.kind == TokenKind::kNumber) {
    Advance();
    auto e = MakeNode(AstExpr::kLiteral);
    HDB_ASSIGN_OR_RETURN(e->literal, NumberToValue(t));
    return e;
  }
  if (t.kind == TokenKind::kString) {
    Advance();
    auto e = MakeNode(AstExpr::kLiteral);
    e->literal = Value::String(t.text);
    return e;
  }
  if (t.kind == TokenKind::kParam) {
    Advance();
    auto e = MakeNode(AstExpr::kParam);
    if (t.text.empty()) {
      e->ordinal = positional_params_++;
    } else {
      e->column = t.text;
      named_params_ = true;
    }
    return e;
  }
  if (Accept("(")) {
    HDB_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
    HDB_RETURN_IF_ERROR(Expect(")"));
    return inner;
  }
  if (Accept("-")) {
    HDB_ASSIGN_OR_RETURN(AstExprPtr inner, ParsePrimary());
    if (inner->kind == AstExpr::kLiteral) {
      if (inner->literal.type() == TypeId::kDouble) {
        inner->literal = Value::Double(-inner->literal.AsDouble());
      } else {
        inner->literal = Value::Bigint(-inner->literal.AsInt());
      }
      return inner;
    }
    auto zero = MakeNode(AstExpr::kLiteral);
    zero->literal = Value::Bigint(0);
    auto e = MakeNode(AstExpr::kArith);
    e->arith = ArithOp::kSub;
    e->children = {zero, inner};
    return e;
  }
  if (t.kind == TokenKind::kIdent) {
    // TRUE/FALSE/NULL literals.
    if (t.text == "TRUE" || t.text == "FALSE") {
      Advance();
      auto e = MakeNode(AstExpr::kLiteral);
      e->literal = Value::Boolean(t.text == "TRUE");
      return e;
    }
    if (t.text == "NULL") {
      Advance();
      auto e = MakeNode(AstExpr::kLiteral);
      e->literal = Value::Null();
      return e;
    }
    // Aggregates.
    static const std::pair<const char*, AggKind> kAggs[] = {
        {"COUNT", AggKind::kCount}, {"SUM", AggKind::kSum},
        {"MIN", AggKind::kMin},     {"MAX", AggKind::kMax},
        {"AVG", AggKind::kAvg},
    };
    for (const auto& [name, kind] : kAggs) {
      if (t.text == name && Peek(1).text == "(") {
        Advance();
        Advance();
        auto e = MakeNode(AstExpr::kAggregate);
        e->agg = kind;
        if (kind == AggKind::kCount && Accept("*")) {
          e->agg = AggKind::kCountStar;
        } else {
          HDB_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
          e->children = {arg};
        }
        HDB_RETURN_IF_ERROR(Expect(")"));
        return e;
      }
    }
    // Column reference, optionally qualified.
    Advance();
    auto e = MakeNode(AstExpr::kColumn);
    if (Is(".")) {
      Advance();
      HDB_ASSIGN_OR_RETURN(const std::string col, ExpectIdent());
      e->table = t.raw;
      e->column = col;
    } else {
      e->column = t.raw;
    }
    return e;
  }
  return Status::SyntaxError("unexpected token '" + t.raw + "'");
}

Result<TypeId> Parser::ParseType() {
  HDB_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
  for (char& c : name) c = static_cast<char>(std::toupper(c));
  TypeId t;
  if (name == "INT" || name == "INTEGER") {
    t = TypeId::kInt;
  } else if (name == "BIGINT") {
    t = TypeId::kBigint;
  } else if (name == "DOUBLE" || name == "REAL" || name == "FLOAT") {
    t = TypeId::kDouble;
  } else if (name == "VARCHAR" || name == "CHAR" || name == "TEXT") {
    t = TypeId::kVarchar;
  } else if (name == "BOOLEAN" || name == "BOOL") {
    t = TypeId::kBoolean;
  } else if (name == "DATE") {
    t = TypeId::kDate;
  } else if (name == "TIMESTAMP") {
    t = TypeId::kTimestamp;
  } else {
    return Status::SyntaxError("unknown type " + name);
  }
  // Optional length, e.g. VARCHAR(40) — accepted and ignored.
  if (Accept("(")) {
    while (!Is(")") && Peek().kind != TokenKind::kEnd) Advance();
    HDB_RETURN_IF_ERROR(Expect(")"));
  }
  return t;
}

Result<SelectAst> Parser::ParseSelect() {
  SelectAst sel;
  HDB_RETURN_IF_ERROR(Expect("SELECT"));
  sel.distinct = Accept("DISTINCT");
  do {
    SelectAst::Item item;
    if (Accept("*")) {
      item.star = true;
    } else {
      HDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (Accept("AS")) {
        HDB_ASSIGN_OR_RETURN(item.alias, ExpectIdent());
      } else if (Peek().kind == TokenKind::kIdent && !Is("FROM")) {
        // Bare alias.
        item.alias = Advance().raw;
      }
    }
    sel.items.push_back(std::move(item));
  } while (Accept(","));

  HDB_RETURN_IF_ERROR(Expect("FROM"));
  std::vector<AstExprPtr> on_conditions;
  auto parse_table_ref = [&]() -> Result<TableRef> {
    TableRef tr;
    HDB_ASSIGN_OR_RETURN(tr.table, ExpectTableName());
    if (Accept("AS")) {
      HDB_ASSIGN_OR_RETURN(tr.alias, ExpectIdent());
    } else if (Peek().kind == TokenKind::kIdent && !Is("WHERE") &&
               !Is("GROUP") && !Is("ORDER") && !Is("LIMIT") && !Is("JOIN") &&
               !Is("INNER") && !Is("ON") && !Is("HAVING")) {
      tr.alias = Advance().raw;
    }
    if (tr.alias.empty()) tr.alias = tr.table;
    return tr;
  };
  HDB_ASSIGN_OR_RETURN(TableRef first, parse_table_ref());
  sel.from.push_back(first);
  for (;;) {
    if (Accept(",")) {
      HDB_ASSIGN_OR_RETURN(TableRef tr, parse_table_ref());
      sel.from.push_back(tr);
      continue;
    }
    if (Accept("INNER")) {
      HDB_RETURN_IF_ERROR(Expect("JOIN"));
    } else if (!Accept("JOIN")) {
      break;
    }
    HDB_ASSIGN_OR_RETURN(TableRef tr, parse_table_ref());
    sel.from.push_back(tr);
    HDB_RETURN_IF_ERROR(Expect("ON"));
    HDB_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
    on_conditions.push_back(cond);
  }

  if (Accept("WHERE")) {
    HDB_ASSIGN_OR_RETURN(sel.where, ParseExpr());
  }
  for (const AstExprPtr& cond : on_conditions) {
    if (sel.where == nullptr) {
      sel.where = cond;
    } else {
      auto e = MakeNode(AstExpr::kAnd);
      e->children = {sel.where, cond};
      sel.where = e;
    }
  }
  if (Accept("GROUP")) {
    HDB_RETURN_IF_ERROR(Expect("BY"));
    do {
      HDB_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      sel.group_by.push_back(e);
    } while (Accept(","));
    if (Accept("HAVING")) {
      HDB_ASSIGN_OR_RETURN(sel.having, ParseExpr());
    }
  }
  if (Accept("ORDER")) {
    HDB_RETURN_IF_ERROR(Expect("BY"));
    do {
      SelectAst::Order o;
      HDB_ASSIGN_OR_RETURN(o.expr, ParseExpr());
      if (Accept("DESC")) {
        o.ascending = false;
      } else {
        Accept("ASC");
      }
      sel.order_by.push_back(std::move(o));
    } while (Accept(","));
  }
  if (Accept("LIMIT")) {
    if (Peek().kind != TokenKind::kNumber) {
      return Status::SyntaxError("LIMIT requires a number");
    }
    HDB_ASSIGN_OR_RETURN(const Value v, NumberToValue(Advance()));
    sel.limit = v.AsInt();
  }
  return sel;
}

Result<InsertAst> Parser::ParseInsert() {
  InsertAst ins;
  HDB_RETURN_IF_ERROR(Expect("INSERT"));
  HDB_RETURN_IF_ERROR(Expect("INTO"));
  HDB_ASSIGN_OR_RETURN(ins.table, ExpectTableName());
  if (Accept("(")) {
    do {
      HDB_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      ins.columns.push_back(std::move(col));
    } while (Accept(","));
    HDB_RETURN_IF_ERROR(Expect(")"));
  }
  HDB_RETURN_IF_ERROR(Expect("VALUES"));
  do {
    HDB_RETURN_IF_ERROR(Expect("("));
    std::vector<AstExprPtr> row;
    do {
      HDB_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      row.push_back(std::move(e));
    } while (Accept(","));
    HDB_RETURN_IF_ERROR(Expect(")"));
    ins.rows.push_back(std::move(row));
  } while (Accept(","));
  return ins;
}

Result<UpdateAst> Parser::ParseUpdate() {
  UpdateAst up;
  HDB_RETURN_IF_ERROR(Expect("UPDATE"));
  HDB_ASSIGN_OR_RETURN(up.table, ExpectTableName());
  HDB_RETURN_IF_ERROR(Expect("SET"));
  do {
    HDB_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
    HDB_RETURN_IF_ERROR(Expect("="));
    HDB_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
    up.sets.emplace_back(std::move(col), std::move(e));
  } while (Accept(","));
  if (Accept("WHERE")) {
    HDB_ASSIGN_OR_RETURN(up.where, ParseExpr());
  }
  return up;
}

Result<DeleteAst> Parser::ParseDelete() {
  DeleteAst del;
  HDB_RETURN_IF_ERROR(Expect("DELETE"));
  HDB_RETURN_IF_ERROR(Expect("FROM"));
  HDB_ASSIGN_OR_RETURN(del.table, ExpectTableName());
  if (Accept("WHERE")) {
    HDB_ASSIGN_OR_RETURN(del.where, ParseExpr());
  }
  return del;
}

Result<StatementAst> Parser::ParseCreate() {
  HDB_RETURN_IF_ERROR(Expect("CREATE"));
  if (Accept("TABLE")) {
    CreateTableAst ct;
    HDB_ASSIGN_OR_RETURN(ct.name, ExpectIdent());
    HDB_RETURN_IF_ERROR(Expect("("));
    do {
      if (Accept("FOREIGN")) {
        HDB_RETURN_IF_ERROR(Expect("KEY"));
        HDB_RETURN_IF_ERROR(Expect("("));
        CreateTableAst::Fk fk;
        HDB_ASSIGN_OR_RETURN(fk.column, ExpectIdent());
        HDB_RETURN_IF_ERROR(Expect(")"));
        HDB_RETURN_IF_ERROR(Expect("REFERENCES"));
        HDB_ASSIGN_OR_RETURN(fk.ref_table, ExpectIdent());
        HDB_RETURN_IF_ERROR(Expect("("));
        HDB_ASSIGN_OR_RETURN(fk.ref_column, ExpectIdent());
        HDB_RETURN_IF_ERROR(Expect(")"));
        ct.foreign_keys.push_back(std::move(fk));
        continue;
      }
      CreateTableAst::Column col;
      HDB_ASSIGN_OR_RETURN(col.name, ExpectIdent());
      HDB_ASSIGN_OR_RETURN(col.type, ParseType());
      if (Accept("NOT")) {
        HDB_RETURN_IF_ERROR(Expect("NULL"));
        col.not_null = true;
      }
      if (Accept("PRIMARY")) {  // accepted, treated as NOT NULL
        HDB_RETURN_IF_ERROR(Expect("KEY"));
        col.not_null = true;
      }
      ct.columns.push_back(std::move(col));
    } while (Accept(","));
    HDB_RETURN_IF_ERROR(Expect(")"));
    return StatementAst{std::move(ct)};
  }
  if (Is("UNIQUE") || Is("INDEX")) {
    CreateIndexAst ci;
    ci.unique = Accept("UNIQUE");
    HDB_RETURN_IF_ERROR(Expect("INDEX"));
    HDB_ASSIGN_OR_RETURN(ci.name, ExpectIdent());
    HDB_RETURN_IF_ERROR(Expect("ON"));
    HDB_ASSIGN_OR_RETURN(ci.table, ExpectIdent());
    HDB_RETURN_IF_ERROR(Expect("("));
    do {
      HDB_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
      ci.columns.push_back(std::move(col));
    } while (Accept(","));
    HDB_RETURN_IF_ERROR(Expect(")"));
    return StatementAst{std::move(ci)};
  }
  if (Accept("STATISTICS")) {
    CreateStatisticsAst cs;
    HDB_ASSIGN_OR_RETURN(cs.table, ExpectIdent());
    if (Accept("(")) {
      do {
        HDB_ASSIGN_OR_RETURN(std::string col, ExpectIdent());
        cs.columns.push_back(std::move(col));
      } while (Accept(","));
      HDB_RETURN_IF_ERROR(Expect(")"));
    }
    return StatementAst{std::move(cs)};
  }
  if (Accept("PROCEDURE")) {
    CreateProcedureAst cp;
    HDB_ASSIGN_OR_RETURN(cp.name, ExpectIdent());
    if (Accept("(")) {
      if (!Is(")")) {
        do {
          if (Peek().kind != TokenKind::kParam || Peek().text.empty()) {
            return Status::SyntaxError("procedure parameters are :names");
          }
          cp.params.push_back(Advance().text);
        } while (Accept(","));
      }
      HDB_RETURN_IF_ERROR(Expect(")"));
    }
    HDB_RETURN_IF_ERROR(Expect("AS"));
    // The body is the remainder of the statement text; ';' separates
    // multiple statements inside the procedure.
    std::string body;
    while (Peek().kind != TokenKind::kEnd) {
      if (Is(";")) {
        Advance();
        if (!body.empty()) {
          cp.body_statements.push_back(body);
          body.clear();
        }
        continue;
      }
      const Token& t = Advance();
      if (t.kind == TokenKind::kParam && t.text.empty()) {
        return Status::SyntaxError("procedure bodies take :name parameters, "
                                   "not '?'");
      }
      if (!body.empty()) body += " ";
      if (t.kind == TokenKind::kString) {
        std::string esc;
        for (const char ch : t.text) {
          esc += ch;
          if (ch == '\'') esc += '\'';
        }
        body += "'" + esc + "'";
      } else {
        body += t.raw;
      }
    }
    if (!body.empty()) cp.body_statements.push_back(body);
    if (cp.body_statements.empty()) {
      return Status::SyntaxError("empty procedure body");
    }
    return StatementAst{std::move(cp)};
  }
  return Status::SyntaxError("unsupported CREATE statement");
}

Result<CallAst> Parser::ParseCall() {
  CallAst call;
  HDB_RETURN_IF_ERROR(Expect("CALL"));
  HDB_ASSIGN_OR_RETURN(call.name, ExpectIdent());
  if (Accept("(")) {
    if (!Is(")")) {
      do {
        HDB_ASSIGN_OR_RETURN(AstExprPtr arg, ParsePrimary());
        if (arg->kind != AstExpr::kLiteral && arg->kind != AstExpr::kParam) {
          return Status::SyntaxError(
              "CALL arguments are literals or placeholders");
        }
        call.args.push_back(std::move(arg));
      } while (Accept(","));
    }
    HDB_RETURN_IF_ERROR(Expect(")"));
  }
  return call;
}

Result<StatementAst> Parser::ParseStatement() {
  StatementAst out{SimpleAst{SimpleAst::kCommit}};
  if (Is("SELECT")) {
    HDB_ASSIGN_OR_RETURN(SelectAst s, ParseSelect());
    out = std::move(s);
  } else if (Is("EXPLAIN")) {
    Advance();
    ExplainAst ex;
    ex.analyze = Accept("ANALYZE");
    HDB_ASSIGN_OR_RETURN(SelectAst s, ParseSelect());
    ex.select = std::make_shared<SelectAst>(std::move(s));
    out = std::move(ex);
  } else if (Is("INSERT")) {
    HDB_ASSIGN_OR_RETURN(InsertAst s, ParseInsert());
    out = std::move(s);
  } else if (Is("UPDATE")) {
    HDB_ASSIGN_OR_RETURN(UpdateAst s, ParseUpdate());
    out = std::move(s);
  } else if (Is("DELETE")) {
    HDB_ASSIGN_OR_RETURN(DeleteAst s, ParseDelete());
    out = std::move(s);
  } else if (Is("CREATE")) {
    HDB_ASSIGN_OR_RETURN(out, ParseCreate());
  } else if (Is("CALL")) {
    HDB_ASSIGN_OR_RETURN(CallAst s, ParseCall());
    out = std::move(s);
  } else if (Accept("DROP")) {
    DropAst d;
    if (Accept("TABLE")) {
      d.kind = DropAst::kTable;
    } else if (Accept("INDEX")) {
      d.kind = DropAst::kIndex;
    } else {
      return Status::SyntaxError("DROP TABLE or DROP INDEX expected");
    }
    HDB_ASSIGN_OR_RETURN(d.name, ExpectTableName());
    out = std::move(d);
  } else if (Accept("SET")) {
    HDB_RETURN_IF_ERROR(Expect("OPTION"));
    SetOptionAst so;
    HDB_ASSIGN_OR_RETURN(so.name, ExpectIdent());
    HDB_RETURN_IF_ERROR(Expect("="));
    if (Peek().kind == TokenKind::kString ||
        Peek().kind == TokenKind::kNumber ||
        Peek().kind == TokenKind::kIdent) {
      so.value = Advance().text;
    } else {
      return Status::SyntaxError("option value expected");
    }
    out = std::move(so);
  } else if (Accept("BEGIN")) {
    out = SimpleAst{SimpleAst::kBegin};
  } else if (Accept("COMMIT")) {
    out = SimpleAst{SimpleAst::kCommit};
  } else if (Accept("ROLLBACK")) {
    out = SimpleAst{SimpleAst::kRollback};
  } else if (Accept("CALIBRATE")) {
    HDB_RETURN_IF_ERROR(Expect("DATABASE"));
    out = SimpleAst{SimpleAst::kCalibrate};
  } else {
    return Status::SyntaxError("unrecognized statement near '" + Peek().raw +
                               "'");
  }
  Accept(";");
  if (Peek().kind != TokenKind::kEnd) {
    return Status::SyntaxError("trailing input near '" + Peek().raw + "'");
  }
  if (positional_params_ > 0 && named_params_) {
    return Status::SyntaxError("a statement cannot mix '?' and :name "
                               "placeholders");
  }
  return out;
}

}  // namespace

Result<StatementAst> Parse(const std::string& sql) {
  HDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

std::string NormalizeStatement(const std::string& sql) {
  auto tokens = Lex(sql);
  if (!tokens.ok()) return sql;
  std::string out;
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kEnd) break;
    if (!out.empty()) out += " ";
    switch (t.kind) {
      case TokenKind::kNumber:
      case TokenKind::kString:
      case TokenKind::kParam:
        out += "?";
        break;
      default:
        out += t.text;  // uppercased idents/symbols
    }
  }
  return out;
}

}  // namespace hdb::engine
