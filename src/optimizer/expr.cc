#include "optimizer/expr.h"

#include <algorithm>
#include <cctype>

namespace hdb::optimizer {

namespace {

Value TriBool(bool b) { return Value::Boolean(b); }
Value TriNull() { return Value::Null(TypeId::kBoolean); }

bool IsTrue(const Value& v) { return !v.is_null() && v.AsBool(); }
bool IsFalse(const Value& v) { return !v.is_null() && !v.AsBool(); }

char Lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}

}  // namespace

ExprPtr Expr::Literal(Value v) {
  auto e = ExprPtr(new Expr(ExprKind::kLiteral));
  e->type_ = v.type();
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Column(int quantifier, int column, TypeId type,
                     std::string name) {
  auto e = ExprPtr(new Expr(ExprKind::kColumnRef));
  e->quantifier_ = quantifier;
  e->column_ = column;
  e->type_ = type;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Param(std::string name) {
  auto e = ExprPtr(new Expr(ExprKind::kParam));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprKind::kCompare));
  e->cmp_ = op;
  e->type_ = TypeId::kBoolean;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprKind::kAnd));
  e->type_ = TypeId::kBoolean;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprKind::kOr));
  e->type_ = TypeId::kBoolean;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

ExprPtr Expr::Not(ExprPtr c) {
  auto e = ExprPtr(new Expr(ExprKind::kNot));
  e->type_ = TypeId::kBoolean;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::IsNull(ExprPtr c, bool negated) {
  auto e = ExprPtr(new Expr(ExprKind::kIsNull));
  e->type_ = TypeId::kBoolean;
  e->negated_ = negated;
  e->children_ = {std::move(c)};
  return e;
}

ExprPtr Expr::Between(ExprPtr v, ExprPtr lo, ExprPtr hi) {
  auto e = ExprPtr(new Expr(ExprKind::kBetween));
  e->type_ = TypeId::kBoolean;
  e->children_ = {std::move(v), std::move(lo), std::move(hi)};
  return e;
}

ExprPtr Expr::Like(ExprPtr v, std::string pattern) {
  auto e = ExprPtr(new Expr(ExprKind::kLike));
  e->type_ = TypeId::kBoolean;
  e->pattern_ = std::move(pattern);
  e->children_ = {std::move(v)};
  return e;
}

ExprPtr Expr::InList(ExprPtr v, std::vector<ExprPtr> list) {
  auto e = ExprPtr(new Expr(ExprKind::kInList));
  e->type_ = TypeId::kBoolean;
  e->children_.push_back(std::move(v));
  for (auto& item : list) e->children_.push_back(std::move(item));
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  auto e = ExprPtr(new Expr(ExprKind::kArith));
  e->arith_ = op;
  e->type_ = TypeId::kDouble;
  e->children_ = {std::move(l), std::move(r)};
  return e;
}

bool Expr::LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard matcher with backtracking on '%'.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || Lower(pattern[p]) == Lower(text[t]))) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Expr::Evaluate(const RowContext& ctx) const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kParam: {
      if (ctx.params != nullptr) {
        for (const auto& [name, value] : *ctx.params) {
          if (name == name_) return value;
        }
      }
      return Status::InvalidArgument("unbound parameter :" + name_);
    }
    case ExprKind::kColumnRef: {
      if (quantifier_ < 0 ||
          quantifier_ >= static_cast<int>(ctx.rows.size()) ||
          ctx.rows[quantifier_] == nullptr) {
        return Status::Internal("column ref to unbound quantifier");
      }
      const auto& row = *ctx.rows[quantifier_];
      if (column_ < 0 || column_ >= static_cast<int>(row.size())) {
        return Status::Internal("column ref out of range");
      }
      return row[column_];
    }
    case ExprKind::kCompare: {
      HDB_ASSIGN_OR_RETURN(const Value l, children_[0]->Evaluate(ctx));
      HDB_ASSIGN_OR_RETURN(const Value r, children_[1]->Evaluate(ctx));
      if (l.is_null() || r.is_null()) return TriNull();
      const int c = l.Compare(r);
      switch (cmp_) {
        case CompareOp::kEq: return TriBool(c == 0);
        case CompareOp::kNe: return TriBool(c != 0);
        case CompareOp::kLt: return TriBool(c < 0);
        case CompareOp::kLe: return TriBool(c <= 0);
        case CompareOp::kGt: return TriBool(c > 0);
        case CompareOp::kGe: return TriBool(c >= 0);
      }
      return TriNull();
    }
    case ExprKind::kAnd: {
      HDB_ASSIGN_OR_RETURN(const Value l, children_[0]->Evaluate(ctx));
      if (IsFalse(l)) return TriBool(false);
      HDB_ASSIGN_OR_RETURN(const Value r, children_[1]->Evaluate(ctx));
      if (IsFalse(r)) return TriBool(false);
      if (l.is_null() || r.is_null()) return TriNull();
      return TriBool(true);
    }
    case ExprKind::kOr: {
      HDB_ASSIGN_OR_RETURN(const Value l, children_[0]->Evaluate(ctx));
      if (IsTrue(l)) return TriBool(true);
      HDB_ASSIGN_OR_RETURN(const Value r, children_[1]->Evaluate(ctx));
      if (IsTrue(r)) return TriBool(true);
      if (l.is_null() || r.is_null()) return TriNull();
      return TriBool(false);
    }
    case ExprKind::kNot: {
      HDB_ASSIGN_OR_RETURN(const Value v, children_[0]->Evaluate(ctx));
      if (v.is_null()) return TriNull();
      return TriBool(!v.AsBool());
    }
    case ExprKind::kIsNull: {
      HDB_ASSIGN_OR_RETURN(const Value v, children_[0]->Evaluate(ctx));
      return TriBool(negated_ ? !v.is_null() : v.is_null());
    }
    case ExprKind::kBetween: {
      HDB_ASSIGN_OR_RETURN(const Value v, children_[0]->Evaluate(ctx));
      HDB_ASSIGN_OR_RETURN(const Value lo, children_[1]->Evaluate(ctx));
      HDB_ASSIGN_OR_RETURN(const Value hi, children_[2]->Evaluate(ctx));
      if (v.is_null() || lo.is_null() || hi.is_null()) return TriNull();
      return TriBool(v.Compare(lo) >= 0 && v.Compare(hi) <= 0);
    }
    case ExprKind::kLike: {
      HDB_ASSIGN_OR_RETURN(const Value v, children_[0]->Evaluate(ctx));
      if (v.is_null()) return TriNull();
      if (v.type() != TypeId::kVarchar) {
        return Status::InvalidArgument("LIKE on non-string");
      }
      return TriBool(LikeMatch(v.AsString(), pattern_));
    }
    case ExprKind::kInList: {
      HDB_ASSIGN_OR_RETURN(const Value v, children_[0]->Evaluate(ctx));
      if (v.is_null()) return TriNull();
      bool saw_null = false;
      for (size_t i = 1; i < children_.size(); ++i) {
        HDB_ASSIGN_OR_RETURN(const Value item, children_[i]->Evaluate(ctx));
        if (item.is_null()) {
          saw_null = true;
          continue;
        }
        if (v.Compare(item) == 0) return TriBool(true);
      }
      return saw_null ? TriNull() : TriBool(false);
    }
    case ExprKind::kArith: {
      HDB_ASSIGN_OR_RETURN(const Value l, children_[0]->Evaluate(ctx));
      HDB_ASSIGN_OR_RETURN(const Value r, children_[1]->Evaluate(ctx));
      if (l.is_null() || r.is_null()) return Value::Null(TypeId::kDouble);
      const bool integral =
          l.type() != TypeId::kDouble && r.type() != TypeId::kDouble &&
          l.type() != TypeId::kVarchar && r.type() != TypeId::kVarchar;
      if (integral) {
        const int64_t a = l.AsInt(), b = r.AsInt();
        switch (arith_) {
          case ArithOp::kAdd: return Value::Bigint(a + b);
          case ArithOp::kSub: return Value::Bigint(a - b);
          case ArithOp::kMul: return Value::Bigint(a * b);
          case ArithOp::kDiv:
            if (b == 0) return Status::InvalidArgument("division by zero");
            return Value::Bigint(a / b);
        }
      }
      const double a = l.AsDouble(), b = r.AsDouble();
      switch (arith_) {
        case ArithOp::kAdd: return Value::Double(a + b);
        case ArithOp::kSub: return Value::Double(a - b);
        case ArithOp::kMul: return Value::Double(a * b);
        case ArithOp::kDiv:
          if (b == 0) return Status::InvalidArgument("division by zero");
          return Value::Double(a / b);
      }
      return TriNull();
    }
  }
  return Status::Internal("unhandled expr kind");
}

Result<bool> Expr::EvaluatesToTrue(const RowContext& ctx) const {
  HDB_ASSIGN_OR_RETURN(const Value v, Evaluate(ctx));
  return IsTrue(v);
}

void Expr::CollectQuantifiers(std::vector<bool>* mask) const {
  if (kind_ == ExprKind::kColumnRef) {
    if (quantifier_ >= 0) {
      if (static_cast<size_t>(quantifier_) >= mask->size()) {
        mask->resize(quantifier_ + 1, false);
      }
      (*mask)[quantifier_] = true;
    }
    return;
  }
  for (const ExprPtr& c : children_) c->CollectQuantifiers(mask);
}

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kParam:
      return ":" + name_;
    case ExprKind::kColumnRef:
      return name_.empty() ? "q" + std::to_string(quantifier_) + ".c" +
                                 std::to_string(column_)
                           : name_;
    case ExprKind::kCompare: {
      static const char* ops[] = {"=", "<>", "<", "<=", ">", ">="};
      return "(" + children_[0]->ToString() + " " +
             ops[static_cast<int>(cmp_)] + " " + children_[1]->ToString() +
             ")";
    }
    case ExprKind::kAnd:
      return "(" + children_[0]->ToString() + " AND " +
             children_[1]->ToString() + ")";
    case ExprKind::kOr:
      return "(" + children_[0]->ToString() + " OR " +
             children_[1]->ToString() + ")";
    case ExprKind::kNot:
      return "NOT " + children_[0]->ToString();
    case ExprKind::kIsNull:
      return children_[0]->ToString() +
             (negated_ ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kBetween:
      return children_[0]->ToString() + " BETWEEN " +
             children_[1]->ToString() + " AND " + children_[2]->ToString();
    case ExprKind::kLike:
      return children_[0]->ToString() + " LIKE '" + pattern_ + "'";
    case ExprKind::kInList: {
      std::string s = children_[0]->ToString() + " IN (";
      for (size_t i = 1; i < children_.size(); ++i) {
        if (i > 1) s += ", ";
        s += children_[i]->ToString();
      }
      return s + ")";
    }
    case ExprKind::kArith: {
      static const char* ops[] = {"+", "-", "*", "/"};
      return "(" + children_[0]->ToString() + " " +
             ops[static_cast<int>(arith_)] + " " + children_[1]->ToString() +
             ")";
    }
  }
  return "?";
}

void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kAnd) {
    SplitConjuncts(e->children()[0], out);
    SplitConjuncts(e->children()[1], out);
    return;
  }
  out->push_back(e);
}

}  // namespace hdb::optimizer
