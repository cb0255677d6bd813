#include "engine/lexer.h"

#include <cctype>

namespace hdb::engine {

namespace {
char Upper(char c) {
  return static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
}
bool IdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

Result<std::vector<Token>> Lex(const std::string& sql) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comments
    if (c == '-' && i + 1 < n && sql[i + 1] == '-') {
      while (i < n && sql[i] != '\n') ++i;
      continue;
    }
    Token t;
    t.pos = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && IdentChar(sql[j])) ++j;
      t.kind = TokenKind::kIdent;
      t.raw = sql.substr(i, j - i);
      t.text = t.raw;
      for (char& ch : t.text) ch = Upper(ch);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c)) ||
               (c == '.' && i + 1 < n &&
                std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i;
      bool is_double = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                       sql[j] == '.' || sql[j] == 'e' || sql[j] == 'E' ||
                       ((sql[j] == '+' || sql[j] == '-') && j > i &&
                        (sql[j - 1] == 'e' || sql[j - 1] == 'E')))) {
        if (sql[j] == '.' || sql[j] == 'e' || sql[j] == 'E') is_double = true;
        ++j;
      }
      t.kind = TokenKind::kNumber;
      t.raw = sql.substr(i, j - i);
      t.text = t.raw;
      t.is_double = is_double;
      i = j;
    } else if (c == '\'') {
      std::string s;
      size_t j = i + 1;
      for (;;) {
        if (j >= n) return Status::SyntaxError("unterminated string literal");
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {  // escaped quote
            s.push_back('\'');
            j += 2;
            continue;
          }
          break;
        }
        s.push_back(sql[j]);
        ++j;
      }
      t.kind = TokenKind::kString;
      t.text = s;
      t.raw = sql.substr(i, j + 1 - i);
      i = j + 1;
    } else if (c == ':' && i + 1 < n && IdentChar(sql[i + 1])) {
      size_t j = i + 1;
      while (j < n && IdentChar(sql[j])) ++j;
      t.kind = TokenKind::kParam;
      t.text = sql.substr(i + 1, j - i - 1);
      t.raw = sql.substr(i, j - i);
      i = j;
    } else if (c == '?') {
      t.kind = TokenKind::kParam;
      t.raw = "?";
      ++i;
    } else {
      // Multi-char operators first.
      static const char* kTwo[] = {"<=", ">=", "<>", "!="};
      std::string two = sql.substr(i, 2);
      bool matched = false;
      for (const char* op : kTwo) {
        if (two == op) {
          t.kind = TokenKind::kSymbol;
          t.text = (two == "!=") ? "<>" : two;
          t.raw = two;
          i += 2;
          matched = true;
          break;
        }
      }
      if (!matched) {
        t.kind = TokenKind::kSymbol;
        t.text = std::string(1, c);
        t.raw = t.text;
        ++i;
      }
    }
    out.push_back(std::move(t));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.pos = n;
  out.push_back(end);
  return out;
}

}  // namespace hdb::engine
