#ifndef HDB_ENGINE_LEXER_H_
#define HDB_ENGINE_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace hdb::engine {

enum class TokenKind : uint8_t {
  kIdent,     // bare identifier or keyword (uppercased in `text`)
  kNumber,    // integer or decimal literal
  kString,    // quoted string, quotes stripped
  kParam,     // :name, or a positional '?' (empty `text`)
  kSymbol,    // punctuation / operator in `text` ("<=", ",", "(", ...)
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // uppercased for idents/symbols; verbatim otherwise
  std::string raw;      // original spelling
  bool is_double = false;  // for kNumber
  size_t pos = 0;
};

/// Tokenizes a SQL string. Keywords are not distinguished from
/// identifiers at this level; the parser compares uppercased text.
Result<std::vector<Token>> Lex(const std::string& sql);

}  // namespace hdb::engine

#endif  // HDB_ENGINE_LEXER_H_
