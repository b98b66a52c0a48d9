// Lexer for the s-expression surface syntax.
//
// The grammar is CLIPS-flavored:
//   - `;` starts a comment to end of line
//   - `?name` is a variable, bare `?` a wildcard variable
//   - `=>` separates LHS from RHS inside defrule/defmetarule
//   - names may contain letters, digits, and -+*/<>=!_.&~%$: (so operators
//     like `<=` and hyphenated identifiers lex as one Name token)
//
// The parser pulls one token at a time. Token text is a view into the
// source, which must outlive the lexer, so lexing allocates nothing.
#pragma once

#include <string>
#include <string_view>

#include "lang/token.hpp"

namespace parulel {

class Lexer {
 public:
  explicit Lexer(std::string_view source) : src_(source) {}

  /// The next token; End on every call past the end. Throws ParseError
  /// on an unterminated string or a stray character.
  Token next();

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// A String token's text with its backslash escapes resolved.
std::string unescape(std::string_view text);

}  // namespace parulel
