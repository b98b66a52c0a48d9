// Token stream for the PARULEL surface syntax.
#pragma once

#include <cstdint>
#include <string_view>

namespace parulel {

enum class TokenKind : std::uint8_t {
  LParen,
  RParen,
  Arrow,     // =>
  Name,      // bare symbol: templates, slots, operators, keywords
  Variable,  // ?name
  Integer,
  Float,
  String,    // "..."; becomes a symbol constant
  End,
};

struct Token {
  TokenKind kind = TokenKind::End;
  /// A view into the source: Name/Variable (without '?') text, or a
  /// String's contents with its backslash escapes still in place.
  std::string_view text;
  std::int64_t int_value = 0;
  double float_value = 0.0;
  int line = 0;
};

}  // namespace parulel
