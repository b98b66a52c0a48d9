#include "lang/lexer.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>

#include "support/error.hpp"

namespace parulel {
namespace {

enum : std::uint8_t { kSpace = 1, kName = 2, kDigit = 4 };

/// Character classes of the "C" locale's isspace/isalnum, plus the
/// punctuation a name may contain.
constexpr std::array<std::uint8_t, 256> kClasses = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned char c : std::string_view(" \t\n\v\f\r")) t[c] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kName | kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = t[c - 'a' + 'A'] = kName;
  for (unsigned char c : std::string_view("-+*/<>=!_.&~%$:")) t[c] = kName;
  return t;
}();

bool is(char c, std::uint8_t cls) {
  return (kClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

/// True when `text` parses fully as a number; fills the token fields.
/// Only a digit, '-' or '.' can start one and digitless tokens ("-",
/// "-nan") are names, so other names ("+5", "inf") skip both conversions.
bool try_number(std::string_view text, Token& tok) {
  const auto digit = [](char c) { return is(c, kDigit); };
  if (!digit(text[0]) && ((text[0] != '-' && text[0] != '.') ||
                          std::none_of(text.begin(), text.end(), digit))) {
    return false;
  }
  const char* end = text.data() + text.size();
  std::int64_t iv = 0;
  auto ir = std::from_chars(text.data(), end, iv);
  if (ir.ec == std::errc{} && ir.ptr == end) {
    tok.kind = TokenKind::Integer;
    tok.int_value = iv;
    return true;
  }
  double fv = 0.0;
  auto fr = std::from_chars(text.data(), end, fv);
  if (fr.ec == std::errc{} && fr.ptr == end) {
    tok.kind = TokenKind::Float;
    tok.float_value = fv;
    return true;
  }
  return false;
}

}  // namespace

Token Lexer::next() {
  const std::size_t n = src_.size();
  for (; pos_ < n; ++pos_) {
    const char c = src_[pos_];
    if (c == ';') {
      while (pos_ + 1 < n && src_[pos_ + 1] != '\n') ++pos_;
    } else if (c == '\n') {
      ++line_;
    } else if (!is(c, kSpace)) {
      break;
    }
  }

  Token tok;
  tok.line = line_;
  if (pos_ >= n) return tok;
  const std::size_t start = pos_++;
  const char c = src_[start];
  if (c == '(' || c == ')') {
    tok.kind = c == '(' ? TokenKind::LParen : TokenKind::RParen;
    tok.text = src_.substr(start, 1);
    return tok;
  }
  if (c == '"') {
    while (pos_ < n && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < n) ++pos_;  // simple escapes
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    if (pos_ >= n) throw ParseError("unterminated string literal", line_);
    tok.kind = TokenKind::String;
    tok.text = src_.substr(start + 1, pos_ - start - 1);
    tok.line = line_;
    ++pos_;  // closing quote
    return tok;
  }
  if (c != '?' && !is(c, kName)) {
    throw ParseError(std::string("unexpected character '") + c + "'", line_);
  }
  while (pos_ < n && is(src_[pos_], kName)) ++pos_;
  const std::size_t from = c == '?' ? start + 1 : start;
  tok.text = src_.substr(from, pos_ - from);
  if (c == '?') {
    tok.kind = TokenKind::Variable;  // bare `?` (empty text) is a wildcard
  } else if (tok.text == "=>") {
    tok.kind = TokenKind::Arrow;
  } else if (!try_number(tok.text, tok)) {
    tok.kind = TokenKind::Name;
  }
  return tok;
}

std::string unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) ++i;
    out.push_back(text[i]);
  }
  return out;
}

}  // namespace parulel
