// Runtime value type for fact slots and expression evaluation.
//
// PARULEL values are 64-bit integers, doubles, or interned symbols. The
// representation is a tagged 16-byte POD so facts can be hashed and
// compared without indirection.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include "support/symbol_table.hpp"

namespace parulel {

namespace detail {

/// splitmix64 finalizer: full-avalanche mixing. libstdc++'s
/// std::hash<int> is the identity, which produces structured collisions
/// in join keys and content fingerprints — mix properly instead.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace detail

enum class ValueKind : std::uint8_t { Int, Float, Sym };

/// A slot value: tagged union of int64, double, or Symbol.
///
/// Equality is exact (kind + payload); Int and Float never compare equal
/// even when numerically identical — production-system matching is
/// structural. Numeric *expressions* coerce explicitly (see expr.cpp).
class Value {
 public:
  constexpr Value() : kind_(ValueKind::Int), i_(0) {}

  static constexpr Value integer(std::int64_t v) {
    Value x;
    x.kind_ = ValueKind::Int;
    x.i_ = v;
    return x;
  }
  static constexpr Value real(double v) {
    Value x;
    x.kind_ = ValueKind::Float;
    x.f_ = v;
    return x;
  }
  static constexpr Value symbol(Symbol s) {
    Value x;
    x.kind_ = ValueKind::Sym;
    x.s_ = s;
    return x;
  }

  constexpr ValueKind kind() const { return kind_; }
  constexpr bool is_int() const { return kind_ == ValueKind::Int; }
  constexpr bool is_float() const { return kind_ == ValueKind::Float; }
  constexpr bool is_sym() const { return kind_ == ValueKind::Sym; }

  constexpr std::int64_t as_int() const { return i_; }
  constexpr double as_float() const { return f_; }
  constexpr Symbol as_sym() const { return s_; }

  /// Numeric view: Int and Float promote to double; symbols are an error
  /// the caller must have excluded.
  constexpr double numeric() const {
    return kind_ == ValueKind::Float ? f_ : static_cast<double>(i_);
  }

  /// Canonical 64-bit payload image for columnar storage (Int: the
  /// two's-complement bits; Float: the IEEE-754 bits; Sym: the
  /// zero-extended symbol id). hash() == mix64(raw_payload() ^ salt),
  /// so a store keeping (kind, payload) columns can cache value hashes
  /// without re-deriving them.
  constexpr std::uint64_t raw_payload() const {
    switch (kind_) {
      case ValueKind::Int: return static_cast<std::uint64_t>(i_);
      case ValueKind::Float: return std::bit_cast<std::uint64_t>(f_);
      case ValueKind::Sym: return static_cast<std::uint64_t>(s_);
    }
    return 0;
  }

  /// Rebuild a value from its (kind, payload) column image. Exact
  /// round-trip of raw_payload() for every kind.
  static constexpr Value from_raw(ValueKind kind, std::uint64_t payload) {
    switch (kind) {
      case ValueKind::Int: return integer(static_cast<std::int64_t>(payload));
      case ValueKind::Float: return real(std::bit_cast<double>(payload));
      case ValueKind::Sym: return symbol(static_cast<Symbol>(payload));
    }
    return Value{};
  }

  friend constexpr bool operator==(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case ValueKind::Int: return a.i_ == b.i_;
      case ValueKind::Float: return a.f_ == b.f_;
      case ValueKind::Sym: return a.s_ == b.s_;
    }
    return false;
  }
  friend constexpr bool operator!=(const Value& a, const Value& b) {
    return !(a == b);
  }

  /// Total order used by deterministic tie-breaking (kind first, payload
  /// second). Not a numeric order across kinds.
  friend constexpr bool operator<(const Value& a, const Value& b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    switch (a.kind_) {
      case ValueKind::Int: return a.i_ < b.i_;
      case ValueKind::Float: return a.f_ < b.f_;
      case ValueKind::Sym: return a.s_ < b.s_;
    }
    return false;
  }

  /// Inline: this is the single hottest leaf of the match layer (every
  /// join-key and content hash bottoms out here).
  std::size_t hash() const {
    const std::uint64_t kind_salt =
        static_cast<std::uint64_t>(kind_) * 0x9e3779b97f4a7c15ULL;
    switch (kind_) {
      case ValueKind::Int:
        return detail::mix64(static_cast<std::uint64_t>(i_) ^ kind_salt);
      case ValueKind::Float:
        return detail::mix64(std::bit_cast<std::uint64_t>(f_) ^ kind_salt);
      case ValueKind::Sym:
        return detail::mix64(static_cast<std::uint64_t>(s_) ^ kind_salt);
    }
    return kind_salt;
  }

  /// Render for diagnostics and printout actions.
  std::string to_string(const SymbolTable& symbols) const;
  /// Append to_string()'s text to `out` without a temporary string.
  void append_to(std::string& out, const SymbolTable& symbols) const;

 private:
  ValueKind kind_;
  union {
    std::int64_t i_;
    double f_;
    Symbol s_;
  };
};

/// FNV-style combine for hashing tuples of values.
inline std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace parulel

template <>
struct std::hash<parulel::Value> {
  std::size_t operator()(const parulel::Value& v) const { return v.hash(); }
};
