// Interned symbol table.
//
// All identifiers in a PARULEL program (template names, slot names, rule
// names, symbolic constants, variable names) are interned once and referred
// to by a dense 32-bit Symbol afterwards, so that matching and joining
// compare integers, never strings.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace parulel {

/// Dense handle for an interned string. Symbol 0 is always the empty string.
using Symbol = std::uint32_t;

/// Thread-safe append-only string interner.
///
/// Interning and `name()` both take the lock: `name()` indexes
/// `strings_`, which a concurrent `intern` may reallocate. The strings
/// themselves never move, so a returned view stays valid. The match
/// inner loops compare Symbols and never look names up.
class SymbolTable {
 public:
  SymbolTable();

  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Intern `text`, returning its stable Symbol. Idempotent.
  Symbol intern(std::string_view text);

  /// The text of a previously interned symbol.
  /// The returned view is stable for the lifetime of the table.
  std::string_view name(Symbol sym) const;

  /// Number of interned symbols (including the empty string).
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  // Deque-like storage: strings are heap-allocated once and never move.
  std::vector<std::unique_ptr<std::string>> strings_;
  std::unordered_map<std::string_view, Symbol> index_;
};

}  // namespace parulel
