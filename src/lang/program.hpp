// The compiled program: what engines and matchers execute.
//
// Lowered from the AST by the analyzer. Every name is resolved: templates
// to TemplateIds, slots to positions, variables to dense per-rule VarIds.
// The meta level is a second compiled ruleset over an auto-generated meta
// schema (`inst-<rule>` templates), see meta/reify.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lang/expr.hpp"
#include "support/symbol_table.hpp"
#include "wm/fact.hpp"
#include "wm/schema.hpp"

namespace parulel {

using RuleId = std::uint32_t;

/// A compiled pattern condition element.
struct CompiledPattern {
  TemplateId tmpl = kInvalidTemplate;
  bool negated = false;
  /// Only for quantified CEs (stored in CompiledRule::negatives): when
  /// true the CE requires AT LEAST ONE matching fact ((exists ...)),
  /// when false it requires none ((not ...)).
  bool exists = false;

  /// Slot must equal a constant (alpha test).
  struct ConstTest {
    int slot;
    Value value;
  };
  std::vector<ConstTest> const_tests;

  /// Two slots of *this* fact must be equal (same variable twice within
  /// one pattern; alpha test).
  struct IntraEq {
    int slot_a;
    int slot_b;
  };
  std::vector<IntraEq> intra_eqs;

  /// Slots that *define* a variable (first occurrence across the rule).
  struct Binding {
    int slot;
    VarId var;
  };
  std::vector<Binding> defines;

  /// Slots that must equal an already-bound variable (beta join test).
  struct JoinEq {
    int slot;
    VarId var;
  };
  std::vector<JoinEq> join_eqs;

  /// Key identifying the alpha memory this pattern selects from
  /// (assigned by the analyzer; patterns with equal (tmpl, const_tests,
  /// intra_eqs) share an alpha memory).
  std::uint32_t alpha = 0;
};

/// A compiled RHS action.
struct CompiledAction {
  enum class Kind : std::uint8_t {
    Assert, Retract, Modify, Bind, Halt, Printout, Redact
  };
  Kind kind = Kind::Halt;

  TemplateId tmpl = kInvalidTemplate;        // Assert
  std::vector<CompiledExpr> slot_values;     // Assert: one per slot, in order
  std::vector<std::pair<int, CompiledExpr>> slot_updates;  // Modify
  int ce_index = -1;    // Retract/Modify: index into positive-CE fact list
  VarId bind_var = kInvalidVar;              // Bind
  std::vector<CompiledExpr> args;            // Bind body / Printout / Redact
};

/// A compiled rule (object- or meta-level).
struct CompiledRule {
  RuleId id = 0;
  Symbol name = 0;
  int salience = 0;
  bool is_meta = false;

  /// Positive patterns in join order (source order of positive CEs).
  std::vector<CompiledPattern> positives;
  /// Quantified patterns ((not ...) and (exists ...)), each checked
  /// after the full positive join.
  std::vector<CompiledPattern> negatives;

  /// guards[k] = tests evaluable once positives[0..k] are bound;
  /// guards has positives.size() entries (empty rules are rejected).
  std::vector<std::vector<CompiledExpr>> guards;

  std::vector<CompiledAction> actions;

  int num_lhs_vars = 0;  ///< VarIds [0, num_lhs_vars) bound by the LHS
  int num_vars = 0;      ///< including RHS bind locals
  /// Source names of LHS variables (index = VarId); used for reification.
  std::vector<Symbol> var_names;

  /// Original source CE position of each positive pattern (for MEA and
  /// diagnostics).
  std::vector<int> source_positions;

  /// Meta-rules only: the positive CE whose `id` slot defines ?v when
  /// the rule's sole action is `(redact ?v)`, else -1. Redaction is
  /// idempotent, so such a rule is *existential*: one match per target
  /// decides it, and the meta engine queries for a witness per target
  /// instead of enumerating and firing every match.
  int target_ce = -1;
  bool existential() const { return target_ce >= 0; }
};

/// One alpha memory specification (shared across patterns and rules).
struct AlphaSpec {
  TemplateId tmpl = kInvalidTemplate;
  std::vector<CompiledPattern::ConstTest> const_tests;
  std::vector<CompiledPattern::IntraEq> intra_eqs;

  /// Does a fact (of matching template) pass the alpha tests?
  /// `fact` is anything with slot(i) -> Value — a FactView, or the
  /// adapter tests wrap around a plain slot vector.
  template <typename FactLike>
  bool accepts(const FactLike& fact) const {
    for (const auto& t : const_tests) {
      if (fact.slot(static_cast<std::size_t>(t.slot)) != t.value) return false;
    }
    for (const auto& e : intra_eqs) {
      if (fact.slot(static_cast<std::size_t>(e.slot_a)) !=
          fact.slot(static_cast<std::size_t>(e.slot_b))) {
        return false;
      }
    }
    return true;
  }
};

/// Ground fact ready to assert.
struct GroundFact {
  TemplateId tmpl = kInvalidTemplate;
  std::vector<Value> slots;
};

/// A fully compiled program. Immutable once built; shared by engines.
struct Program {
  std::shared_ptr<SymbolTable> symbols;

  Schema schema;                 ///< object-level templates
  std::vector<CompiledRule> rules;
  std::vector<AlphaSpec> alphas;

  Schema meta_schema;            ///< inst-<rule> templates
  std::vector<CompiledRule> meta_rules;
  std::vector<AlphaSpec> meta_alphas;
  /// meta template id for each object rule (index = RuleId).
  std::vector<TemplateId> inst_templates;

  std::vector<GroundFact> initial_facts;

  /// Rule lookup by name (object level), or nullptr.
  const CompiledRule* find_rule(std::string_view name) const;
};

/// Parse + analyze a full program text.
/// Throws ParseError on syntax or semantic errors.
Program parse_program(std::string_view source,
                      std::shared_ptr<SymbolTable> symbols = nullptr);

}  // namespace parulel
