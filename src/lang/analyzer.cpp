#include "lang/analyzer.hpp"

#include <map>
#include <string>
#include <unordered_map>

#include "support/error.hpp"

namespace parulel {
namespace {

/// Canonical encoding of an alpha spec for dedup.
std::vector<std::int64_t> alpha_key(const AlphaSpec& spec) {
  std::vector<std::int64_t> key;
  key.push_back(spec.tmpl);
  key.push_back(static_cast<std::int64_t>(spec.const_tests.size()));
  for (const auto& t : spec.const_tests) {
    key.push_back(t.slot);
    key.push_back(static_cast<std::int64_t>(t.value.kind()));
    switch (t.value.kind()) {
      case ValueKind::Int: key.push_back(t.value.as_int()); break;
      case ValueKind::Float: {
        double d = t.value.as_float();
        std::int64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        key.push_back(bits);
        break;
      }
      case ValueKind::Sym: key.push_back(t.value.as_sym()); break;
    }
  }
  for (const auto& e : spec.intra_eqs) {
    key.push_back(e.slot_a);
    key.push_back(e.slot_b);
  }
  return key;
}

/// Shared compilation state for one rule set (object or meta level).
class RuleCompiler {
 public:
  RuleCompiler(SymbolTable& symbols, const Schema& schema,
               std::vector<AlphaSpec>& alphas)
      : symbols_(symbols), schema_(schema), alphas_(alphas) {}

  CompiledRule compile(const RuleAst& ast, RuleId id) {
    CompiledRule rule;
    rule.id = id;
    rule.name = ast.name;
    rule.salience = ast.salience;
    rule.is_meta = ast.is_meta;

    var_ids_.clear();
    fact_vars_.clear();

    int source_pos = 0;
    for (const auto& ce : ast.lhs) {
      if (const auto* pat = std::get_if<PatternCEAst>(&ce)) {
        compile_pattern(*pat, rule, source_pos);
      } else {
        compile_test(std::get<TestCEAst>(ce), rule);
      }
      ++source_pos;
    }
    if (rule.positives.empty()) {
      throw ParseError("rule '" + rule_name(ast) +
                           "' has no positive condition elements",
                       ast.line);
    }

    rule.num_lhs_vars = static_cast<int>(var_ids_.size());
    rule.var_names.resize(var_ids_.size());
    for (const auto& [sym, vid] : var_ids_) {
      rule.var_names[static_cast<std::size_t>(vid)] = sym;
    }

    for (const auto& act : ast.rhs) {
      rule.actions.push_back(compile_action(act, ast, rule));
    }
    rule.num_vars = static_cast<int>(var_ids_.size());
    return rule;
  }

 private:
  std::string rule_name(const RuleAst& ast) const {
    return std::string(symbols_.name(ast.name));
  }

  TemplateId resolve_template(Symbol name, int line) const {
    if (auto id = schema_.find(name)) return *id;
    throw ParseError("unknown template '" +
                         std::string(symbols_.name(name)) + "'",
                     line);
  }

  int resolve_slot(TemplateId tmpl, Symbol slot, int line) const {
    if (auto idx = schema_.at(tmpl).slot_index(slot)) return *idx;
    throw ParseError("template '" +
                         std::string(symbols_.name(schema_.at(tmpl).name)) +
                         "' has no slot '" +
                         std::string(symbols_.name(slot)) + "'",
                     line);
  }

  std::uint32_t intern_alpha(AlphaSpec spec) {
    auto key = alpha_key(spec);
    if (auto it = alpha_index_.find(key); it != alpha_index_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(alphas_.size());
    alphas_.push_back(std::move(spec));
    alpha_index_.emplace(std::move(key), id);
    return id;
  }

  void compile_pattern(const PatternCEAst& ast, CompiledRule& rule,
                       int source_pos) {
    CompiledPattern pat;
    pat.tmpl = resolve_template(ast.tmpl, ast.line);
    pat.negated = ast.negated;
    pat.exists = ast.exists;

    // Local map: variable -> first slot within this pattern (for
    // intra-pattern equality and for negated-CE local variables).
    std::unordered_map<Symbol, int> local_first;

    for (const auto& slot_ast : ast.slots) {
      const int slot = resolve_slot(pat.tmpl, slot_ast.slot, ast.line);
      switch (slot_ast.kind) {
        case SlotPatternAst::Kind::Const:
          pat.const_tests.push_back({slot, slot_ast.constant});
          break;
        case SlotPatternAst::Kind::Wildcard:
          break;
        case SlotPatternAst::Kind::Var: {
          const Symbol v = slot_ast.var;
          // A repeat within THIS pattern is an intra-pattern equality
          // (alpha test) even when the variable is also rule-bound: the
          // join machinery applies join_eqs before this fact's defines,
          // so the second occurrence must not be a join test.
          if (auto lit = local_first.find(v); lit != local_first.end()) {
            pat.intra_eqs.push_back({lit->second, slot});
          } else if (auto it = var_ids_.find(v); it != var_ids_.end()) {
            // Bound by an earlier pattern: beta join test.
            pat.join_eqs.push_back({slot, it->second});
            local_first.emplace(v, slot);
          } else if (ast.negated) {
            // Negated CEs bind no rule variables; first occurrence is an
            // existential local.
            local_first.emplace(v, slot);
          } else {
            const auto vid = static_cast<VarId>(var_ids_.size());
            var_ids_.emplace(v, vid);
            local_first.emplace(v, slot);
            pat.defines.push_back({slot, vid});
          }
          break;
        }
      }
    }

    AlphaSpec spec{pat.tmpl, pat.const_tests, pat.intra_eqs};
    pat.alpha = intern_alpha(std::move(spec));

    if (ast.negated) {
      if (ast.fact_var != 0) {
        throw ParseError("negated pattern cannot bind a fact variable",
                         ast.line);
      }
      rule.negatives.push_back(std::move(pat));
      return;
    }

    if (ast.fact_var != 0) {
      if (var_ids_.contains(ast.fact_var) ||
          fact_vars_.contains(ast.fact_var)) {
        throw ParseError("fact variable name already in use", ast.line);
      }
      fact_vars_.emplace(ast.fact_var,
                         static_cast<int>(rule.positives.size()));
    }
    rule.positives.push_back(std::move(pat));
    rule.source_positions.push_back(source_pos);
    rule.guards.emplace_back();
  }

  void compile_test(const TestCEAst& ast, CompiledRule& rule) {
    if (rule.positives.empty()) {
      throw ParseError("(test ...) before any positive pattern", ast.line);
    }
    CompiledExpr expr = compile_expr(ast.expr);
    std::vector<VarId> used;
    expr.collect_vars(used);
    // Verify every variable is bound by the positives seen so far.
    for (VarId v : used) {
      if (v < 0 || v >= static_cast<VarId>(var_ids_.size())) {
        throw ParseError("test references unbound variable", ast.line);
      }
    }
    rule.guards.back().push_back(std::move(expr));
  }

  CompiledExpr compile_expr(const ExprAst& ast) {
    switch (ast.kind) {
      case ExprAst::Kind::Const:
        return CompiledExpr::make_const(ast.constant);
      case ExprAst::Kind::Var: {
        if (auto it = var_ids_.find(ast.var); it != var_ids_.end()) {
          return CompiledExpr::make_var(it->second);
        }
        throw ParseError("unbound variable '?" +
                             std::string(symbols_.name(ast.var)) + "'",
                         ast.line);
      }
      case ExprAst::Kind::Call: {
        CompiledExpr e;
        e.op = resolve_op(ast);
        for (const auto& arg : ast.args) e.args.push_back(compile_expr(arg));
        check_arity(e, ast);
        return e;
      }
    }
    throw ParseError("bad expression", ast.line);
  }

  ExprOp resolve_op(const ExprAst& ast) const {
    const std::string_view op = symbols_.name(ast.op);
    if (op == "+") return ExprOp::Add;
    if (op == "-") return ast.args.size() == 1 ? ExprOp::Neg : ExprOp::Sub;
    if (op == "*") return ExprOp::Mul;
    if (op == "/" || op == "div") return ExprOp::Div;
    if (op == "mod") return ExprOp::Mod;
    if (op == "min") return ExprOp::Min;
    if (op == "max") return ExprOp::Max;
    if (op == "abs") return ExprOp::Abs;
    if (op == "<") return ExprOp::Lt;
    if (op == "<=") return ExprOp::Le;
    if (op == ">") return ExprOp::Gt;
    if (op == ">=") return ExprOp::Ge;
    if (op == "=" || op == "==" || op == "eq") return ExprOp::Eq;
    if (op == "!=" || op == "<>" || op == "neq") return ExprOp::Ne;
    if (op == "and") return ExprOp::And;
    if (op == "or") return ExprOp::Or;
    if (op == "not") return ExprOp::Not;
    throw ParseError("unknown operator '" + std::string(op) + "'", ast.line);
  }

  void check_arity(const CompiledExpr& e, const ExprAst& ast) const {
    const std::size_t n = e.args.size();
    bool ok = true;
    switch (e.op) {
      case ExprOp::Neg: case ExprOp::Abs: case ExprOp::Not:
        ok = (n == 1);
        break;
      case ExprOp::Lt: case ExprOp::Le: case ExprOp::Gt: case ExprOp::Ge:
      case ExprOp::Eq: case ExprOp::Ne:
        ok = (n == 2);
        break;
      case ExprOp::Add: case ExprOp::Sub: case ExprOp::Mul: case ExprOp::Div:
      case ExprOp::Mod: case ExprOp::Min: case ExprOp::Max:
      case ExprOp::And: case ExprOp::Or:
        ok = (n >= 2);
        break;
      default:
        break;
    }
    if (!ok) {
      throw ParseError("wrong operand count for operator", ast.line);
    }
  }

  CompiledAction compile_action(const ActionAst& ast, const RuleAst& rule_ast,
                                CompiledRule& rule) {
    CompiledAction act;
    switch (ast.kind) {
      case ActionAst::Kind::Assert: {
        act.kind = CompiledAction::Kind::Assert;
        act.tmpl = resolve_template(ast.tmpl, ast.line);
        const TemplateDef& def = schema_.at(act.tmpl);
        act.slot_values.assign(static_cast<std::size_t>(def.arity()),
                               CompiledExpr{});
        std::vector<bool> seen(static_cast<std::size_t>(def.arity()), false);
        for (const auto& [slot_sym, expr] : ast.slot_exprs) {
          const int slot = resolve_slot(act.tmpl, slot_sym, ast.line);
          if (seen[static_cast<std::size_t>(slot)]) {
            throw ParseError("slot assigned twice in assert", ast.line);
          }
          seen[static_cast<std::size_t>(slot)] = true;
          act.slot_values[static_cast<std::size_t>(slot)] =
              compile_expr(expr);
        }
        for (std::size_t i = 0; i < seen.size(); ++i) {
          if (!seen[i]) {
            throw ParseError(
                "assert must give every slot a value (missing '" +
                    std::string(symbols_.name(def.slot_names[i])) + "')",
                ast.line);
          }
        }
        break;
      }
      case ActionAst::Kind::Retract:
      case ActionAst::Kind::Modify: {
        act.kind = ast.kind == ActionAst::Kind::Retract
                       ? CompiledAction::Kind::Retract
                       : CompiledAction::Kind::Modify;
        auto it = fact_vars_.find(ast.fact_var);
        if (it == fact_vars_.end()) {
          throw ParseError("unknown fact variable '?" +
                               std::string(symbols_.name(ast.fact_var)) + "'",
                           ast.line);
        }
        act.ce_index = it->second;
        if (act.kind == CompiledAction::Kind::Modify) {
          const TemplateId tmpl =
              rule.positives[static_cast<std::size_t>(act.ce_index)].tmpl;
          for (const auto& [slot_sym, expr] : ast.slot_exprs) {
            const int slot = resolve_slot(tmpl, slot_sym, ast.line);
            act.slot_updates.emplace_back(slot, compile_expr(expr));
          }
          if (act.slot_updates.empty()) {
            throw ParseError("modify with no slot updates", ast.line);
          }
        }
        break;
      }
      case ActionAst::Kind::Bind: {
        act.kind = CompiledAction::Kind::Bind;
        if (var_ids_.contains(ast.bind_var)) {
          throw ParseError("bind cannot rebind an existing variable",
                           ast.line);
        }
        const auto vid = static_cast<VarId>(var_ids_.size());
        var_ids_.emplace(ast.bind_var, vid);
        act.bind_var = vid;
        act.args.push_back(compile_expr(ast.args.at(0)));
        break;
      }
      case ActionAst::Kind::Halt:
        if (rule_ast.is_meta) {
          throw ParseError("halt is not valid in a meta-rule", ast.line);
        }
        act.kind = CompiledAction::Kind::Halt;
        break;
      case ActionAst::Kind::Printout: {
        act.kind = CompiledAction::Kind::Printout;
        for (const auto& arg : ast.args) {
          act.args.push_back(compile_expr(arg));
        }
        break;
      }
      case ActionAst::Kind::Redact: {
        if (!rule_ast.is_meta) {
          throw ParseError("redact is only valid in defmetarule", ast.line);
        }
        act.kind = CompiledAction::Kind::Redact;
        act.args.push_back(compile_expr(ast.args.at(0)));
        break;
      }
    }
    return act;
  }

  SymbolTable& symbols_;
  const Schema& schema_;
  std::vector<AlphaSpec>& alphas_;
  std::map<std::vector<std::int64_t>, std::uint32_t> alpha_index_;

  std::unordered_map<Symbol, VarId> var_ids_;
  std::unordered_map<Symbol, int> fact_vars_;
};

/// Mark a meta-rule existential (CompiledRule::target_ce) when its only
/// action is (redact ?v) and ?v is defined on the id slot of a positive
/// CE. Every meta template's slot 0 is `id`.
void mark_existential(CompiledRule& rule) {
  if (rule.actions.size() != 1) return;
  const CompiledAction& act = rule.actions.front();
  if (act.kind != CompiledAction::Kind::Redact ||
      act.args.front().op != ExprOp::Var) {
    return;
  }
  for (std::size_t p = 0; p < rule.positives.size(); ++p) {
    for (const auto& def : rule.positives[p].defines) {
      if (def.slot == 0 && def.var == act.args.front().var) {
        rule.target_ce = static_cast<int>(p);
        return;
      }
    }
  }
}

GroundFact lower_ground_fact(const PatternCEAst& pat, const Schema& schema,
                             SymbolTable& symbols) {
  auto tmpl = schema.find(pat.tmpl);
  if (!tmpl) {
    throw ParseError("deffacts references unknown template '" +
                         std::string(symbols.name(pat.tmpl)) + "'",
                     pat.line);
  }
  const TemplateDef& def = schema.at(*tmpl);
  GroundFact fact;
  fact.tmpl = *tmpl;
  fact.slots.assign(static_cast<std::size_t>(def.arity()), Value{});
  std::vector<bool> seen(static_cast<std::size_t>(def.arity()), false);
  for (const auto& slot_ast : pat.slots) {
    if (slot_ast.kind != SlotPatternAst::Kind::Const) {
      throw ParseError("deffacts facts must be ground (no variables)",
                       pat.line);
    }
    auto idx = def.slot_index(slot_ast.slot);
    if (!idx) throw ParseError("unknown slot in deffacts", pat.line);
    fact.slots[static_cast<std::size_t>(*idx)] = slot_ast.constant;
    seen[static_cast<std::size_t>(*idx)] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      throw ParseError("deffacts fact missing slot '" +
                           std::string(symbols.name(def.slot_names[i])) + "'",
                       pat.line);
    }
  }
  return fact;
}

}  // namespace

Program analyze(const ProgramAst& ast, std::shared_ptr<SymbolTable> symbols) {
  Program prog;
  prog.symbols = std::move(symbols);
  SymbolTable& syms = *prog.symbols;

  // 1. Templates.
  for (const auto& tmpl : ast.templates) {
    try {
      prog.schema.define(tmpl.name, tmpl.slots);
    } catch (const ParseError& e) {
      throw ParseError(e.what(), tmpl.line);
    }
  }

  // 2. Object rules.
  RuleCompiler object_compiler(syms, prog.schema, prog.alphas);
  for (const auto& rule_ast : ast.rules) {
    if (rule_ast.is_meta) continue;
    prog.rules.push_back(object_compiler.compile(
        rule_ast, static_cast<RuleId>(prog.rules.size())));
  }

  // 3. Meta schema: (inst-<rule> (slot id) (slot <var>)...) per rule.
  const Symbol id_sym = syms.intern("id");
  prog.inst_templates.reserve(prog.rules.size());
  for (const auto& rule : prog.rules) {
    std::vector<Symbol> slots;
    slots.push_back(id_sym);
    for (int v = 0; v < rule.num_lhs_vars; ++v) {
      const Symbol name = rule.var_names[static_cast<std::size_t>(v)];
      if (name == id_sym) {
        throw ParseError("variable name 'id' is reserved (rule '" +
                         std::string(syms.name(rule.name)) + "')");
      }
      slots.push_back(name);
    }
    const Symbol inst_name =
        syms.intern("inst-" + std::string(syms.name(rule.name)));
    prog.inst_templates.push_back(
        prog.meta_schema.define(inst_name, std::move(slots)));
  }

  // 4. Meta rules against the meta schema.
  RuleCompiler meta_compiler(syms, prog.meta_schema, prog.meta_alphas);
  for (const auto& rule_ast : ast.rules) {
    if (!rule_ast.is_meta) continue;
    prog.meta_rules.push_back(meta_compiler.compile(
        rule_ast, static_cast<RuleId>(prog.meta_rules.size())));
    mark_existential(prog.meta_rules.back());
  }

  // 5. Initial facts.
  for (const auto& df : ast.facts) {
    for (const auto& pat : df.facts) {
      prog.initial_facts.push_back(lower_ground_fact(pat, prog.schema, syms));
    }
  }

  return prog;
}

}  // namespace parulel
