#include "lang/printer.hpp"

#include <cstdio>
#include <sstream>

#include "lang/lexer.hpp"
#include "support/error.hpp"

namespace parulel {

namespace {

/// Print a symbol so it re-lexes to the same Symbol: bare when it lexes
/// as exactly one Name token, as a quoted string otherwise (so "42",
/// "=>" and "a#b" stay symbols).
void print_symbol(std::ostream& os, std::string_view name) {
  bool bare = false;
  try {
    const Token t = Lexer(name).next();
    bare = t.kind == TokenKind::Name && t.text.size() == name.size();
  } catch (const ParseError&) {
  }
  if (bare) {
    os << name;
    return;
  }
  os << '"';
  for (char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// Print a constant so it re-lexes to the same Value. Floats get
/// max_digits10 precision and a guaranteed '.'/exponent so the lexer
/// sees a Float token again, not an Integer.
void print_value(std::ostream& os, const Value& v, const SymbolTable& sym) {
  switch (v.kind()) {
    case ValueKind::Int:
      os << v.as_int();
      return;
    case ValueKind::Float: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.as_float());
      std::string text = buf;
      if (text.find_first_of(".eE") == std::string::npos) text += ".0";
      os << text;
      return;
    }
    case ValueKind::Sym:
      print_symbol(os, sym.name(v.as_sym()));
      return;
  }
}

void print_expr(std::ostream& os, const ExprAst& e, const SymbolTable& sym) {
  switch (e.kind) {
    case ExprAst::Kind::Const:
      print_value(os, e.constant, sym);
      return;
    case ExprAst::Kind::Var:
      os << '?' << sym.name(e.var);
      return;
    case ExprAst::Kind::Call:
      os << '(' << sym.name(e.op);
      for (const ExprAst& a : e.args) {
        os << ' ';
        print_expr(os, a, sym);
      }
      os << ')';
      return;
  }
}

/// The bare `(tmpl (slot ...) ...)` form, without not/exists wrappers.
void print_pattern_body(std::ostream& os, const PatternCEAst& pat,
                        const SymbolTable& sym) {
  os << '(' << sym.name(pat.tmpl);
  for (const SlotPatternAst& s : pat.slots) {
    os << " (" << sym.name(s.slot) << ' ';
    switch (s.kind) {
      case SlotPatternAst::Kind::Const:
        print_value(os, s.constant, sym);
        break;
      case SlotPatternAst::Kind::Var:
        os << '?' << sym.name(s.var);
        break;
      case SlotPatternAst::Kind::Wildcard:
        os << '?';
        break;
    }
    os << ')';
  }
  os << ')';
}

void print_ce(std::ostream& os, const CEAst& ce, const SymbolTable& sym) {
  if (const auto* test = std::get_if<TestCEAst>(&ce)) {
    os << "  (test ";
    print_expr(os, test->expr, sym);
    os << ")\n";
    return;
  }
  const auto& pat = std::get<PatternCEAst>(ce);
  os << "  ";
  if (pat.fact_var != 0) os << '?' << sym.name(pat.fact_var) << " <- ";
  if (pat.negated) os << (pat.exists ? "(exists " : "(not ");
  print_pattern_body(os, pat, sym);
  if (pat.negated) os << ')';
  os << '\n';
}

void print_action(std::ostream& os, const ActionAst& act,
                  const SymbolTable& sym) {
  os << "  ";
  switch (act.kind) {
    case ActionAst::Kind::Assert:
      os << "(assert (" << sym.name(act.tmpl);
      for (const auto& [slot, expr] : act.slot_exprs) {
        os << " (" << sym.name(slot) << ' ';
        print_expr(os, expr, sym);
        os << ')';
      }
      os << "))";
      break;
    case ActionAst::Kind::Retract:
      os << "(retract ?" << sym.name(act.fact_var) << ')';
      break;
    case ActionAst::Kind::Modify:
      os << "(modify ?" << sym.name(act.fact_var);
      for (const auto& [slot, expr] : act.slot_exprs) {
        os << " (" << sym.name(slot) << ' ';
        print_expr(os, expr, sym);
        os << ')';
      }
      os << ')';
      break;
    case ActionAst::Kind::Bind:
      os << "(bind ?" << sym.name(act.bind_var) << ' ';
      print_expr(os, act.args[0], sym);
      os << ')';
      break;
    case ActionAst::Kind::Halt:
      os << "(halt)";
      break;
    case ActionAst::Kind::Printout:
      os << "(printout";
      for (const ExprAst& a : act.args) {
        os << ' ';
        print_expr(os, a, sym);
      }
      os << ')';
      break;
    case ActionAst::Kind::Redact:
      os << "(redact ";
      print_expr(os, act.args[0], sym);
      os << ')';
      break;
  }
  os << '\n';
}

}  // namespace

std::string print_ast(const ProgramAst& ast, const SymbolTable& symbols) {
  std::ostringstream os;
  for (const TemplateAst& t : ast.templates) {
    os << "(deftemplate " << symbols.name(t.name);
    for (Symbol slot : t.slots) os << " (slot " << symbols.name(slot) << ')';
    os << ")\n";
  }
  for (const RuleAst& r : ast.rules) {
    os << (r.is_meta ? "(defmetarule " : "(defrule ") << symbols.name(r.name)
       << '\n';
    if (r.salience != 0) {
      os << "  (declare (salience " << r.salience << "))\n";
    }
    for (const CEAst& ce : r.lhs) print_ce(os, ce, symbols);
    os << "  =>\n";
    for (const ActionAst& act : r.rhs) print_action(os, act, symbols);
    os << ")\n";
  }
  for (const DeffactsAst& df : ast.facts) {
    os << "(deffacts " << symbols.name(df.name) << '\n';
    for (const PatternCEAst& f : df.facts) {
      os << "  ";
      print_pattern_body(os, f, symbols);
      os << '\n';
    }
    os << ")\n";
  }
  return os.str();
}

std::string print_fact(TemplateId tmpl, std::span<const Value> slots,
                       const Schema& schema, const SymbolTable& symbols) {
  const TemplateDef& def = schema.at(tmpl);
  std::ostringstream os;
  os << "(" << symbols.name(def.name);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    os << " (" << symbols.name(def.slot_names[i]) << " ";
    print_value(os, slots[i], symbols);
    os << ")";
  }
  os << ")";
  return os.str();
}

std::string dump_state(const WorkingMemory& wm, const SymbolTable& symbols,
                       std::string_view deffacts_name) {
  const Schema& schema = wm.schema();
  std::ostringstream os;
  for (TemplateId t = 0; t < schema.size(); ++t) {
    const TemplateDef& def = schema.at(t);
    os << "(deftemplate " << symbols.name(def.name);
    for (Symbol slot : def.slot_names) {
      os << " (slot " << symbols.name(slot) << ")";
    }
    os << ")\n";
  }
  os << "(deffacts " << deffacts_name << "\n";
  for (FactId id = 1; id <= wm.high_water(); ++id) {
    if (!wm.alive(id)) continue;
    os << "  " << print_fact(wm.view(id), schema, symbols) << "\n";
  }
  os << ")\n";
  return os.str();
}

}  // namespace parulel
