#include "lang/parser.hpp"

#include <optional>
#include <string>
#include <utility>

#include "lang/lexer.hpp"
#include "support/error.hpp"

namespace parulel {
namespace {

/// Pulls tokens from a Lexer, with helpers for the s-expression shape.
class Parser {
 public:
  Parser(std::string_view source, SymbolTable& symbols)
      : lexer_(source), symbols_(symbols), cur_(lexer_.next()) {}

  ProgramAst parse_program() {
    ProgramAst out;
    while (!at(TokenKind::End)) {
      expect(TokenKind::LParen, "top-level form");
      const Token head = expect(TokenKind::Name, "form keyword");
      if (head.text == "deftemplate") {
        out.templates.push_back(parse_template());
      } else if (head.text == "defrule") {
        out.rules.push_back(parse_rule(/*is_meta=*/false));
      } else if (head.text == "defmetarule") {
        out.rules.push_back(parse_rule(/*is_meta=*/true));
      } else if (head.text == "deffacts") {
        out.facts.push_back(parse_deffacts());
      } else {
        throw ParseError(
            "unknown top-level form '" + std::string(head.text) + "'",
            head.line);
      }
    }
    return out;
  }

 private:
  bool at(TokenKind k) const { return cur_.kind == k; }

  /// The token after cur_, lexed on demand: only `(declare` needs it.
  const Token& peek_second() {
    if (!second_) second_ = lexer_.next();
    return *second_;
  }

  Token advance() {
    Token t = std::exchange(cur_, second_ ? *second_ : lexer_.next());
    second_.reset();
    return t;
  }

  Token expect(TokenKind k, const char* what) {
    if (!at(k)) {
      throw ParseError(std::string("expected ") + what + ", found '" +
                           unescape(cur_.text) + "'",
                       cur_.line);
    }
    return advance();
  }

  /// Only a string literal can hold a backslash: its escapes are
  /// resolved here, the one place token text is copied.
  Symbol intern(std::string_view text) {
    return symbols_.intern(text.find('\\') == std::string_view::npos
                               ? text
                               : std::string_view(unescape(text)));
  }

  TemplateAst parse_template() {
    TemplateAst tmpl;
    tmpl.line = cur_.line;
    tmpl.name = intern(expect(TokenKind::Name, "template name").text);
    while (at(TokenKind::LParen)) {
      advance();
      const Token kw = expect(TokenKind::Name, "'slot'");
      if (kw.text != "slot") {
        throw ParseError("expected (slot name) in deftemplate", kw.line);
      }
      tmpl.slots.push_back(intern(expect(TokenKind::Name, "slot name").text));
      expect(TokenKind::RParen, "')'");
    }
    expect(TokenKind::RParen, "')' closing deftemplate");
    return tmpl;
  }

  DeffactsAst parse_deffacts() {
    DeffactsAst df;
    df.line = cur_.line;
    df.name = intern(expect(TokenKind::Name, "deffacts name").text);
    while (at(TokenKind::LParen)) {
      df.facts.push_back(parse_pattern(/*negated=*/false));
    }
    expect(TokenKind::RParen, "')' closing deffacts");
    return df;
  }

  RuleAst parse_rule(bool is_meta) {
    RuleAst rule;
    rule.is_meta = is_meta;
    rule.line = cur_.line;
    rule.name = intern(expect(TokenKind::Name, "rule name").text);

    // Optional (declare (salience N)).
    if (at(TokenKind::LParen) && peek_second().kind == TokenKind::Name &&
        peek_second().text == "declare") {
      advance();  // (
      advance();  // declare
      expect(TokenKind::LParen, "'(salience N)'");
      const Token kw = expect(TokenKind::Name, "'salience'");
      if (kw.text != "salience") {
        throw ParseError("only (salience N) is supported in declare", kw.line);
      }
      rule.salience = static_cast<int>(
          expect(TokenKind::Integer, "salience value").int_value);
      expect(TokenKind::RParen, "')'");
      expect(TokenKind::RParen, "')' closing declare");
    }

    // LHS condition elements until `=>`.
    while (!at(TokenKind::Arrow)) {
      rule.lhs.push_back(parse_ce());
    }
    advance();  // =>

    // RHS actions until the closing paren of the rule.
    while (at(TokenKind::LParen)) {
      rule.rhs.push_back(parse_action());
    }
    expect(TokenKind::RParen, "')' closing rule");
    return rule;
  }

  CEAst parse_ce() {
    // Either `?f <- (pattern)` or `(pattern)` / `(not (pattern))` /
    // `(test expr)`.
    if (at(TokenKind::Variable)) {
      const Token var = advance();
      const Token arrow = expect(TokenKind::Name, "'<-'");
      if (arrow.text != "<-") {
        throw ParseError("expected '<-' after fact variable", arrow.line);
      }
      PatternCEAst pat = parse_pattern(/*negated=*/false);
      if (var.text.empty()) {
        throw ParseError("fact variable must be named", var.line);
      }
      pat.fact_var = intern(var.text);
      return pat;
    }

    expect(TokenKind::LParen, "condition element");
    const Token head = expect(TokenKind::Name, "pattern head");
    if (head.text == "not") {
      PatternCEAst pat = parse_pattern(/*negated=*/true);
      expect(TokenKind::RParen, "')' closing not");
      return pat;
    }
    if (head.text == "exists") {
      PatternCEAst pat = parse_pattern(/*negated=*/true);
      pat.exists = true;
      expect(TokenKind::RParen, "')' closing exists");
      return pat;
    }
    if (head.text == "test") {
      TestCEAst test;
      test.line = head.line;
      test.expr = parse_expr();
      expect(TokenKind::RParen, "')' closing test");
      return test;
    }
    // Plain pattern: head was the template name; rewind conceptually by
    // parsing the body here.
    return parse_pattern_body(intern(head.text), head.line,
                              /*negated=*/false);
  }

  /// Parses `(tmpl (slot val)...)` including the opening paren.
  PatternCEAst parse_pattern(bool negated) {
    expect(TokenKind::LParen, "pattern");
    const Token head = expect(TokenKind::Name, "template name");
    return parse_pattern_body(intern(head.text), head.line, negated);
  }

  /// Parses slot constraints and the closing paren; head already consumed.
  PatternCEAst parse_pattern_body(Symbol tmpl, int line, bool negated) {
    PatternCEAst pat;
    pat.tmpl = tmpl;
    pat.negated = negated;
    pat.line = line;
    while (at(TokenKind::LParen)) {
      advance();
      SlotPatternAst slot;
      slot.slot = intern(expect(TokenKind::Name, "slot name").text);
      const Token v = advance();
      switch (v.kind) {
        case TokenKind::Variable:
          if (v.text.empty()) {
            slot.kind = SlotPatternAst::Kind::Wildcard;
          } else {
            slot.kind = SlotPatternAst::Kind::Var;
            slot.var = intern(v.text);
          }
          break;
        case TokenKind::Integer:
          slot.kind = SlotPatternAst::Kind::Const;
          slot.constant = Value::integer(v.int_value);
          break;
        case TokenKind::Float:
          slot.kind = SlotPatternAst::Kind::Const;
          slot.constant = Value::real(v.float_value);
          break;
        case TokenKind::Name:
        case TokenKind::String:
          slot.kind = SlotPatternAst::Kind::Const;
          slot.constant = Value::symbol(intern(v.text));
          break;
        default:
          throw ParseError("bad slot constraint", v.line);
      }
      expect(TokenKind::RParen, "')' closing slot");
      pat.slots.push_back(std::move(slot));
    }
    expect(TokenKind::RParen, "')' closing pattern");
    return pat;
  }

  /// The `(slot expr)...` updates of an assert or modify.
  void parse_slot_exprs(ActionAst& act) {
    while (at(TokenKind::LParen)) {
      advance();
      Symbol slot = intern(expect(TokenKind::Name, "slot name").text);
      act.slot_exprs.emplace_back(slot, parse_expr());
      expect(TokenKind::RParen, "')' closing slot value");
    }
  }

  ActionAst parse_action() {
    expect(TokenKind::LParen, "action");
    const Token head = expect(TokenKind::Name, "action keyword");
    ActionAst act;
    act.line = head.line;

    if (head.text == "assert") {
      act.kind = ActionAst::Kind::Assert;
      expect(TokenKind::LParen, "fact to assert");
      act.tmpl = intern(expect(TokenKind::Name, "template name").text);
      parse_slot_exprs(act);
      expect(TokenKind::RParen, "')' closing fact");
    } else if (head.text == "retract") {
      act.kind = ActionAst::Kind::Retract;
      const Token v = expect(TokenKind::Variable, "fact variable");
      if (v.text.empty()) throw ParseError("retract needs a named fact variable", v.line);
      act.fact_var = intern(v.text);
    } else if (head.text == "modify") {
      act.kind = ActionAst::Kind::Modify;
      const Token v = expect(TokenKind::Variable, "fact variable");
      if (v.text.empty()) throw ParseError("modify needs a named fact variable", v.line);
      act.fact_var = intern(v.text);
      parse_slot_exprs(act);
    } else if (head.text == "bind") {
      act.kind = ActionAst::Kind::Bind;
      const Token v = expect(TokenKind::Variable, "variable");
      if (v.text.empty()) throw ParseError("bind needs a named variable", v.line);
      act.bind_var = intern(v.text);
      act.args.push_back(parse_expr());
    } else if (head.text == "halt") {
      act.kind = ActionAst::Kind::Halt;
    } else if (head.text == "printout") {
      act.kind = ActionAst::Kind::Printout;
      while (!at(TokenKind::RParen)) act.args.push_back(parse_expr());
    } else if (head.text == "redact") {
      act.kind = ActionAst::Kind::Redact;
      act.args.push_back(parse_expr());
    } else {
      throw ParseError("unknown action '" + std::string(head.text) + "'",
                       head.line);
    }

    expect(TokenKind::RParen, "')' closing action");
    return act;
  }

  /// Calls nest at most this deep, which also bounds the recursion over
  /// ExprAst in the analyzer, the printer and its destructor.
  static constexpr int kMaxExprDepth = 256;

  ExprAst parse_expr(int depth = 1) {
    const Token t = advance();
    ExprAst e;
    e.line = t.line;
    switch (t.kind) {
      case TokenKind::Integer:
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::integer(t.int_value);
        return e;
      case TokenKind::Float:
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::real(t.float_value);
        return e;
      case TokenKind::String:
      case TokenKind::Name:
        // A bare name in expression position is a symbolic constant.
        e.kind = ExprAst::Kind::Const;
        e.constant = Value::symbol(intern(t.text));
        return e;
      case TokenKind::Variable:
        if (t.text.empty()) {
          throw ParseError("wildcard '?' is not valid in expressions",
                           t.line);
        }
        e.kind = ExprAst::Kind::Var;
        e.var = intern(t.text);
        return e;
      case TokenKind::LParen: {
        if (depth > kMaxExprDepth) {
          throw ParseError("expression nested deeper than " +
                               std::to_string(kMaxExprDepth) + " calls",
                           t.line);
        }
        e.kind = ExprAst::Kind::Call;
        e.op = intern(expect(TokenKind::Name, "operator").text);
        while (!at(TokenKind::RParen)) e.args.push_back(parse_expr(depth + 1));
        advance();  // )
        return e;
      }
      default:
        throw ParseError("bad expression", t.line);
    }
  }

  Lexer lexer_;
  SymbolTable& symbols_;
  Token cur_;
  std::optional<Token> second_;
};

}  // namespace

ProgramAst parse_ast(std::string_view source, SymbolTable& symbols) {
  return Parser(source, symbols).parse_program();
}

}  // namespace parulel
