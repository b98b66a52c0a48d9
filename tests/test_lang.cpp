// Unit tests: lexer, parser, printer, analyzer, compiled expressions, and
// a seeded mutation sweep over program text.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/program.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

// ---------------------------------------------------------------- lexer

/// Every token of `src` up to and including End.
std::vector<Token> lex_all(std::string_view src) {
  Lexer lexer(src);
  std::vector<Token> out;
  do {
    out.push_back(lexer.next());
  } while (out.back().kind != TokenKind::End);
  return out;
}

TEST(Lexer, BasicTokens) {
  const auto toks = lex_all("(defrule r1 ?x => (halt)) ; comment\n");
  ASSERT_GE(toks.size(), 9u);
  EXPECT_EQ(toks[0].kind, TokenKind::LParen);
  EXPECT_EQ(toks[1].kind, TokenKind::Name);
  EXPECT_EQ(toks[1].text, "defrule");
  EXPECT_EQ(toks[3].kind, TokenKind::Variable);
  EXPECT_EQ(toks[3].text, "x");
  EXPECT_EQ(toks[4].kind, TokenKind::Arrow);
  EXPECT_EQ(toks.back().kind, TokenKind::End);
}

TEST(Lexer, Numbers) {
  const auto toks = lex_all("42 -17 3.5 -0.25");
  EXPECT_EQ(toks[0].kind, TokenKind::Integer);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].kind, TokenKind::Integer);
  EXPECT_EQ(toks[1].int_value, -17);
  EXPECT_EQ(toks[2].kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(toks[2].float_value, 3.5);
  EXPECT_EQ(toks[3].kind, TokenKind::Float);
  EXPECT_DOUBLE_EQ(toks[3].float_value, -0.25);
}

TEST(Lexer, OperatorsAreNames) {
  const auto toks = lex_all("<= >= <> != + - * /");
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    EXPECT_EQ(toks[i].kind, TokenKind::Name) << i;
  }
}

TEST(Lexer, AnonymousWildcard) {
  const auto toks = lex_all("?");
  EXPECT_EQ(toks[0].kind, TokenKind::Variable);
  EXPECT_TRUE(toks[0].text.empty());
}

TEST(Lexer, Strings) {
  const auto toks = lex_all("\"hello world\"");
  EXPECT_EQ(toks[0].kind, TokenKind::String);
  EXPECT_EQ(toks[0].text, "hello world");
}

TEST(Lexer, UnterminatedStringThrows) {
  EXPECT_THROW(lex_all("\"oops"), ParseError);
}

TEST(Lexer, CommentsRunToEndOfLine) {
  const auto toks = lex_all("; all comment\nfoo");
  EXPECT_EQ(toks[0].kind, TokenKind::Name);
  EXPECT_EQ(toks[0].text, "foo");
  EXPECT_EQ(toks[0].line, 2);
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = lex_all("a\nb\n\nc");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[2].line, 4);
}

TEST(Lexer, EndRepeatsOnceExhausted) {
  Lexer lexer("a");
  EXPECT_EQ(lexer.next().kind, TokenKind::Name);
  EXPECT_EQ(lexer.next().kind, TokenKind::End);
  EXPECT_EQ(lexer.next().kind, TokenKind::End);
}

TEST(Lexer, StringTextKeepsEscapesUntilUnescaped) {
  const Token t = Lexer(R"("a\"b\\c")").next();
  EXPECT_EQ(t.kind, TokenKind::String);
  EXPECT_EQ(t.text, R"(a\"b\\c)");
  EXPECT_EQ(unescape(t.text), R"(a"b\c)");
}

TEST(Lexer, StringTokenCarriesItsClosingLine) {
  const auto toks = lex_all("\"a\nb\" c");
  EXPECT_EQ(toks[0].line, 2);
  EXPECT_EQ(toks[1].line, 2);
}

TEST(Lexer, EscapedNewlineInStringCountsALine) {
  const auto toks = lex_all("\"a\\\nb\" c");
  EXPECT_EQ(unescape(toks[0].text), "a\nb");
  EXPECT_EQ(toks[1].line, 2);
}

// Token classification pinned against the original whole-file lexer: each
// row's kind and value must survive any rewrite of the lexer.
Token first_token(std::string_view src) { return Lexer(src).next(); }

TEST(LexerPin, ClassificationTable) {
  struct Row {
    const char* src;
    TokenKind kind;
    const char* text;  // expected Name/Variable text, or nullptr
    std::int64_t int_value;
    double float_value;
  };
  const Row rows[] = {
      {"-", TokenKind::Name, "-", 0, 0},
      {"+5", TokenKind::Name, "+5", 0, 0},
      {".5", TokenKind::Float, nullptr, 0, 0.5},
      {"-.5", TokenKind::Float, nullptr, 0, -0.5},
      {"1e5", TokenKind::Float, nullptr, 0, 1e5},
      {"1e", TokenKind::Name, "1e", 0, 0},
      {"e5", TokenKind::Name, "e5", 0, 0},
      {"inf", TokenKind::Name, "inf", 0, 0},
      {"-inf", TokenKind::Name, "-inf", 0, 0},
      {"-nan", TokenKind::Name, "-nan", 0, 0},
      {"0x1f", TokenKind::Name, "0x1f", 0, 0},
      {"9223372036854775807", TokenKind::Integer, nullptr,
       9223372036854775807LL, 0},
      {"9223372036854775808", TokenKind::Float, nullptr, 0,
       9223372036854775808.0},
      {"-0", TokenKind::Integer, nullptr, 0, 0},
      {"007", TokenKind::Integer, nullptr, 7, 0},
      {"1-2", TokenKind::Name, "1-2", 0, 0},
      {"1.5.2", TokenKind::Name, "1.5.2", 0, 0},
      {"=>", TokenKind::Arrow, nullptr, 0, 0},
      {"=>x", TokenKind::Name, "=>x", 0, 0},
      {"<-", TokenKind::Name, "<-", 0, 0},
      {"?", TokenKind::Variable, "", 0, 0},
      {"?x-1", TokenKind::Variable, "x-1", 0, 0},
      {"?1", TokenKind::Variable, "1", 0, 0},
      {"a:b$c%d", TokenKind::Name, "a:b$c%d", 0, 0},
      {"\"a\\\"b\\\\c\"", TokenKind::String, nullptr, 0, 0},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.src);
    const Token t = first_token(r.src);
    EXPECT_EQ(t.kind, r.kind);
    if (r.text != nullptr) {
      EXPECT_EQ(t.text, r.text);
    }
    if (r.kind == TokenKind::Integer) {
      EXPECT_EQ(t.int_value, r.int_value);
    }
    if (r.kind == TokenKind::Float) {
      EXPECT_EQ(t.float_value, r.float_value);
    }
  }
  EXPECT_TRUE(std::signbit(first_token("-0.0").float_value));
}

TEST(LexerPin, EscapedStringInternsUnescaped) {
  SymbolTable symbols;
  const ProgramAst ast =
      parse_ast("(deffacts d (msg (text \"a\\\"b\\\\c\")))", symbols);
  ASSERT_EQ(ast.facts.size(), 1u);
  ASSERT_EQ(ast.facts[0].facts.size(), 1u);
  const SlotPatternAst& slot = ast.facts[0].facts[0].slots.at(0);
  EXPECT_EQ(symbols.name(slot.constant.as_sym()), "a\"b\\c");
}

// 64-bit FNV-1a: a stable digest of printed program text.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string source_path(std::string_view rel) {
  return std::string(PARULEL_SOURCE_DIR) + "/" + std::string(rel);
}

std::uint64_t ast_hash(std::string_view src) {
  SymbolTable symbols;
  return fnv1a(print_ast(parse_ast(src, symbols), symbols));
}

// Digests of print_ast(parse_ast(src)), recorded with the original
// whole-file lexer: a lexer or parser change must parse every shipped
// program and workload to the same AST.
TEST(LexerPin, AstHashesOfShippedPrograms) {
  namespace wl = workloads;
  const std::vector<std::pair<std::string, std::string>> inputs = {
      {"auction.clp", read_file(source_path("examples/programs/auction.clp"))},
      {"greetings.clp",
       read_file(source_path("examples/programs/greetings.clp"))},
      {"monitor.clp", read_file(source_path("examples/programs/monitor.clp"))},
      {"orderbook.clp",
       read_file(source_path("examples/programs/orderbook.clp"))},
      {"book.clp", read_file(source_path("benchmark/programs/book.clp"))},
      {"waltz(4)", wl::make_waltz(4).source},
      {"waltz(2,rules)", wl::make_waltz(2, false).source},
      {"manners(16)", wl::make_manners(16, 4, 7).source},
      {"tc(20,40)", wl::make_tc(20, 40, 3).source},
      {"sieve(50)", wl::make_sieve(50, true).source},
      {"synth(3,20)", wl::make_synth(3, 20, 10, 5).source},
      {"life(5,2)", wl::make_life(5, 2, 9).source},
      {"routing(12,30)", wl::make_routing(12, 30, 4).source},
  };
  const std::vector<std::uint64_t> expected = {
      0x116211c742ee46c2ULL,  // auction.clp
      0x41245569456b52c4ULL,  // greetings.clp
      0x39c2a231a8f2957dULL,  // monitor.clp
      0x66f95f190001b92cULL,  // orderbook.clp
      0xf295500ab8c99830ULL,  // book.clp
      0xe3bf702d984bb601ULL,  // waltz(4)
      0x4b35080ee0ffc7f9ULL,  // waltz(2,rules)
      0xac2fbe7658d80b73ULL,  // manners(16)
      0x49f9c72ea2bc25d8ULL,  // tc(20,40)
      0x402620564914e9efULL,  // sieve(50)
      0x50e7e61dbb74a67eULL,  // synth(3,20)
      0xaabdce1e6f3d2a02ULL,  // life(5,2)
      0x13e4e7bae528f11eULL,  // routing(12,30)
  };
  ASSERT_EQ(expected.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(inputs[i].first);
    ASSERT_FALSE(inputs[i].second.empty());
    const std::uint64_t h = ast_hash(inputs[i].second);
    EXPECT_EQ(h, expected[i]);
  }
  // Every example program is pinned above.
  std::size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           source_path("examples/programs"))) {
    if (entry.path().extension() == ".clp") ++examples;
  }
  EXPECT_EQ(examples, 4u);
}

// --------------------------------------------------------------- parser

constexpr const char* kTinyProgram = R"((deftemplate edge (slot from) (slot to))
(deftemplate path (slot from) (slot to))
(defrule extend
  (declare (salience 5))
  (path (from ?a) (to ?b))
  (edge (from ?b) (to ?c))
  (not (path (from ?a) (to ?c)))
  (test (!= ?a ?c))
  =>
  (assert (path (from ?a) (to ?c))))
(deffacts init
  (edge (from 1) (to 2)))
)";

TEST(Parser, ParsesFullProgram) {
  const Program p = parse_program(kTinyProgram);
  EXPECT_EQ(p.schema.size(), 2u);
  ASSERT_EQ(p.rules.size(), 1u);
  EXPECT_EQ(p.symbols->name(p.rules[0].name), "extend");
  EXPECT_EQ(p.rules[0].salience, 5);
  EXPECT_EQ(p.rules[0].positives.size(), 2u);
  EXPECT_EQ(p.rules[0].negatives.size(), 1u);
  EXPECT_EQ(p.initial_facts.size(), 1u);
}

TEST(Parser, FindRuleByName) {
  const Program p = parse_program(kTinyProgram);
  EXPECT_NE(p.find_rule("extend"), nullptr);
  EXPECT_EQ(p.find_rule("nope"), nullptr);
}

TEST(Parser, UnknownTopLevelFormThrows) {
  EXPECT_THROW(parse_program("(defwhatever x)"), ParseError);
}

TEST(Parser, FactVariableBinding) {
  const Program p = parse_program(R"(
    (deftemplate item (slot v))
    (defrule drop ?i <- (item (v ?x)) => (retract ?i)))");
  ASSERT_EQ(p.rules.size(), 1u);
  ASSERT_EQ(p.rules[0].actions.size(), 1u);
  EXPECT_EQ(p.rules[0].actions[0].kind, CompiledAction::Kind::Retract);
  EXPECT_EQ(p.rules[0].actions[0].ce_index, 0);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_program("(deftemplate t (slot a))\n(defrule r (nope (a 1)) => )");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, SyntaxErrorBeforeALaterLexicalError) {
  // Tokens are pulled as the parser needs them, one past the one it
  // checks, so the unterminated string two tokens on is never lexed.
  try {
    parse_program("(defwhatever x\n\"unterminated");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_NE(std::string(e.what()).find("unknown top-level form"),
              std::string::npos);
  }
}

TEST(Parser, ExpectErrorShowsAStringUnescaped) {
  try {
    parse_program(R"((deftemplate "a\"b"))");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(),
                 R"(line 1: expected template name, found 'a"b')");
  }
}

/// A rule whose test CE is `depth` nested calls of `+`.
std::string nested_test_program(int depth) {
  std::string src = "(deftemplate t (slot a))\n(defrule r (t (a ?x)) (test ";
  for (int i = 0; i < depth; ++i) src += "(+ 1 ";
  src += "?x";
  src.append(static_cast<std::size_t>(depth), ')');
  src += ") => (halt))";
  return src;
}

TEST(Parser, DeepExpressionNestingIsAParseError) {
  for (int depth : {257, 100000}) {
    SCOPED_TRACE(depth);
    try {
      parse_program(nested_test_program(depth));
      FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 2);
      EXPECT_NE(std::string(e.what()).find("nested deeper than 256"),
                std::string::npos);
    }
  }
}

TEST(Parser, ExpressionNestingAtTheCapParses) {
  const Program p = parse_program(nested_test_program(256));
  ASSERT_EQ(p.rules.size(), 1u);
}

// -------------------------------------------------------------- printer

// A symbol prints bare only when it lexes back as one Name token with the
// same text; "42" bare would come back an Integer, "a#b" would not lex.
TEST(Printer, SymbolsThatDoNotLexAsOneNameAreQuoted) {
  const std::vector<std::string> names = {"42",  "=>", "a#b", "x y", "a;b",
                                          "1e5", "",   "-nan", "<=", "ok"};
  std::string src = "(deftemplate m (slot a))\n(deffacts d";
  for (const std::string& name : names) src += " (m (a \"" + name + "\"))";
  src += ")";
  SymbolTable symbols;
  const std::string printed = print_ast(parse_ast(src, symbols), symbols);
  EXPECT_NE(printed.find("(a \"42\")"), std::string::npos) << printed;
  EXPECT_NE(printed.find("(a -nan)"), std::string::npos) << printed;
  const ProgramAst again = parse_ast(printed, symbols);
  ASSERT_EQ(again.facts.at(0).facts.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Value v = again.facts[0].facts[i].slots.at(0).constant;
    ASSERT_TRUE(v.is_sym()) << names[i];
    EXPECT_EQ(symbols.name(v.as_sym()), names[i]);
  }

  const Program p = parse_program(src);
  const GroundFact& fact = p.initial_facts.at(0);
  EXPECT_EQ(print_fact(fact.tmpl, fact.slots, p.schema, *p.symbols),
            "(m (a \"42\"))");
}

// ------------------------------------------------- hostile program text

/// One seeded edit: truncate, flip a bit, or insert or delete a
/// `(`, `)` or `"`.
void mutate(std::string& src, Rng& rng) {
  static constexpr char kDelims[] = {'(', ')', '"'};
  if (src.empty()) return;
  const std::size_t at = rng.below(src.size());
  const char delim = kDelims[rng.below(3)];
  switch (rng.below(4)) {
    case 0:
      src.resize(at);
      break;
    case 1:
      src[at] = static_cast<char>(src[at] ^ (1u << rng.below(8)));
      break;
    case 2:
      src.insert(at, 1, delim);
      break;
    default:
      if (const std::size_t hit = src.find(delim, at);
          hit != std::string::npos) {
        src.erase(hit, 1);
      }
      break;
  }
}

// Program text arrives from disk (the service's `open NAME FILE`, journal
// recovery), so every corruption of it must parse or throw ParseError:
// no other exception and no crash.
TEST(ProgramTextFuzz, MutatedProgramsParseOrThrowParseError) {
  std::vector<std::pair<std::string, std::string>> inputs;
  for (const auto& entry : std::filesystem::directory_iterator(
           source_path("examples/programs"))) {
    if (entry.path().extension() != ".clp") continue;
    inputs.emplace_back(entry.path().filename().string(),
                        read_file(entry.path()));
  }
  std::sort(inputs.begin(), inputs.end());
  inputs.emplace_back("waltz(1)", workloads::make_waltz(1).source);
  inputs.emplace_back("manners(8)", workloads::make_manners(8, 3, 1).source);
  inputs.emplace_back("tc(8,12)", workloads::make_tc(8, 12, 1).source);

  std::uint64_t parsed = 0, rejected = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [name, original] = inputs[i];
    ASSERT_FALSE(original.empty()) << name;
    Rng rng(0x5eed0000 + i);
    for (int trial = 0; trial < 1000; ++trial) {
      std::string src = original;
      const int edits = 1 + static_cast<int>(rng.below(3));
      for (int e = 0; e < edits; ++e) mutate(src, rng);
      try {
        parse_program(src);
        ++parsed;
      } catch (const ParseError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " trial " << trial << ": " << e.what();
      }
    }
  }
  // Both outcomes occur, so the sweep reaches past the first error.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ------------------------------------------------------------- analyzer

TEST(Analyzer, VariableClassification) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule join
      (r (a ?x) (b ?x))        ; intra-pattern equality
      (r (a ?x) (b ?y))        ; cross-pattern join + new var
      => (assert (r (a ?x) (b ?y)))))");
  const CompiledRule& rule = p.rules[0];
  EXPECT_EQ(rule.num_lhs_vars, 2);  // x, y
  EXPECT_EQ(rule.positives[0].intra_eqs.size(), 1u);
  EXPECT_EQ(rule.positives[0].defines.size(), 1u);
  EXPECT_EQ(rule.positives[1].join_eqs.size(), 1u);
  EXPECT_EQ(rule.positives[1].defines.size(), 1u);
}

TEST(Analyzer, ConstantsBecomeAlphaTests) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule pick (r (a 5) (b ?x)) => (halt)))");
  EXPECT_EQ(p.rules[0].positives[0].const_tests.size(), 1u);
  EXPECT_EQ(p.rules[0].positives[0].const_tests[0].value, Value::integer(5));
}

TEST(Analyzer, AlphaMemorySharing) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a))
    (defrule r1 (r (a 5)) => (halt))
    (defrule r2 (r (a 5)) => (halt))
    (defrule r3 (r (a 6)) => (halt)))");
  EXPECT_EQ(p.rules[0].positives[0].alpha, p.rules[1].positives[0].alpha);
  EXPECT_NE(p.rules[0].positives[0].alpha, p.rules[2].positives[0].alpha);
}

TEST(Analyzer, NegatedCEsCannotBindRuleVariables) {
  // ?z first occurs in the negation: it is existential/local there, so
  // using it in the RHS must fail as unbound.
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (r (a ?x)) (not (r (a ?z)))
      => (assert (r (a ?z)))))"),
               ParseError);
}

TEST(Analyzer, TestBeforeAnyPatternThrows) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (test (> 1 0)) (r (a ?x)) => (halt)))"),
               ParseError);
}

TEST(Analyzer, RuleWithoutPositivesThrows) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (not (r (a 1))) => (halt)))"),
               ParseError);
}

TEST(Analyzer, AssertMustCoverAllSlots) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule bad (r (a ?x) (b ?y)) => (assert (r (a 1)))))"),
               ParseError);
}

TEST(Analyzer, RedactOnlyInMetaRules) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule bad (r (a ?x)) => (redact ?x)))"),
               ParseError);
}

TEST(Analyzer, HaltNotAllowedInMetaRules) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule obj (r (a ?x)) => (halt))
    (defmetarule bad (inst-obj (id ?i)) => (halt)))"),
               ParseError);
}

TEST(Analyzer, MetaSchemaHasIdPlusVariables) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (defrule obj (r (a ?x) (b ?y)) => (halt))
    (defmetarule m
      (inst-obj (id ?i) (x ?vx))
      (inst-obj (id ?j) (x ?vx))
      (test (< ?i ?j))
      => (redact ?j)))");
  ASSERT_EQ(p.meta_rules.size(), 1u);
  ASSERT_EQ(p.inst_templates.size(), 1u);
  const TemplateDef& meta = p.meta_schema.at(p.inst_templates[0]);
  EXPECT_EQ(p.symbols->name(meta.name), "inst-obj");
  ASSERT_EQ(meta.arity(), 3);
  EXPECT_EQ(p.symbols->name(meta.slot_names[0]), "id");
  EXPECT_EQ(p.symbols->name(meta.slot_names[1]), "x");
  EXPECT_EQ(p.symbols->name(meta.slot_names[2]), "y");
}

TEST(Analyzer, VariableNamedIdIsReservedWhenMetaRulesExist) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule obj (r (a ?id)) => (halt)))"),
               ParseError);
}

TEST(Analyzer, DeffactsMustBeGround) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (deffacts f (r (a ?x))))"),
               ParseError);
}

TEST(Analyzer, DeffactsMustBeComplete) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a) (slot b))
    (deffacts f (r (a 1))))"),
               ParseError);
}

TEST(Analyzer, BindCreatesRhsLocal) {
  const Program p = parse_program(R"(
    (deftemplate r (slot a))
    (defrule b (r (a ?x)) => (bind ?y (+ ?x 1)) (assert (r (a ?y)))))");
  EXPECT_EQ(p.rules[0].num_lhs_vars, 1);
  EXPECT_EQ(p.rules[0].num_vars, 2);
}

TEST(Analyzer, BindCannotShadow) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule b (r (a ?x)) => (bind ?x 1)))"),
               ParseError);
}

TEST(Analyzer, UnknownOperatorThrows) {
  EXPECT_THROW(parse_program(R"(
    (deftemplate r (slot a))
    (defrule b (r (a ?x)) (test (frobnicate ?x)) => (halt)))"),
               ParseError);
}

// ---------------------------------------------------------- expressions

class ExprTest : public ::testing::Test {
 protected:
  /// Compile a one-rule program whose guard is `expr` over slot value ?x,
  /// and evaluate that guard with ?x = `x`.
  Value eval_guard(const std::string& expr, Value x) {
    const std::string src = "(deftemplate r (slot a))\n(defrule g (r (a ?x)) "
                            "(test " + expr + ") => (halt))";
    program_ = parse_program(src);
    const CompiledExpr& guard = program_.rules[0].guards[0][0];
    const Value env[] = {x};
    return guard.eval(env);
  }

  Program program_;
};

TEST_F(ExprTest, Arithmetic) {
  EXPECT_EQ(eval_guard("(== (+ ?x 2 3) 15)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (- ?x 4) 6)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (* ?x ?x) 100)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (/ ?x 3) 3)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (mod ?x 3) 1)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (min ?x 3) 3)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (max ?x 3) 10)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (abs (- 0 ?x)) 10)", Value::integer(10)),
            Value::integer(1));
}

TEST_F(ExprTest, IntFloatPromotion) {
  EXPECT_EQ(eval_guard("(== (+ ?x 0.5) 10.5)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(== (/ ?x 4.0) 2.5)", Value::integer(10)),
            Value::integer(1));
}

TEST_F(ExprTest, Comparisons) {
  EXPECT_EQ(eval_guard("(< ?x 11)", Value::integer(10)), Value::integer(1));
  EXPECT_EQ(eval_guard("(<= ?x 10)", Value::integer(10)), Value::integer(1));
  EXPECT_EQ(eval_guard("(> ?x 10)", Value::integer(10)), Value::integer(0));
  EXPECT_EQ(eval_guard("(>= ?x 10)", Value::integer(10)), Value::integer(1));
}

TEST_F(ExprTest, EqualityMixesNumericKinds) {
  EXPECT_EQ(eval_guard("(== ?x 10.0)", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(!= ?x 10.0)", Value::integer(10)),
            Value::integer(0));
}

TEST_F(ExprTest, SymbolEquality) {
  // Bare names in expressions are symbolic constants.
  Program p = parse_program(R"(
    (deftemplate r (slot a))
    (defrule g (r (a ?x)) (test (== ?x hello)) => (halt)))");
  const CompiledExpr& guard = p.rules[0].guards[0][0];
  const Symbol hello = p.symbols->intern("hello");
  const Symbol other = p.symbols->intern("other");
  {
    const Value env[] = {Value::symbol(hello)};
    EXPECT_EQ(guard.eval(env), Value::integer(1));
  }
  {
    const Value env[] = {Value::symbol(other)};
    EXPECT_EQ(guard.eval(env), Value::integer(0));
  }
}

TEST_F(ExprTest, BooleanConnectives) {
  EXPECT_EQ(eval_guard("(and (> ?x 5) (< ?x 15))", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(or (> ?x 50) (< ?x 15))", Value::integer(10)),
            Value::integer(1));
  EXPECT_EQ(eval_guard("(not (> ?x 5))", Value::integer(10)),
            Value::integer(0));
}

TEST_F(ExprTest, DivisionByZeroThrows) {
  EXPECT_THROW(eval_guard("(== (/ ?x 0) 1)", Value::integer(10)),
               RuntimeError);
  EXPECT_THROW(eval_guard("(== (mod ?x 0) 1)", Value::integer(10)),
               RuntimeError);
}

TEST_F(ExprTest, ArithmeticOnSymbolThrows) {
  EXPECT_THROW(eval_guard("(== (+ ?x 1) 2)", Value::symbol(3)),
               RuntimeError);
}

TEST_F(ExprTest, OrderingOnSymbolThrows) {
  EXPECT_THROW(eval_guard("(< ?x 5)", Value::symbol(3)), RuntimeError);
}

}  // namespace
}  // namespace parulel
