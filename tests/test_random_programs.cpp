// Property tests: randomized programs against a brute-force oracle.
//
// For each seed: synthesize a random ruleset (joins, constants,
// wildcards, intra-pattern repeats, negation, type-safe guards), drive a
// random assert/retract stream through all three matchers, and after
// every batch compare each conflict set against a brute-force
// enumeration over working memory. This is the strongest correctness
// net in the suite: any divergence in alpha routing, join planning,
// seminaive derivation, negation maintenance, or deletion propagation
// shows up as a set mismatch. The InstIds are pinned too: TREAT and
// parallel TREAT must number every batch alike, and a fresh one fed the
// alive facts as one delta must number them as the reference in
// treat_reference.hpp does.
//
// Separately: the PARULEL engine must be trace-identical across thread
// counts on arbitrary (even non-confluent, non-terminating) programs —
// determinism needs no confluence, just capped cycles. And on the same
// sweep with random meta-rules added, the redaction fixpoint must match
// the enumerate-every-match reference on every cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <set>
#include <sstream>

#include "engine/par_engine.hpp"
#include "engine/seq_engine.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "match/parallel_treat.hpp"
#include "match/rete.hpp"
#include "match/treat.hpp"
#include "meta_reference.hpp"
#include "support/rng.hpp"
#include "treat_reference.hpp"

namespace parulel {
namespace {

// ------------------------------------------------- program synthesis

struct GeneratedProgram {
  std::string source;
  int n_templates;
  std::vector<int> arity;
  /// Per object rule: its positive-CE variables, i.e. the non-id slots
  /// its inst-r<k> meta template is sure to have.
  std::vector<std::vector<std::string>> rule_vars;
};

/// `active_rhs` emits real actions (asserts of random facts, sometimes a
/// retract of the first CE) instead of the placeholder (halt), so engine
/// runs actually evolve working memory.
GeneratedProgram generate_program(Rng& rng, bool active_rhs = false) {
  GeneratedProgram out;
  out.n_templates = 2 + static_cast<int>(rng.below(2));  // 2..3
  std::ostringstream src;
  for (int t = 0; t < out.n_templates; ++t) {
    const int arity = 1 + static_cast<int>(rng.below(3));  // 1..3
    out.arity.push_back(arity);
    src << "(deftemplate t" << t;
    for (int s = 0; s < arity; ++s) src << " (slot s" << s << ")";
    src << ")\n";
  }

  auto random_const = [&]() -> std::string {
    if (rng.below(2) == 0) return std::to_string(rng.below(4));
    return std::string(1, static_cast<char>('a' + rng.below(3)));
  };

  const int n_rules = 3 + static_cast<int>(rng.below(4));  // 3..6
  for (int r = 0; r < n_rules; ++r) {
    src << "(defrule r" << r << "\n";
    const int n_pos = 1 + static_cast<int>(rng.below(3));  // 1..3
    const int n_neg = static_cast<int>(rng.below(3));      // 0..2
    const bool with_retract = active_rhs && rng.below(3) == 0;
    std::vector<std::string> used_vars;
    bool first_positive = true;

    auto emit_pattern = [&](bool negated) {
      if (!negated && first_positive) {
        first_positive = false;
        if (with_retract) src << "  ?target <- ";
        else src << "  ";
      } else {
        src << "  ";
      }
      const bool exists = negated && rng.below(2) == 0;
      const int t = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(out.n_templates)));
      src << (negated ? (exists ? "(exists " : "(not ") : "") << "(t" << t;
      for (int s = 0; s < out.arity[static_cast<std::size_t>(t)]; ++s) {
        src << " (s" << s << " ";
        const auto kind = rng.below(4);
        if (kind == 0) {
          src << random_const();
        } else if (kind == 1) {
          src << "?";  // wildcard
        } else if (kind == 2 && !used_vars.empty()) {
          // Reuse a variable: intra-pattern repeats and joins.
          src << "?" << used_vars[rng.below(used_vars.size())];
        } else {
          const std::string v = "v" + std::to_string(used_vars.size());
          if (!negated) used_vars.push_back(v);  // negated locals stay local
          src << "?" << v;
        }
        src << ")";
      }
      src << ")" << (negated ? ")" : "") << "\n";
    };

    for (int p = 0; p < n_pos; ++p) emit_pattern(false);
    out.rule_vars.push_back(used_vars);
    // Type-safe guard: Eq/Ne never throw on mixed kinds.
    if (!used_vars.empty() && rng.below(2) == 0) {
      const std::string& a = used_vars[rng.below(used_vars.size())];
      if (rng.below(2) == 0 && used_vars.size() >= 2) {
        const std::string& b = used_vars[rng.below(used_vars.size())];
        src << "  (test (" << (rng.below(2) ? "==" : "!=") << " ?" << a
            << " ?" << b << "))\n";
      } else {
        src << "  (test (" << (rng.below(2) ? "==" : "!=") << " ?" << a
            << " " << random_const() << "))\n";
      }
    }
    for (int n = 0; n < n_neg; ++n) emit_pattern(true);
    src << "  =>\n";
    if (!active_rhs) {
      src << "  (halt))\n";
      continue;
    }
    // Active RHS: 1-2 asserts (vars or constants, no arithmetic so
    // symbol bindings stay type-safe), plus the optional retract.
    const int n_asserts = 1 + static_cast<int>(rng.below(2));
    for (int a = 0; a < n_asserts; ++a) {
      const int t = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(out.n_templates)));
      src << "  (assert (t" << t;
      for (int s = 0; s < out.arity[static_cast<std::size_t>(t)]; ++s) {
        src << " (s" << s << " ";
        if (!used_vars.empty() && rng.below(2) == 0) {
          src << "?" << used_vars[rng.below(used_vars.size())];
        } else {
          src << random_const();
        }
        src << ")";
      }
      src << "))\n";
    }
    if (with_retract) src << "  (retract ?target)\n";
    src << ")\n";
  }
  out.source = src.str();
  return out;
}

/// Append 2..4 random meta-rules over `gen`'s rules. Most are
/// redact-only on an id variable (existential): `<` guards over ids,
/// shared-key joins, `not` CEs, unguarded pairs. Some bind the target
/// first, which keeps them on the enumerated path.
std::string generate_meta_rules(Rng& rng, const GeneratedProgram& gen) {
  std::ostringstream src;
  const auto n_rules = gen.rule_vars.size();
  const int n_meta = 2 + static_cast<int>(rng.below(3));
  for (int m = 0; m < n_meta; ++m) {
    const auto a = rng.below(n_rules);
    // Half are self-joins (pick-one style): their two sides are sure to
    // be populated together.
    const auto b = rng.below(2) == 0 ? a : rng.below(n_rules);
    const auto& va = gen.rule_vars[a];
    const auto& vb = gen.rule_vars[b];
    // A shared key: some variable slot of each side bound to ?x.
    const bool keyed = !va.empty() && !vb.empty() && rng.below(2) == 0;
    src << "(defmetarule m" << m << "\n  (inst-r" << a << " (id ?i)";
    if (keyed) src << " (" << va[rng.below(va.size())] << " ?x)";
    src << ")\n";
    const auto shape = rng.below(4);
    if (shape == 3) {
      // Single CE plus a (not ...) over another rule's instantiations,
      // keyed when possible: enabled only once its blockers are redacted.
      src << "  (not (inst-r" << b;
      if (keyed) src << " (" << vb[rng.below(vb.size())] << " ?x)";
      src << "))\n";
    } else {
      src << "  (inst-r" << b << " (id ?j)";
      if (keyed) src << " (" << vb[rng.below(vb.size())] << " ?x)";
      src << ")\n";
      if (shape == 1) src << "  (test (< ?i ?j))\n";
      if (shape == 2) src << "  (test (!= ?i ?j))\n";
      // shape 0: unguarded, so a target may be its own witness.
      if (rng.below(4) == 0) {
        const auto c = rng.below(n_rules);
        const auto& vc = gen.rule_vars[c];
        src << "  (not (inst-r" << c;
        if (keyed && !vc.empty()) {
          src << " (" << vc[rng.below(vc.size())] << " ?x)";
        }
        src << "))\n";
      }
    }
    const char* target = (shape == 3 || rng.below(2) == 0) ? "?i" : "?j";
    src << "  =>\n";
    if (rng.below(5) == 0) {
      src << "  (bind ?t " << target << ")\n  (redact ?t))\n";
    } else {
      src << "  (redact " << target << "))\n";
    }
  }
  return src.str();
}

// ------------------------------------------------- brute-force oracle

using InstKey = std::pair<RuleId, std::vector<FactId>>;

void oracle_rule(const Program& program, const WorkingMemory& wm,
                 RuleId rule_id, std::set<InstKey>& out) {
  const CompiledRule& rule = program.rules[rule_id];
  std::vector<Value> env(static_cast<std::size_t>(rule.num_vars));
  std::vector<FactId> facts(rule.positives.size());

  auto pattern_matches = [&](const CompiledPattern& pat,
                             const FactView& fact, bool bind) {
    for (const auto& ct : pat.const_tests) {
      if (fact.slot(static_cast<std::size_t>(ct.slot)) != ct.value) {
        return false;
      }
    }
    for (const auto& ie : pat.intra_eqs) {
      if (fact.slot(static_cast<std::size_t>(ie.slot_a)) !=
          fact.slot(static_cast<std::size_t>(ie.slot_b))) {
        return false;
      }
    }
    for (const auto& eq : pat.join_eqs) {
      if (fact.slot(static_cast<std::size_t>(eq.slot)) !=
          env[static_cast<std::size_t>(eq.var)]) {
        return false;
      }
    }
    if (bind) {
      for (const auto& def : pat.defines) {
        env[static_cast<std::size_t>(def.var)] =
            fact.slot(static_cast<std::size_t>(def.slot));
      }
    }
    return true;
  };

  std::function<void(std::size_t)> recurse = [&](std::size_t p) {
    if (p == rule.positives.size()) {
      for (const auto& neg : rule.negatives) {
        bool found = false;
        for (FactId id : wm.extent(neg.tmpl)) {
          if (pattern_matches(neg, wm.view(id), /*bind=*/false)) {
            found = true;
            break;
          }
        }
        // (not ...) requires none; (exists ...) requires at least one.
        if (found != neg.exists) return;
      }
      out.emplace(rule_id, facts);
      return;
    }
    const CompiledPattern& pat = rule.positives[p];
    for (FactId id : wm.extent(pat.tmpl)) {
      // Save env: defines may overwrite bindings probed by later tries.
      std::vector<Value> saved = env;
      if (pattern_matches(pat, wm.view(id), /*bind=*/true)) {
        bool guards_ok = true;
        for (const auto& guard : rule.guards[p]) {
          if (!CompiledExpr::truthy(guard.eval(env))) {
            guards_ok = false;
            break;
          }
        }
        if (guards_ok) {
          facts[p] = id;
          recurse(p + 1);
        }
      }
      env = std::move(saved);
    }
  };
  recurse(0);
}

std::set<InstKey> oracle(const Program& program, const WorkingMemory& wm) {
  std::set<InstKey> out;
  for (RuleId r = 0; r < program.rules.size(); ++r) {
    oracle_rule(program, wm, r, out);
  }
  return out;
}

std::set<InstKey> matcher_set(const Matcher& matcher) {
  std::set<InstKey> out;
  matcher.conflict_set().for_each([&](const Instantiation& inst) {
    out.emplace(inst.rule,
                std::vector<FactId>(inst.facts.begin(), inst.facts.end()));
  });
  return out;
}

// ------------------------------------------------------ the property

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, AllMatchersAgreeWithOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const GeneratedProgram gen = generate_program(rng);
  const Program program = parse_program(gen.source);

  WorkingMemory wm(program.schema);
  ThreadPool pool(3);
  ReteMatcher rete(program.rules, program.alphas, program.schema.size());
  TreatMatcher treat(program.rules, program.alphas, program.schema.size());
  ParallelTreatMatcher par(program.rules, program.alphas,
                           program.schema.size(), pool);
  ThreadPool pool1(1), pool4(4);

  std::vector<FactId> alive;
  const int batches = 8;
  for (int batch = 0; batch < batches; ++batch) {
    const int ops = 1 + static_cast<int>(rng.below(12));
    for (int op = 0; op < ops; ++op) {
      if (!alive.empty() && rng.below(4) == 0) {
        const std::size_t pick = rng.below(alive.size());
        wm.retract(alive[pick]);
        alive[pick] = alive.back();
        alive.pop_back();
      } else {
        const auto t = static_cast<TemplateId>(rng.below(
            static_cast<std::uint64_t>(gen.n_templates)));
        std::vector<Value> slots;
        for (int s = 0; s < gen.arity[t]; ++s) {
          if (rng.below(2) == 0) {
            slots.push_back(Value::integer(
                static_cast<std::int64_t>(rng.below(4))));
          } else {
            slots.push_back(Value::symbol(program.symbols->intern(
                std::string(1, static_cast<char>('a' + rng.below(3))))));
          }
        }
        const FactId id = wm.assert_fact(t, std::move(slots));
        if (id != kInvalidFact) alive.push_back(id);
      }
    }

    const Delta delta = wm.drain_delta();
    rete.apply_delta(wm, delta);
    treat.apply_delta(wm, delta);
    par.apply_delta(wm, delta);

    const std::set<InstKey> expected = oracle(program, wm);
    EXPECT_EQ(matcher_set(rete), expected)
        << "rete diverged, batch " << batch << "\n" << gen.source;
    EXPECT_EQ(matcher_set(treat), expected)
        << "treat diverged, batch " << batch << "\n" << gen.source;
    EXPECT_EQ(matcher_set(par), expected)
        << "parallel diverged, batch " << batch << "\n" << gen.source;

    // The ids, not just the set: equal InstIds are what make the two
    // interchangeable under every conflict-resolution strategy.
    ASSERT_EQ(testing_treat::snapshot(treat.conflict_set()),
              testing_treat::snapshot(par.conflict_set()))
        << "parallel InstId order diverged, batch " << batch << "\n"
        << gen.source;

    // Replayed as one delta into fresh matchers, the alive facts must be
    // numbered as the reference numbers them.
    Delta replay;
    replay.added = alive;
    std::sort(replay.added.begin(), replay.added.end());
    const auto want = testing_treat::snapshot(
        testing_treat::treat_reference(program, wm, replay.added).cs);
    TreatMatcher fresh(program.rules, program.alphas, program.schema.size());
    ParallelTreatMatcher fresh1(program.rules, program.alphas,
                                program.schema.size(), pool1);
    ParallelTreatMatcher fresh4(program.rules, program.alphas,
                                program.schema.size(), pool4);
    for (Matcher* m :
         std::initializer_list<Matcher*>{&fresh, &fresh1, &fresh4}) {
      m->apply_delta(wm, replay);
      ASSERT_EQ(testing_treat::snapshot(m->conflict_set()), want)
          << m->name() << " (" << (m == &fresh4 ? 4 : 1)
          << " threads) diverged from the reference, batch " << batch
          << "\n" << gen.source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest, ::testing::Range(0, 60));

// ------------------------------------------------------- engine runs

/// `gen`'s source plus a deffacts block of 12 random facts with integer
/// slots in [0, 4).
std::string with_initial_facts(Rng& rng, const GeneratedProgram& gen) {
  std::ostringstream source;
  source << gen.source << "(deffacts init\n";
  for (int i = 0; i < 12; ++i) {
    const auto t = rng.below(static_cast<std::uint64_t>(gen.n_templates));
    source << "  (t" << t;
    for (int s = 0; s < gen.arity[t]; ++s) {
      source << " (s" << s << " " << rng.below(4) << ")";
    }
    source << ")\n";
  }
  source << ")\n";
  return source.str();
}

/// Run `program` on the parallel engine (cycles traced, at most 50):
/// its stats and the final working memory's fingerprint.
std::pair<RunStats, std::uint64_t> run_parallel(const Program& program,
                                                MatcherKind kind,
                                                unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.matcher = kind;
  cfg.trace_cycles = true;
  cfg.max_cycles = 50;
  ParallelEngine engine(program, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  return {stats, engine.wm().content_fingerprint()};
}

// ------------------------------------- engine determinism, any program

class RandomEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEngineTest, ParallelEngineTraceIdenticalAcrossThreads) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const GeneratedProgram gen = generate_program(rng, /*active_rhs=*/true);
  const Program program = parse_program(with_initial_facts(rng, gen));

  const auto [s1, fp1] = run_parallel(program, MatcherKind::ParallelTreat, 1);
  const auto [s4, fp4] = run_parallel(program, MatcherKind::ParallelTreat, 4);
  EXPECT_EQ(fp1, fp4);
  EXPECT_EQ(s1.cycles, s4.cycles);
  EXPECT_EQ(s1.total_firings, s4.total_firings);
  ASSERT_EQ(s1.per_cycle.size(), s4.per_cycle.size());
  for (std::size_t i = 0; i < s1.per_cycle.size(); ++i) {
    EXPECT_EQ(s1.per_cycle[i].fired, s4.per_cycle[i].fired) << i;
    EXPECT_EQ(s1.per_cycle[i].conflict_set_size,
              s4.per_cycle[i].conflict_set_size)
        << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEngineTest, ::testing::Range(0, 25));

// ------------------------------ treat vs parallel treat vs rete sweep
//
// Every generated program runs to completion under sequential TREAT and
// under parallel TREAT at 1 and 4 threads on the parallel engine, and
// the full observable behaviour must match: final working-memory
// fingerprint, cycle count, total firings, and the per-cycle
// conflict-set sizes and firings. RETE is held to TREAT's fingerprint on
// the sequential engine.

class MatcherDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherDifferentialTest, TreatFamilyAgreesEndToEnd) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 11);
  const GeneratedProgram gen = generate_program(rng, /*active_rhs=*/true);
  const std::string source = with_initial_facts(rng, gen);
  const Program program = parse_program(source);

  const auto [si, fpi] = run_parallel(program, MatcherKind::Treat, 1);

  // Rete rides the sequential engine (the parallel engine rejects it);
  // treat under the same engine is the apples-to-apples oracle.
  auto run_seq = [&](MatcherKind kind) {
    EngineConfig cfg;
    cfg.matcher = kind;
    cfg.max_cycles = 500;
    SequentialEngine engine(program, cfg);
    engine.assert_initial_facts();
    const RunStats stats = engine.run();
    return std::make_pair(stats.total_firings,
                          engine.wm().content_fingerprint());
  };
  const auto [seq_treat_fired, seq_treat_fp] = run_seq(MatcherKind::Treat);
  const auto [seq_rete_fired, seq_rete_fp] = run_seq(MatcherKind::Rete);
  EXPECT_EQ(seq_treat_fp, seq_rete_fp)
      << "rete fingerprint diverged\n" << source;
  EXPECT_EQ(seq_treat_fired, seq_rete_fired) << source;

  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("parallel-treat, threads " + std::to_string(threads));
    const auto [sp, fpp] =
        run_parallel(program, MatcherKind::ParallelTreat, threads);
    EXPECT_EQ(fpi, fpp) << "fingerprint diverged\n" << source;
    EXPECT_EQ(si.cycles, sp.cycles) << source;
    EXPECT_EQ(si.total_firings, sp.total_firings) << source;
    EXPECT_EQ(si.peak_conflict_set, sp.peak_conflict_set) << source;
    ASSERT_EQ(si.per_cycle.size(), sp.per_cycle.size());
    for (std::size_t i = 0; i < si.per_cycle.size(); ++i) {
      EXPECT_EQ(si.per_cycle[i].conflict_set_size,
                sp.per_cycle[i].conflict_set_size)
          << "cycle " << i << "\n" << source;
      EXPECT_EQ(si.per_cycle[i].fired, sp.per_cycle[i].fired)
          << "cycle " << i << "\n" << source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferentialTest,
                         ::testing::Range(0, 200));

// ------------------ existential redaction vs the enumerated reference
//
// The differential sweep's rule sets with random meta-rules appended,
// and an initial population of ints and symbols (the sweep's int-only
// facts leave most conflict sets empty). On every cycle, MetaEngine's
// redaction set must equal the reference that enumerates and fires
// every meta match (tests/meta_reference.hpp).

TEST(RandomMetaPrograms, RedactionsMatchEnumeratedReference) {
  int seeds_with_redactions = 0;
  int seeds_with_existential = 0;
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 11);
    GeneratedProgram gen = generate_program(rng, /*active_rhs=*/true);
    std::string source = gen.source;
    source += "(deffacts init\n";
    for (int i = 0; i < 24; ++i) {
      const auto t = rng.below(static_cast<std::uint64_t>(gen.n_templates));
      source += "  (t" + std::to_string(t);
      for (int s = 0; s < gen.arity[t]; ++s) {
        source += " (s" + std::to_string(s) + " ";
        if (rng.below(2) == 0) {
          source += std::to_string(rng.below(4));
        } else {
          source += static_cast<char>('a' + rng.below(3));
        }
        source += ")";
      }
      source += ")\n";
    }
    source += ")\n" + generate_meta_rules(rng, gen);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + source);
    const Program program = parse_program(source);
    for (const auto& rule : program.meta_rules) {
      if (rule.existential()) {
        ++seeds_with_existential;
        break;
      }
    }
    if (testing_meta::expect_meta_matches_reference(program, 30) > 0) {
      ++seeds_with_redactions;
    }
    if (::testing::Test::HasFailure()) return;
  }
  // The sweep is not vacuous: 199 of the 200 seeds have an existential
  // rule, and 80 redact something.
  EXPECT_GT(seeds_with_existential, 150);
  EXPECT_GT(seeds_with_redactions, 60);
}

// ---------------------------- printer round-trip, randomized programs

bool exprs_equal(const ExprAst& a, const ExprAst& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprAst::Kind::Const: return a.constant == b.constant;
    case ExprAst::Kind::Var: return a.var == b.var;
    case ExprAst::Kind::Call:
      if (a.op != b.op || a.args.size() != b.args.size()) return false;
      for (std::size_t i = 0; i < a.args.size(); ++i) {
        if (!exprs_equal(a.args[i], b.args[i])) return false;
      }
      return true;
  }
  return false;
}

bool patterns_equal(const PatternCEAst& a, const PatternCEAst& b) {
  if (a.tmpl != b.tmpl || a.negated != b.negated || a.exists != b.exists ||
      a.fact_var != b.fact_var || a.slots.size() != b.slots.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    const SlotPatternAst& x = a.slots[i];
    const SlotPatternAst& y = b.slots[i];
    if (x.slot != y.slot || x.kind != y.kind) return false;
    if (x.kind == SlotPatternAst::Kind::Const && x.constant != y.constant) {
      return false;
    }
    if (x.kind == SlotPatternAst::Kind::Var && x.var != y.var) return false;
  }
  return true;
}

bool ces_equal(const CEAst& a, const CEAst& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ta = std::get_if<TestCEAst>(&a)) {
    return exprs_equal(ta->expr, std::get<TestCEAst>(b).expr);
  }
  return patterns_equal(std::get<PatternCEAst>(a),
                        std::get<PatternCEAst>(b));
}

bool actions_equal(const ActionAst& a, const ActionAst& b) {
  if (a.kind != b.kind || a.tmpl != b.tmpl || a.fact_var != b.fact_var ||
      a.bind_var != b.bind_var ||
      a.slot_exprs.size() != b.slot_exprs.size() ||
      a.args.size() != b.args.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.slot_exprs.size(); ++i) {
    if (a.slot_exprs[i].first != b.slot_exprs[i].first ||
        !exprs_equal(a.slot_exprs[i].second, b.slot_exprs[i].second)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.args.size(); ++i) {
    if (!exprs_equal(a.args[i], b.args[i])) return false;
  }
  return true;
}

/// Structural equality over whole ASTs, line numbers ignored.
bool asts_equal(const ProgramAst& a, const ProgramAst& b) {
  if (a.templates.size() != b.templates.size() ||
      a.rules.size() != b.rules.size() || a.facts.size() != b.facts.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.templates.size(); ++i) {
    if (a.templates[i].name != b.templates[i].name ||
        a.templates[i].slots != b.templates[i].slots) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.rules.size(); ++i) {
    const RuleAst& x = a.rules[i];
    const RuleAst& y = b.rules[i];
    if (x.name != y.name || x.salience != y.salience ||
        x.is_meta != y.is_meta || x.lhs.size() != y.lhs.size() ||
        x.rhs.size() != y.rhs.size()) {
      return false;
    }
    for (std::size_t j = 0; j < x.lhs.size(); ++j) {
      if (!ces_equal(x.lhs[j], y.lhs[j])) return false;
    }
    for (std::size_t j = 0; j < x.rhs.size(); ++j) {
      if (!actions_equal(x.rhs[j], y.rhs[j])) return false;
    }
  }
  for (std::size_t i = 0; i < a.facts.size(); ++i) {
    if (a.facts[i].name != b.facts[i].name ||
        a.facts[i].facts.size() != b.facts[i].facts.size()) {
      return false;
    }
    for (std::size_t j = 0; j < a.facts[i].facts.size(); ++j) {
      if (!patterns_equal(a.facts[i].facts[j], b.facts[i].facts[j])) {
        return false;
      }
    }
  }
  return true;
}

/// parse -> print -> parse must reproduce the AST, and a second print
/// must reproduce the text (the printer is a fixpoint of its own
/// output).
void expect_round_trip(const std::string& source) {
  SymbolTable symbols;
  const ProgramAst first = parse_ast(source, symbols);
  const std::string printed = print_ast(first, symbols);
  const ProgramAst second = parse_ast(printed, symbols);
  EXPECT_TRUE(asts_equal(first, second))
      << "round-trip changed the AST\n--- original:\n"
      << source << "--- printed:\n" << printed;
  EXPECT_EQ(printed, print_ast(second, symbols))
      << "printer is not idempotent on its own output";
}

class RoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripTest, PrintedProgramReparsesToSameAst) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6271 + 31);
  const bool active = GetParam() % 2 == 0;
  expect_round_trip(generate_program(rng, active).source);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest, ::testing::Range(0, 40));

TEST(RoundTrip, CoversEveryAstNodeKind) {
  // Salience, not/exists, fact vars, wildcards, floats, strings,
  // modify/bind/halt/printout, meta rules with redact — one program
  // touching every printable node.
  expect_round_trip(R"((deftemplate point (slot x) (slot y))
(deftemplate label (slot text) (slot weight))
(defrule tag
  (declare (salience 5))
  ?p <- (point (x ?x) (y ?))
  (not (label (text done) (weight ?x)))
  (exists (point (x 0) (y ?x)))
  (test (> ?x 1.5))
  =>
  (bind ?w (+ ?x 0.25))
  (assert (label (text "two words") (weight ?w)))
  (modify ?p (x (- ?x 1)))
  (printout tagged ?x)
  (halt))
(defmetarule dedup
  (inst-tag (id ?a) (x ?x1))
  (inst-tag (id ?b) (x ?x2))
  (test (and (== ?x1 ?x2) (< ?a ?b)))
  =>
  (redact ?b))
(deffacts seed
  (point (x 2.75) (y 1))
  (label (text "a b") (weight -3)))
)");
}

}  // namespace
}  // namespace parulel
