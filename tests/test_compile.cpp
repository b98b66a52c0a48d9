// Unit tests for the bytecode compiler and its VM.
//
// The behavioural story (compiled == interpreted on every program) is
// carried by the parameterized suites in test_match.cpp and the random
// differential sweep in test_random_programs.cpp. This file covers the
// compiler-specific surface: listing determinism, the code image's
// shape, stats accounting, and the matcher-factory wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "compile/compiler.hpp"
#include "compile/vm.hpp"
#include "engine/seq_engine.hpp"
#include "match/parallel_treat.hpp"
#include "match/treat.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

constexpr const char* kJoinProgram = R"(
  (deftemplate edge (slot from) (slot to))
  (deftemplate mark (slot n))
  (defrule chain
    (edge (from ?a) (to ?b))
    (edge (from ?b) (to ?c))
    (not (mark (n ?a)))
    => (assert (mark (n ?a))))
  (defrule witness
    (edge (from ?a) (to ?b))
    (exists (mark (n ?b)))
    => (halt))
  (deffacts f
    (edge (from 1) (to 2))
    (edge (from 2) (to 3))
    (edge (from 2) (to 4))
    (mark (n 4))))";

// -------------------------------------------------------------- listing

TEST(CompileListing, DeterministicAcrossCompiles) {
  const Program p = parse_program(kJoinProgram);
  const std::string first = compile_listing(p);
  const std::string second = compile_listing(p);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(CompileListing, ShowsNetsRulesAndPools) {
  const Program p = parse_program(kJoinProgram);
  const std::string listing = compile_listing(p);
  EXPECT_NE(listing.find("net edge:"), std::string::npos);
  EXPECT_NE(listing.find("derive chain/0:"), std::string::npos);
  EXPECT_NE(listing.find("rematch chain/neg0:"), std::string::npos);
  EXPECT_NE(listing.find("derive witness/0:"), std::string::npos);
  EXPECT_NE(listing.find("emit"), std::string::npos);
  EXPECT_NE(listing.find("quant"), std::string::npos);
}

TEST(CompileListing, MatchesTheMatchersOwnImage) {
  const Program p = parse_program(kJoinProgram);
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  EXPECT_EQ(m.image().listing(p), compile_listing(p));
}

// ------------------------------------------------------------ code image

TEST(CodeImage, ShapeReflectsTheProgram) {
  const Program p = parse_program(kJoinProgram);
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  const CodeImage& image = m.image();
  EXPECT_FALSE(image.code.empty());
  EXPECT_EQ(image.code.back().op, OpCode::Halt);
  EXPECT_EQ(image.rules.size(), p.rules.size());
  // chain: two positives + the `not` rematch; witness: one positive +
  // the `exists` rematch (a new witness unblocks, so it needs one too).
  EXPECT_EQ(image.rules[0].derive.size(), 2u);
  EXPECT_EQ(image.rules[0].rematch.size(), 1u);
  EXPECT_EQ(image.rules[1].derive.size(), 1u);
  EXPECT_EQ(image.rules[1].rematch.size(), 1u);
  // Both templates are matched, so both have a net entry.
  ASSERT_EQ(image.net_entry.size(), p.schema.size());
  for (const std::int32_t entry : image.net_entry) EXPECT_GE(entry, 0);
  EXPECT_GT(image.byte_size(), 0u);
}

TEST(CodeImage, UnmatchedTemplateGetsNoNet) {
  const Program p = parse_program(R"(
    (deftemplate used (slot v))
    (deftemplate ignored (slot v))
    (defrule r (used (v ?x)) => (halt)))");
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  ASSERT_EQ(m.image().net_entry.size(), 2u);
  EXPECT_GE(m.image().net_entry[0], 0);
  EXPECT_EQ(m.image().net_entry[1], -1);
}

// ----------------------------------------------------------------- stats

TEST(CompileStatsTest, CodegenCountersFilledAtConstruction) {
  const Program p = parse_program(kJoinProgram);
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  const CompileStats& cs = *m.compile_stats();
  EXPECT_GT(cs.instructions, 0u);
  EXPECT_GT(cs.code_bytes, 0u);
  EXPECT_GT(cs.programs, 0u);
  EXPECT_EQ(cs.instructions, m.image().code.size());
  EXPECT_EQ(cs.code_bytes, m.image().byte_size());
  // Nothing executed yet.
  EXPECT_EQ(cs.dispatches, 0u);
  EXPECT_EQ(cs.emits, 0u);
}

TEST(CompileStatsTest, NetSharesCommonTestPrefixes) {
  // alpha{kind==1} and alpha{kind==1, v==2} share the kind test: two
  // trie nodes carry three spec tests, so one test is shared away.
  const Program p = parse_program(R"(
    (deftemplate item (slot kind) (slot v))
    (defrule a (item (kind 1) (v ?x)) => (halt))
    (defrule b (item (kind 1) (v 2)) => (halt)))");
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  const CompileStats& cs = *m.compile_stats();
  EXPECT_EQ(cs.net_nodes, 2u);
  EXPECT_EQ(cs.net_shared, 1u);
}

TEST(CompileStatsTest, ExecutionCountersAdvance) {
  const Program p = parse_program(kJoinProgram);
  WorkingMemory wm(p.schema);
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  for (const auto& fact : p.initial_facts) wm.assert_fact(fact.tmpl, fact.slots);
  m.apply_delta(wm, wm.drain_delta());
  const CompileStats& cs = *m.compile_stats();
  EXPECT_GT(cs.dispatches, 0u);
  EXPECT_EQ(cs.net_runs, 4u);     // one per added fact
  EXPECT_GT(cs.derive_runs, 0u);
  EXPECT_GT(cs.quant_checks, 0u);
  EXPECT_GT(cs.emits, 0u);
}

// ------------------------------------------------------------ vm parity

struct InstCopy {
  RuleId rule;
  std::vector<FactId> facts;
};

std::vector<InstCopy> conflict_snapshot(Matcher& m) {
  std::vector<InstCopy> out;
  for (const InstId id : m.conflict_set().alive_ids()) {
    const Instantiation inst = m.conflict_set().get(id);
    out.push_back({inst.rule, {inst.facts.begin(), inst.facts.end()}});
  }
  return out;
}

// Self-joins fed as ONE multi-fact delta: every pair and triple below
// holds several facts of the delta, and `spread` lets one fact fill
// positions of different alphas (its second CE has its own alpha; the
// others share one with `pair` and `each`, so `each`'s matches are
// seeded between a fact's spread/2 and spread/1 seedings). TREAT derives
// each match once from its first seeding; the VM derives it from every
// seeding and lets the conflict set drop the repeats. Equal ids prove
// the two orders agree.
constexpr const char* kSelfJoinProgram = R"(
  (deftemplate item (slot k) (slot v))
  (defrule pair
    (item (k ?k) (v ?i))
    (item (k ?k) (v ?j))
    (test (< ?i ?j))
    => (halt))
  (defrule spread
    (item (v ?b))
    (item (k 1) (v ?a))
    (item (k ?a) (v ?c))
    => (halt))
  (defrule each
    (item (v ?v))
    => (halt))
  (deffacts f
    (item (k 1) (v 1))
    (item (k 1) (v 2))
    (item (k 2) (v 1))
    (item (k 2) (v 3))
    (item (k 1) (v 3))
    (item (k 3) (v 2))))";

TEST(CompiledVm, ConflictSetIdenticalToTreatIncludingIds) {
  for (const char* source : {kJoinProgram, kSelfJoinProgram}) {
    const Program p = parse_program(source);
    WorkingMemory wm(p.schema);
    for (const auto& fact : p.initial_facts) {
      wm.assert_fact(fact.tmpl, fact.slots);
    }
    const Delta delta = wm.drain_delta();
    CompiledMatcher compiled(p.rules, p.alphas, p.schema.size());
    compiled.apply_delta(wm, delta);
    const auto want = conflict_snapshot(compiled);

    ThreadPool pool1(1), pool4(4);
    TreatMatcher treat(p.rules, p.alphas, p.schema.size());
    ParallelTreatMatcher par1(p.rules, p.alphas, p.schema.size(), pool1);
    ParallelTreatMatcher par4(p.rules, p.alphas, p.schema.size(), pool4);
    for (Matcher* m : std::initializer_list<Matcher*>{&treat, &par1, &par4}) {
      SCOPED_TRACE(std::string(m->name()) + " threads " +
                   std::to_string(m == &par4 ? 4 : 1));
      m->apply_delta(wm, delta);
      const auto got = conflict_snapshot(*m);
      ASSERT_EQ(want.size(), got.size());
      EXPECT_EQ(compiled.conflict_set().alive_ids(),
                m->conflict_set().alive_ids());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].rule, got[i].rule) << i;
        EXPECT_EQ(want[i].facts, got[i].facts) << i;
      }
    }
    if (source == kSelfJoinProgram) {
      // No quantified CE, one delta: TREAT's once-only derivation never
      // hands the conflict set a repeat, while the VM's does.
      EXPECT_EQ(treat.stats().derive_rejects, 0u);
      EXPECT_EQ(par1.stats().derive_rejects, 0u);
      EXPECT_EQ(par4.stats().derive_rejects, 0u);
      EXPECT_GT(compiled.stats().derive_rejects, 0u);
    }
  }
}

TEST(CompiledVm, ExternalDeltaCountsAndMatches) {
  const Program p = parse_program(R"(
    (deftemplate item (slot v))
    (defrule r (item (v ?x)) => (halt)))");
  WorkingMemory wm(p.schema);
  CompiledMatcher m(p.rules, p.alphas, p.schema.size());
  const TemplateId t = *p.schema.find(p.symbols->intern("item"));
  wm.assert_fact(t, {Value::integer(7)});
  m.apply_external_delta(wm, wm.drain_delta());
  EXPECT_EQ(m.stats().external_deltas, 1u);
  EXPECT_EQ(m.conflict_set().size(), 1u);
}

// --------------------------------------------------------------- wiring

TEST(CompiledWiring, KindNameRoundTripsAndFactoryLists) {
  EXPECT_STREQ(matcher_kind_name(MatcherKind::Compiled), "compiled");
  EXPECT_EQ(parse_matcher_kind("compiled"), MatcherKind::Compiled);
  const auto kinds = all_matcher_kinds();
  EXPECT_NE(std::find(kinds.begin(), kinds.end(), MatcherKind::Compiled),
            kinds.end());
  for (const MatcherKind k : kinds) {
    EXPECT_EQ(parse_matcher_kind(matcher_kind_name(k)), k);
  }
}

TEST(CompiledWiring, FactoryBuildsACompiledMatcher) {
  const Program p = parse_program(kJoinProgram);
  const auto m = make_matcher(MatcherKind::Compiled, p);
  EXPECT_STREQ(m->name(), "compiled");
  EXPECT_NE(m->compile_stats(), nullptr);
}

std::uint64_t run_seq(const Program& p, MatcherKind matcher,
                      RunStats* stats_out) {
  EngineConfig cfg;
  cfg.matcher = matcher;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  RunStats stats = engine.run();
  if (stats_out) *stats_out = stats;
  return engine.wm().content_fingerprint();
}

TEST(CompiledWiring, SeqEngineWaltzFingerprintMatchesTreat) {
  const Program p = parse_program(workloads::make_waltz(2).source);
  RunStats treat_stats, compiled_stats;
  const std::uint64_t treat_fp = run_seq(p, MatcherKind::Treat, &treat_stats);
  const std::uint64_t compiled_fp =
      run_seq(p, MatcherKind::Compiled, &compiled_stats);
  EXPECT_EQ(treat_fp, compiled_fp);
  EXPECT_EQ(treat_stats.cycles, compiled_stats.cycles);
  EXPECT_EQ(treat_stats.total_firings, compiled_stats.total_firings);
}

}  // namespace
}  // namespace parulel
