// Unit tests: reification and the meta-rule redaction fixpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/par_engine.hpp"
#include "match/treat.hpp"
#include "meta/meta_engine.hpp"
#include "meta/reify.hpp"
#include "meta_reference.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

/// Fixture: loads a program, asserts deffacts, matches once, and exposes
/// the eligible conflict set.
class MetaTest : public ::testing::Test {
 protected:
  void load(const std::string& source) {
    program_ = parse_program(source);
    wm_ = std::make_unique<WorkingMemory>(program_.schema);
    matcher_ = std::make_unique<TreatMatcher>(
        program_.rules, program_.alphas, program_.schema.size());
    for (const auto& fact : program_.initial_facts) {
      wm_->assert_fact(fact.tmpl, fact.slots);
    }
    matcher_->apply_delta(*wm_, wm_->drain_delta());
  }

  std::vector<InstId> eligible() {
    return matcher_->conflict_set().alive_ids();
  }

  /// Run the fixpoint and expect the enumerate-every-match reference's
  /// redaction set.
  MetaOutcome run_checked() {
    const auto ids = eligible();
    const MetaOutcome outcome =
        MetaEngine(program_).run(*wm_, matcher_->conflict_set(), ids);
    EXPECT_EQ(outcome.redacted,
              testing_meta::reference_redactions(
                  program_, *wm_, matcher_->conflict_set(), ids));
    return outcome;
  }

  Program program_;
  std::unique_ptr<WorkingMemory> wm_;
  std::unique_ptr<TreatMatcher> matcher_;
};

TEST_F(MetaTest, ReifyProducesOneMetaFactPerInstantiation) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (deffacts f (item (v 10)) (item (v 20))))");
  WorkingMemory meta_wm(program_.meta_schema);
  const auto ids = eligible();
  const auto meta_ids = reify_conflict_set(program_, *wm_,
                                           matcher_->conflict_set(), ids,
                                           meta_wm);
  ASSERT_EQ(meta_ids.size(), 2u);
  EXPECT_EQ(meta_wm.alive_count(), 2u);
  // Slots: (id, x) with id = instantiation id and x = bound value.
  const FactView f0 = meta_wm.view(meta_ids[0]);
  EXPECT_EQ(f0.slot(0), Value::integer(static_cast<std::int64_t>(ids[0])));
  EXPECT_TRUE(f0.slot(1) == Value::integer(10) ||
              f0.slot(1) == Value::integer(20));
}

TEST_F(MetaTest, NoMetaRulesMeansInactive) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (deffacts f (item (v 1))))");
  MetaEngine meta(program_);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  EXPECT_TRUE(outcome.redacted.empty());
  EXPECT_EQ(outcome.to_fire, eligible());
  EXPECT_EQ(outcome.rounds, 0u);
}

TEST_F(MetaTest, PairwiseRedactionKeepsLowestId) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule pick-one
      (inst-take (id ?i))
      (inst-take (id ?j))
      (test (< ?i ?j))
      =>
      (redact ?j))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  MetaEngine meta(program_);
  const auto ids = eligible();
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), ids);
  // All but the lowest instantiation id are redacted.
  ASSERT_EQ(outcome.redacted.size(), 2u);
  EXPECT_EQ(outcome.redacted[0], ids[1]);
  EXPECT_EQ(outcome.redacted[1], ids[2]);
}

TEST_F(MetaTest, RedactionJoinsOnBindings) {
  load(R"(
    (deftemplate claim (slot who) (slot what))
    (defrule grab (claim (who ?w) (what ?r)) => (halt))
    ; two grabs of the same resource conflict: keep the lower id
    (defmetarule exclusive
      (inst-grab (id ?i) (r ?x))
      (inst-grab (id ?j) (r ?x))
      (test (< ?i ?j))
      =>
      (redact ?j))
    (deffacts f
      (claim (who 1) (what 100))
      (claim (who 2) (what 100))
      (claim (who 3) (what 200))))");
  MetaEngine meta(program_);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  // Only the second claim on resource 100 is redacted.
  EXPECT_EQ(outcome.redacted.size(), 1u);
}

TEST_F(MetaTest, FixpointCascades) {
  // Chain redaction: redact j only if i survives. With ids 0 < 1 < 2,
  // round 1 redacts 1 (by 0) and 2 (by 1). But once 1 is redacted its
  // meta fact is withdrawn — the fixpoint still keeps 2 redacted from
  // round 1. This pins down the semantics: redactions are not undone.
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule chain
      (inst-take (id ?i) (x ?a))
      (inst-take (id ?j) (x ?b))
      (test (== ?j (+ ?i 1)))
      =>
      (redact ?j))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  MetaEngine meta(program_);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  EXPECT_EQ(outcome.redacted.size(), 2u);
}

TEST_F(MetaTest, RedactedInstantiationCannotJustifyLaterRedactions) {
  // "guard" redacts anything it can see; "witness" redacts guard's
  // target first. Tests that rounds only use surviving meta facts.
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule ra (a (v ?x)) => (halt))
    (defrule rb (b (v ?x)) => (halt))
    ; every rb instantiation redacts every ra instantiation
    (defmetarule kill-a
      (inst-rb (id ?i))
      (inst-ra (id ?j))
      =>
      (redact ?j))
    (deffacts f (a (v 1)) (b (v 2))))");
  MetaEngine meta(program_);
  const auto ids = eligible();
  ASSERT_EQ(ids.size(), 2u);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), ids);
  // Exactly the ra instantiation is redacted; rb survives.
  ASSERT_EQ(outcome.redacted.size(), 1u);
}

TEST_F(MetaTest, MetaFiringsAndRoundsCounted) {
  // A printout makes the rule enumerated: every match fires.
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule pick-one
      (inst-take (id ?i))
      (inst-take (id ?j))
      (test (< ?i ?j))
      =>
      (printout "drop " ?j)
      (redact ?j))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  ASSERT_FALSE(program_.meta_rules[0].existential());
  const auto outcome = run_checked();
  EXPECT_EQ(outcome.meta_firings, 3u);  // all three pairs
  EXPECT_EQ(outcome.witnesses, 0u);
  EXPECT_EQ(outcome.rounds, 2u);        // the second round finds nothing
  EXPECT_EQ(outcome.redacted.size(), 2u);
}

TEST_F(MetaTest, ExistentialRuleCountsOneWitnessPerRedaction) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule pick-one
      (inst-take (id ?i))
      (inst-take (id ?j))
      (test (< ?i ?j))
      =>
      (redact ?j))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  ASSERT_TRUE(program_.meta_rules[0].existential());
  EXPECT_EQ(program_.meta_rules[0].target_ce, 1);
  const auto outcome = run_checked();
  EXPECT_EQ(outcome.meta_firings, 0u);
  EXPECT_EQ(outcome.witnesses, 2u);
  EXPECT_EQ(outcome.rounds, 1u);  // positive-only: retraction adds nothing
  EXPECT_EQ(outcome.redacted.size(), 2u);
}

TEST_F(MetaTest, AnalyzerMarksOnlyRedactOfAnIdVariableExistential) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule by-id (inst-take (id ?i)) => (redact ?i))
    (defmetarule computed (inst-take (id ?i)) => (redact (+ ?i 0)))
    (defmetarule via-slot (inst-take (id ?i) (x ?i)) => (redact ?i))
    (defmetarule not-id (inst-take (x ?v)) => (redact ?v))
    (defmetarule with-bind
      (inst-take (id ?i)) => (bind ?k ?i) (redact ?k))
    (defmetarule two-actions
      (inst-take (id ?i)) => (redact ?i) (redact ?i))
    (deffacts f (item (v 1))))");
  std::vector<bool> existential;
  for (const auto& rule : program_.meta_rules) {
    existential.push_back(rule.existential());
  }
  EXPECT_EQ(existential, (std::vector<bool>{true, false, true, false, false,
                                            false}));
}

TEST_F(MetaTest, ExistentialRoundsReadTheRoundStartMemory) {
  // Every instantiation has a distinct partner, so all n are redacted.
  // Retracting targets as they are found would leave one survivor.
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule any-other
      (inst-take (id ?i))
      (inst-take (id ?j))
      (test (!= ?i ?j))
      =>
      (redact ?j))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3)) (item (v 4))))");
  ASSERT_TRUE(program_.meta_rules[0].existential());
  const auto outcome = run_checked();
  EXPECT_EQ(outcome.redacted, eligible());
  EXPECT_EQ(outcome.witnesses, 4u);
}

TEST_F(MetaTest, UnguardedSelfPairIsItsOwnWitness) {
  // One instantiation matches both CEs of an unguarded self-join.
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule pair
      (inst-take (id ?i))
      (inst-take (id ?j))
      =>
      (redact ?j))
    (deffacts f (item (v 1))))");
  ASSERT_TRUE(program_.meta_rules[0].existential());
  const auto outcome = run_checked();
  EXPECT_EQ(outcome.redacted, eligible());
  EXPECT_EQ(outcome.witnesses, 1u);
}

TEST_F(MetaTest, NotCeTargetEnabledInSecondRound) {
  // rc is blocked while any rb instantiation stands; round 1 redacts the
  // rb, so round 2's re-query finds rc's witness.
  load(R"(
    (deftemplate b (slot v))
    (deftemplate c (slot v))
    (defrule rb (b (v ?x)) => (halt))
    (defrule rc (c (v ?x)) => (halt))
    (defmetarule drop-b (inst-rb (id ?i)) => (redact ?i))
    (defmetarule drop-c-once-b-gone
      (inst-rc (id ?k))
      (not (inst-rb))
      =>
      (redact ?k))
    (deffacts f (b (v 1)) (c (v 2)) (c (v 3))))");
  ASSERT_TRUE(program_.meta_rules[1].existential());
  const auto outcome = run_checked();
  EXPECT_EQ(outcome.redacted, eligible());
  EXPECT_EQ(outcome.witnesses, 3u);
  EXPECT_EQ(outcome.rounds, 3u);  // rb; then both rc; then nothing new
}

TEST_F(MetaTest, ComputedTargetStaysEnumerated) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule next
      (inst-take (id ?i))
      =>
      (redact (+ ?i 1)))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  ASSERT_FALSE(program_.meta_rules[0].existential());
  const auto outcome = run_checked();
  EXPECT_EQ(outcome.meta_firings, 3u);
  EXPECT_EQ(outcome.witnesses, 0u);
  EXPECT_FALSE(outcome.redacted.empty());
}

TEST_F(MetaTest, SelfRedactionIsAllowedAndTerminates) {
  // A meta-rule that redacts every instantiation, including implicitly
  // cutting its own justification next round. Must terminate with all
  // object instantiations redacted.
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule nuke
      (inst-take (id ?i))
      =>
      (redact ?i))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  MetaEngine meta(program_);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  EXPECT_EQ(outcome.redacted.size(), 3u);
}

TEST_F(MetaTest, RedactOfUnknownIdIsIgnored) {
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule wild
      (inst-take (id ?i))
      =>
      (redact (+ ?i 1000)))
    (deffacts f (item (v 1))))");
  MetaEngine meta(program_);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  EXPECT_TRUE(outcome.redacted.empty());
}

// ------------------------------------- equivalence with the reference

/// benchmark/programs/book.clp plus a burst of crossing orders, so both
/// of its meta-rules have conflicts to resolve.
std::string book_with_orders() {
  std::ifstream in(std::string(PARULEL_SOURCE_DIR) +
                   "/benchmark/programs/book.clp");
  std::stringstream src;
  src << in.rdbuf();
  EXPECT_FALSE(src.str().empty());
  src << "(deffacts orders\n";
  const char* syms[] = {"acme", "globex"};
  for (int i = 0; i < 12; ++i) {
    src << "  (buy (id " << 100 + i << ") (sym " << syms[i % 2] << ") (px "
        << 50 + i % 5 << ") (qty 1))\n";
    src << "  (sell (id " << 200 + i << ") (sym " << syms[(i / 2) % 2]
        << ") (px " << 45 + i % 4 << ") (qty 1))\n";
  }
  src << ")\n";
  return src.str();
}

/// Drive `source` by hand, with one long-lived MetaEngine checked on
/// every cycle against the reference and a fresh MetaEngine
/// (meta_reference.hpp). Then run ParallelEngine at 1 and 4 threads:
/// its firings, printout text and per-cycle redactions must be the
/// by-hand run's, and its per-cycle meta counters equal at both thread
/// counts. Returns the 1-thread run's stats.
RunStats expect_workload_matches_reference(const std::string& source) {
  const Program p = parse_program(source);
  const testing_meta::MetaDrive drive =
      testing_meta::drive_meta_against_reference(p, 10'000);
  EXPECT_GT(drive.redactions, 0u);
  std::vector<RunStats> runs;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<FiringRecord> log;
    std::ostringstream out;
    EngineConfig cfg;
    cfg.matcher = MatcherKind::ParallelTreat;
    cfg.threads = threads;
    cfg.firing_log = &log;
    cfg.output = &out;
    cfg.trace_cycles = true;
    ParallelEngine engine(p, cfg);
    engine.assert_initial_facts();
    runs.push_back(engine.run());
    std::vector<std::uint64_t> redacted;
    for (const CycleStats& c : runs.back().per_cycle) {
      redacted.push_back(c.redacted);
    }
    EXPECT_EQ(redacted, drive.redacted_per_cycle);
    EXPECT_EQ(log.size(), drive.firings.size());
    for (std::size_t i = 0; i < std::min(log.size(), drive.firings.size());
         ++i) {
      EXPECT_EQ(log[i].cycle, drive.firings[i].cycle) << "firing " << i;
      EXPECT_EQ(log[i].rule, drive.firings[i].rule) << "firing " << i;
      EXPECT_EQ(log[i].facts, drive.firings[i].facts) << "firing " << i;
    }
    EXPECT_EQ(out.str(), drive.output);
  }
  const auto& one = runs[0].per_cycle;
  const auto& four = runs[1].per_cycle;
  EXPECT_EQ(one.size(), four.size());
  for (std::size_t c = 0; c < std::min(one.size(), four.size()); ++c) {
    EXPECT_EQ(one[c].meta_rounds, four[c].meta_rounds) << "cycle " << c;
    EXPECT_EQ(one[c].meta_firings, four[c].meta_firings) << "cycle " << c;
    EXPECT_EQ(one[c].meta_witnesses, four[c].meta_witnesses) << "cycle " << c;
  }
  return runs[0];
}

TEST(MetaReference, MannersRedactionsMatchEveryCycle) {
  expect_workload_matches_reference(workloads::make_manners(48, 6, 1).source);
}

TEST(MetaReference, RuleBuiltWaltzRedactionsMatchEveryCycle) {
  expect_workload_matches_reference(workloads::make_waltz(8, false).source);
}

TEST(MetaReference, SieveRedactionsMatchEveryCycle) {
  expect_workload_matches_reference(workloads::make_sieve(300, true).source);
}

TEST(MetaReference, RoutingRedactionsMatchEveryCycle) {
  expect_workload_matches_reference(
      workloads::make_routing(40, 120, 3, true).source);
}

TEST(MetaReference, BookRedactionsMatchEveryCycle) {
  expect_workload_matches_reference(book_with_orders());
}

// An enumerated meta-rule (bind + printout) over several cycles: the
// deferred jobs stay eligible, so every cycle reifies them again under
// the same restarted meta fact ids, and the same meta instantiation
// keys recur. A reused meta conflict set that kept last cycle's keys
// would refract them.
TEST(MetaReference, EnumeratedPrintoutRuleMatchesEveryCycle) {
  const RunStats stats = expect_workload_matches_reference(R"(
    (deftemplate job (slot id) (slot pri))
    (deftemplate done (slot id))
    (defrule work (job (id ?j) (pri ?p)) (not (done (id ?j)))
      => (assert (done (id ?j))))
    (defmetarule highest-first
      (inst-work (id ?a) (p ?pa))
      (inst-work (id ?b) (p ?pb))
      (test (> ?pa ?pb))
      =>
      (bind ?gap (- ?pa ?pb))
      (printout "defer " ?b " by " ?gap)
      (redact ?b))
    (deffacts jobs
      (job (id 1) (pri 3)) (job (id 2) (pri 1)) (job (id 3) (pri 2))
      (job (id 4) (pri 3)) (job (id 5) (pri 1)) (job (id 6) (pri 2))
      (job (id 7) (pri 0))))");
  EXPECT_EQ(stats.cycles, 4u);  // one priority level per cycle
  EXPECT_GT(stats.total_meta_firings, stats.total_redactions);
}

// A (not ...) meta-rule whose target is enabled only once an earlier
// round's redactions retract its blocker, over several cycles.
TEST(MetaReference, NotCeRuleMatchesEveryCycle) {
  const RunStats stats = expect_workload_matches_reference(R"(
    (deftemplate b (slot v))
    (deftemplate c (slot v))
    (deftemplate seen (slot tag) (slot v))
    (defrule rb (b (v ?x)) (not (seen (tag b) (v ?x)))
      => (assert (seen (tag b) (v ?x))))
    (defrule rc (c (v ?x)) (not (seen (tag c) (v ?x)))
      => (assert (seen (tag c) (v ?x))))
    (defmetarule one-b
      (inst-rb (id ?i)) (inst-rb (id ?j)) (test (< ?i ?j)) => (redact ?j))
    (defmetarule c-with-its-b
      (inst-rc (id ?k) (x ?x)) (not (inst-rb (x ?x))) => (redact ?k))
    (deffacts f
      (b (v 1)) (b (v 2)) (b (v 3))
      (c (v 1)) (c (v 2)) (c (v 3)) (c (v 3)) (c (v 5))))");
  std::uint64_t max_rounds = 0;
  for (const CycleStats& c : stats.per_cycle) {
    max_rounds = std::max(max_rounds, c.meta_rounds);
  }
  EXPECT_GT(max_rounds, 1u);
}

TEST(MetaWitnesses, EqualRedactionsWhenEveryMetaRuleIsExistential) {
  for (const auto& w :
       {workloads::make_manners(32, 4, 2), workloads::make_waltz(4, false),
        workloads::make_sieve(200, true)}) {
    SCOPED_TRACE(w.name);
    const Program p = parse_program(w.source);
    for (const auto& rule : p.meta_rules) ASSERT_TRUE(rule.existential());
    EngineConfig cfg;
    cfg.matcher = MatcherKind::Treat;
    cfg.trace_cycles = true;
    ParallelEngine engine(p, cfg);
    engine.assert_initial_facts();
    const RunStats stats = engine.run();
    EXPECT_GT(stats.total_redactions, 0u);
    EXPECT_EQ(stats.total_meta_witnesses, stats.total_redactions);
    EXPECT_EQ(stats.total_meta_firings, 0u);
    for (const CycleStats& c : stats.per_cycle) {
      EXPECT_EQ(c.meta_witnesses, c.redacted) << "cycle " << c.cycle;
    }
  }
}

// ------------------------------------------------- manners goldens

/// FNV-1a over every firing record (cycle, rule, fact ids) in firing
/// order: a change in what fires, in which cycle, or in what order moves
/// this hash.
std::uint64_t firing_log_hash(const std::vector<FiringRecord>& log) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const FiringRecord& r : log) {
    mix(r.cycle);
    mix(r.rule);
    for (FactId f : r.facts) mix(f);
  }
  return h;
}

// ------------------------------------------------------------ gating

// The meta-rule reads inst-a and inst-b. Cycles 1 and 3 have only `a`
// eligible and cycle 4 only `b`: no meta-rule can match, so the meta
// level must not run at all. Cycle 2 has both and redacts a(3), a(4),
// which fire in cycle 3.
constexpr const char* kGatedProgram = R"(
  (deftemplate x (slot n))
  (deftemplate y (slot n))
  (deftemplate z (slot n))
  (defrule a (x (n ?n)) (test (< ?n 5))
    => (assert (x (n (+ ?n 2)))) (assert (y (n ?n))))
  (defrule b (y (n ?n)) => (assert (z (n ?n))))
  (defmetarule b-first (inst-a (id ?i) (n ?n)) (inst-b (id ?j) (n ?m))
    (test (< ?m ?n)) => (redact ?i))
  (deffacts f (x (n 1)) (x (n 2))))";

TEST(MetaGate, CyclesNoMetaRuleCanMatchRunNoMetaLevel) {
  const Program p = parse_program(kGatedProgram);
  // Every cycle's redactions are the full-reification reference's.
  EXPECT_EQ(testing_meta::expect_meta_matches_reference(p, 100), 2u);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    EngineConfig cfg;
    cfg.matcher = MatcherKind::ParallelTreat;
    cfg.threads = threads;
    cfg.trace_cycles = true;
    ParallelEngine engine(p, cfg);
    engine.assert_initial_facts();
    const RunStats stats = engine.run();
    ASSERT_EQ(stats.per_cycle.size(), 4u);
    for (const std::size_t gated : {0u, 2u, 3u}) {
      const CycleStats& c = stats.per_cycle[gated];
      EXPECT_EQ(c.meta_rounds, 0u) << "cycle " << gated;
      EXPECT_EQ(c.meta_reify_ns, 0u) << "cycle " << gated;
      EXPECT_EQ(c.meta_match_ns, 0u) << "cycle " << gated;
      EXPECT_EQ(c.redacted, 0u) << "cycle " << gated;
    }
    EXPECT_GT(stats.per_cycle[1].meta_rounds, 0u);
    EXPECT_EQ(stats.per_cycle[1].redacted, 2u);
    EXPECT_EQ(stats.per_cycle[2].fired, 2u);  // the redacted a(3), a(4)
  }
}

// Waltz with prebuilt witnesses: defer-prune reads inst-witness-build,
// which never has an instantiation, so no cycle runs the meta level.
// Fingerprint and firing log were recorded before the gate existed,
// when each of the 4 cycles ran one round that redacted nothing.
TEST(MetaGate, PrebuiltWaltzRunsNoRoundsAndKeepsItsRun) {
  const Program p = parse_program(workloads::make_waltz(4).source);
  EXPECT_EQ(testing_meta::expect_meta_matches_reference(p, 100), 0u);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<FiringRecord> log;
    EngineConfig cfg;
    cfg.matcher = MatcherKind::ParallelTreat;
    cfg.threads = threads;
    cfg.firing_log = &log;
    ParallelEngine engine(p, cfg);
    engine.assert_initial_facts();
    const RunStats stats = engine.run();
    EXPECT_EQ(stats.cycles, 4u);
    EXPECT_EQ(stats.total_firings, 408u);
    EXPECT_EQ(stats.total_redactions, 0u);
    EXPECT_EQ(stats.total_meta_rounds, 0u);
    EXPECT_EQ(stats.redact_ns, stats.meta_query_ns);
    EXPECT_EQ(engine.wm().content_fingerprint(), 0xc6487d5f519daebull);
    EXPECT_EQ(firing_log_hash(log), 0x4ac463c8d7278f2bull);
  }
}

struct MannersGolden {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::uint64_t firing_hash;
  std::uint64_t cycles;
  std::uint64_t firings;
  std::uint64_t redactions;
  std::uint64_t meta_firings;
  std::uint64_t meta_rounds;
  std::uint64_t meta_witnesses;
  std::uint64_t insts_derived;
  std::uint64_t insts_invalidated;
};

// Recorded from the matchers as they stood before derivation became
// once-only; the redaction fixpoint must reproduce every value bit for
// bit, because instantiation ids (and so every meta-rule `<` test) are
// part of the observable behaviour. The meta columns follow from
// manners' meta-rules being existential: no meta instantiation fires,
// one witness is found per redaction, and each fixpoint takes one round.
constexpr MannersGolden kMannersGoldens[] = {
    {1, 0x892a34666dd12daull, 0x22a0eebabc576f7aull, 32, 32, 364, 0, 32, 364,
     396, 364},
    {2, 0x66078bc27681f6daull, 0xd2573bd352b287a5ull, 32, 32, 366, 0, 32, 366,
     398, 366},
    {3, 0xd8074fab61e5b8a2ull, 0x54d8445b35ee43a5ull, 32, 32, 318, 0, 32, 318,
     350, 318},
};

void expect_manners_golden(const MannersGolden& g, MatcherKind matcher,
                           unsigned threads) {
  SCOPED_TRACE(std::string(matcher_kind_name(matcher)) + " x" +
               std::to_string(threads) + " seed " + std::to_string(g.seed));
  const Program p =
      parse_program(workloads::make_manners(32, 4, g.seed).source);
  std::vector<FiringRecord> log;
  EngineConfig cfg;
  cfg.matcher = matcher;
  cfg.threads = threads;
  cfg.firing_log = &log;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  const MatchStats& ms = engine.matcher().stats();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(engine.wm().content_fingerprint(), g.fingerprint);
  EXPECT_EQ(firing_log_hash(log), g.firing_hash);
  EXPECT_EQ(stats.cycles, g.cycles);
  EXPECT_EQ(stats.total_firings, g.firings);
  EXPECT_EQ(stats.total_redactions, g.redactions);
  EXPECT_EQ(stats.total_meta_firings, g.meta_firings);
  EXPECT_EQ(stats.total_meta_rounds, g.meta_rounds);
  EXPECT_EQ(stats.total_meta_witnesses, g.meta_witnesses);
  EXPECT_EQ(ms.insts_derived, g.insts_derived);
  EXPECT_EQ(ms.insts_invalidated, g.insts_invalidated);
}

TEST(MannersGolden, TreatReproducesRecordedRun) {
  for (const auto& g : kMannersGoldens) {
    expect_manners_golden(g, MatcherKind::Treat, 1);
  }
}

TEST(MannersGolden, ParallelTreatReproducesRecordedRun) {
  for (const auto& g : kMannersGoldens) {
    expect_manners_golden(g, MatcherKind::ParallelTreat, 1);
    expect_manners_golden(g, MatcherKind::ParallelTreat, 4);
  }
}

}  // namespace
}  // namespace parulel
