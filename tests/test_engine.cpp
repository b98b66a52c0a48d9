// Unit tests: sequential (OPS5-style) and parallel (PARULEL) engines.
#include <gtest/gtest.h>

#include <sstream>

#include "engine/par_engine.hpp"
#include "engine/seq_engine.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

constexpr const char* kCounting = R"(
(deftemplate counter (slot n))
(defrule count-up
  ?c <- (counter (n ?n))
  (test (< ?n 10))
  =>
  (retract ?c)
  (assert (counter (n (+ ?n 1)))))
(deffacts init (counter (n 0)))
)";

TEST(SequentialEngine, RunsToQuiescence) {
  const Program p = parse_program(kCounting);
  SequentialEngine engine(p, {});
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_FALSE(stats.halted);
  EXPECT_EQ(stats.total_firings, 10u);
  EXPECT_EQ(stats.cycles, 10u);  // one firing per cycle
  // Final WM: exactly (counter (n 10)).
  const auto& wm = engine.wm();
  EXPECT_EQ(wm.alive_count(), 1u);
}

TEST(SequentialEngine, HaltStopsTheRun) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule stop (t (v ?x)) => (halt))
    (defrule never (t (v ?x)) => (assert (t (v (+ ?x 100)))))
    (deffacts f (t (v 1))))");
  EngineConfig cfg;
  cfg.strategy = Strategy::First;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.halted);
  EXPECT_EQ(stats.total_firings, 1u);
}

TEST(SequentialEngine, MaxCyclesGuards) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule flip ?f <- (t (v ?x)) => (retract ?f)
      (assert (t (v (- 1 ?x)))))
    (deffacts f (t (v 0))))");
  EngineConfig cfg;
  cfg.max_cycles = 50;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.cycles, 50u);
  EXPECT_FALSE(stats.quiescent);
}

TEST(SequentialEngine, SalienceDominatesStrategy) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (deftemplate log (slot who))
    (defrule low (declare (salience -10)) (t (v ?x))
      => (assert (log (who low))) (halt))
    (defrule high (declare (salience 10)) (t (v ?x))
      => (assert (log (who high))) (halt))
    (deffacts f (t (v 1))))");
  SequentialEngine engine(p, {});
  engine.assert_initial_facts();
  engine.run();
  const auto& wm = engine.wm();
  const TemplateId log_t = *p.schema.find(p.symbols->intern("log"));
  ASSERT_EQ(wm.extent(log_t).size(), 1u);
  const FactView f = wm.view(wm.extent(log_t)[0]);
  EXPECT_EQ(f.slot(0), Value::symbol(p.symbols->intern("high")));
}

TEST(SequentialEngine, LexPrefersRecentFacts) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (deftemplate winner (slot v))
    (defrule pick (t (v ?x)) (not (winner (v 0))) =>
      (assert (winner (v 0))) (assert (winner (v ?x))))
    (deffacts f (t (v 1)) (t (v 2)) (t (v 3))))");
  EngineConfig cfg;
  cfg.strategy = Strategy::Lex;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  engine.run();
  // LEX picks the instantiation on the most recent fact: (t (v 3)).
  const auto& wm = engine.wm();
  const TemplateId w = *p.schema.find(p.symbols->intern("winner"));
  bool saw3 = false;
  for (FactId id : wm.extent(w)) {
    if (wm.view(id).slot(0) == Value::integer(3)) saw3 = true;
  }
  EXPECT_TRUE(saw3);
}

TEST(SequentialEngine, PrintoutGoesToConfiguredStream) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule say (t (v ?x)) => (printout "v=" ?x) (halt))
    (deffacts f (t (v 42))))");
  std::ostringstream out;
  EngineConfig cfg;
  cfg.output = &out;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  engine.run();
  EXPECT_EQ(out.str(), "v=42\n");
}

TEST(SequentialEngine, RejectsParallelMatcher) {
  const Program p = parse_program(kCounting);
  EngineConfig cfg;
  cfg.matcher = MatcherKind::ParallelTreat;
  EXPECT_THROW(SequentialEngine(p, cfg), RuntimeError);
}

TEST(SequentialEngine, TreatMatcherWorksToo) {
  const Program p = parse_program(kCounting);
  EngineConfig cfg;
  cfg.matcher = MatcherKind::Treat;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_firings, 10u);
}

// ----------------------------------------------------------------- PARULEL

EngineConfig par_cfg(unsigned threads) {
  EngineConfig cfg;
  cfg.threads = threads;
  cfg.matcher = MatcherKind::ParallelTreat;
  return cfg;
}

TEST(ParallelEngine, FiresWholeConflictSetPerCycle) {
  const Program p = parse_program(R"(
    (deftemplate in (slot v))
    (deftemplate out (slot v))
    (defrule copy (in (v ?x)) => (assert (out (v ?x))))
    (deffacts f (in (v 1)) (in (v 2)) (in (v 3)) (in (v 4))))");
  ParallelEngine engine(p, par_cfg(4));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.total_firings, 4u);
  // All four fired in ONE cycle.
  EXPECT_EQ(stats.cycles, 1u);
}

TEST(ParallelEngine, RefractionPreventsRefiring) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (deftemplate mark (slot v))
    (defrule once (t (v ?x)) => (assert (mark (v ?x))))
    (deffacts f (t (v 1))))");
  ParallelEngine engine(p, par_cfg(2));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_firings, 1u);
}

TEST(ParallelEngine, SaturatesTransitiveClosure) {
  const Program p = parse_program(R"(
    (deftemplate edge (slot from) (slot to))
    (deftemplate path (slot from) (slot to))
    (defrule base (edge (from ?a) (to ?b)) (not (path (from ?a) (to ?b)))
      => (assert (path (from ?a) (to ?b))))
    (defrule extend (path (from ?a) (to ?b)) (edge (from ?b) (to ?c))
      (not (path (from ?a) (to ?c)))
      => (assert (path (from ?a) (to ?c))))
    (deffacts g
      (edge (from 1) (to 2)) (edge (from 2) (to 3))
      (edge (from 3) (to 4)) (edge (from 4) (to 5))))");
  ParallelEngine engine(p, par_cfg(4));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.quiescent);
  // Chain closure: 4+3+2+1 = 10 paths.
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));
  EXPECT_EQ(engine.wm().extent(path_t).size(), 10u);
  // Far fewer cycles than firings (the PARULEL claim).
  EXPECT_LT(stats.cycles, stats.total_firings);
}

TEST(ParallelEngine, MetaRuleRedactsWithinCycle) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (deftemplate win (slot v))
    (defrule claim (t (v ?x)) => (assert (win (v ?x))))
    (defmetarule pick-one
      (inst-claim (id ?i))
      (inst-claim (id ?j))
      (test (< ?i ?j))
      => (redact ?j))
    (deffacts f (t (v 1)) (t (v 2)) (t (v 3))))");
  ParallelEngine engine(p, par_cfg(2));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  // Cycle 1 fires only the surviving instantiation; the redacted two
  // remain eligible and fire in later cycles (one each).
  EXPECT_EQ(stats.total_firings, 3u);
  EXPECT_GE(stats.total_redactions, 2u);
  EXPECT_GE(stats.cycles, 3u);
}

TEST(ParallelEngine, WriteConflictsDetectedAndCounted) {
  // Two rules retract the same fact in the same cycle.
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule r1 ?f <- (t (v ?x)) (test (> ?x 0)) => (retract ?f))
    (defrule r2 ?f <- (t (v ?x)) (test (< ?x 10)) => (retract ?f))
    (deffacts f (t (v 5))))");
  ParallelEngine engine(p, par_cfg(2));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_firings, 2u);
  EXPECT_EQ(stats.total_retracts, 1u);
  EXPECT_EQ(stats.total_write_conflicts, 1u);
}

TEST(ParallelEngine, ModifyRaceFirstWriterWins) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule bump-a ?f <- (t (v 0)) => (modify ?f (v 1)))
    (defrule bump-b ?f <- (t (v 0)) => (modify ?f (v 2)))
    (deffacts f (t (v 0))))");
  ParallelEngine engine(p, par_cfg(2));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_write_conflicts, 1u);
  // Exactly one surviving fact; the first instantiation's value won.
  EXPECT_EQ(engine.wm().alive_count(), 1u);
}

TEST(ParallelEngine, FullyRedactedCycleIsQuiescence) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule go (t (v ?x)) => (assert (t (v (+ ?x 1)))))
    (defmetarule stop-everything
      (inst-go (id ?i))
      => (redact ?i))
    (deffacts f (t (v 1))))");
  ParallelEngine engine(p, par_cfg(2));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.total_firings, 0u);
}

TEST(ParallelEngine, HaltInParallelCycleStops) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (defrule stop (t (v ?x)) (test (== ?x 2)) => (halt))
    (defrule spawn (t (v ?x)) (test (< ?x 2))
      => (assert (t (v (+ ?x 1)))))
    (deffacts f (t (v 1))))");
  ParallelEngine engine(p, par_cfg(2));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_TRUE(stats.halted);
}

TEST(ParallelEngine, RejectsReteMatcher) {
  const Program p = parse_program(kCounting);
  EngineConfig cfg;
  cfg.matcher = MatcherKind::Rete;
  EXPECT_THROW(ParallelEngine(p, cfg), RuntimeError);
}

TEST(ParallelEngine, TraceCyclesRecordsPhases) {
  const Program p = parse_program(kCounting);
  EngineConfig cfg = par_cfg(2);
  cfg.trace_cycles = true;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  ASSERT_EQ(stats.per_cycle.size(), stats.cycles);
  EXPECT_EQ(stats.per_cycle[0].fired, 1u);
}

TEST(ParallelEngine, SequentialCountingStillWorks) {
  // The counter program is inherently sequential (one instantiation per
  // cycle); the parallel engine must produce identical results.
  const Program p = parse_program(kCounting);
  ParallelEngine engine(p, par_cfg(4));
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_EQ(stats.total_firings, 10u);
  EXPECT_EQ(engine.wm().alive_count(), 1u);
}

// ------------------------------------------- buffered firing semantics

/// FNV-1a over every firing record (cycle, rule, fact ids) in order.
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

// Printout, halt, a modify racing a retract (k 2), modifies racing each
// other (k 1, 3, 4), and duplicate tag asserts, all in one cycle.
constexpr const char* kBufferRaces = R"(
  (deftemplate item (slot k) (slot v))
  (deftemplate tag (slot k))
  (defrule tag-it (item (k ?k) (v ?v)) => (assert (tag (k ?k))))
  (defrule kill ?f <- (item (k 2) (v 0)) => (retract ?f) (printout "kill 2"))
  (defrule set-one ?f <- (item (k ?k) (v 0)) => (modify ?f (v 1)))
  (defrule set-two ?f <- (item (k ?k) (v 0))
    => (modify ?f (v 2)) (printout "two " ?k))
  (defrule stop (tag (k 3)) (item (k 3) (v ?v)) (test (> ?v 0)) (test (< ?v 3))
    => (printout "stop at " ?v) (halt))
  (deffacts f (item (k 1) (v 0)) (item (k 1) (v 5)) (item (k 2) (v 0))
              (item (k 3) (v 0)) (item (k 3) (v 7)) (item (k 4) (v 0))))";

// The values were recorded from the engine as it stood before firing
// went through flat per-worker buffers; every thread count must still
// reproduce them.
TEST(ParallelEngine, BufferedFiringIsTheSameAtOneAndFourThreads) {
  const Program p = parse_program(kBufferRaces);
  for (const MatcherKind matcher :
       {MatcherKind::Treat, MatcherKind::ParallelTreat}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(matcher_kind_name(matcher)) + " x" +
                   std::to_string(threads));
      std::vector<FiringRecord> log;
      std::ostringstream out;
      EngineConfig cfg;
      cfg.matcher = matcher;
      cfg.threads = threads;
      cfg.firing_log = &log;
      cfg.output = &out;
      cfg.trace_cycles = true;
      ParallelEngine engine(p, cfg);
      engine.assert_initial_facts();
      const RunStats stats = engine.run();
      std::uint64_t duplicates = 0;
      for (const CycleStats& c : stats.per_cycle) {
        duplicates += c.duplicate_asserts;
      }
      EXPECT_TRUE(stats.halted);
      EXPECT_EQ(stats.cycles, 2u);
      EXPECT_EQ(stats.total_firings, 19u);
      EXPECT_EQ(stats.total_asserts, 7u);
      EXPECT_EQ(stats.total_retracts, 4u);
      EXPECT_EQ(duplicates, 5u);
      EXPECT_EQ(stats.total_write_conflicts, 5u);
      EXPECT_EQ(out.str(), "two 1\nkill 2\ntwo 2\ntwo 3\ntwo 4\nstop at 1\n");
      EXPECT_EQ(firing_log_hash(log), 0x7b29a598317e94bull);
      EXPECT_EQ(engine.wm().content_fingerprint(), 0xad0563456b0f55fcull);
    }
  }
}

// --------------------------------------------- the quiescence match

/// Sum of the cycles' match_ns plus quiesce_match_ns is run.match_ns,
/// and the quiescence step's match is not lost.
void expect_match_time_accounted(const RunStats& stats) {
  ASSERT_TRUE(stats.quiescent);
  ASSERT_EQ(stats.per_cycle.size(), stats.cycles);
  std::uint64_t cycles_match = 0;
  for (const CycleStats& c : stats.per_cycle) cycles_match += c.match_ns;
  EXPECT_GT(stats.quiesce_match_ns, 0u);
  EXPECT_EQ(cycles_match + stats.quiesce_match_ns, stats.match_ns);
}

TEST(ParallelEngine, QuiescenceMatchCountsTowardRunMatchTime) {
  for (const std::string& source :
       {workloads::make_waltz(4).source, std::string(kCounting)}) {
    const Program p = parse_program(source);
    for (const unsigned threads : {1u, 4u}) {
      EngineConfig cfg = par_cfg(threads);
      cfg.trace_cycles = true;
      ParallelEngine engine(p, cfg);
      engine.assert_initial_facts();
      const RunStats stats = engine.run();
      // The last cycle retracts, so the quiescence step matches a delta
      // that holds retractions.
      ASSERT_FALSE(stats.per_cycle.empty());
      EXPECT_GT(stats.per_cycle.back().retracts, 0u);
      expect_match_time_accounted(stats);
    }
  }
}

TEST(SequentialEngine, QuiescenceMatchCountsTowardRunMatchTime) {
  const Program p = parse_program(kCounting);
  EngineConfig cfg;
  cfg.trace_cycles = true;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_GT(stats.per_cycle.back().retracts, 0u);
  expect_match_time_accounted(stats);
}

}  // namespace
}  // namespace parulel
