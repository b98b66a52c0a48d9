// Tests: firing log, stratified salience, state dump/restore, and
// end-to-end (exists ...) behaviour in the engines.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "engine/par_engine.hpp"
#include "engine/seq_engine.hpp"
#include "lang/printer.hpp"

namespace parulel {
namespace {

TEST(FiringLog, SequentialRecordsEveryFiring) {
  const Program p = parse_program(R"(
    (deftemplate n (slot v))
    (defrule bump ?f <- (n (v ?x)) (test (< ?x 3))
      => (retract ?f) (assert (n (v (+ ?x 1)))))
    (deffacts f (n (v 0))))");
  std::vector<FiringRecord> log;
  EngineConfig cfg;
  cfg.firing_log = &log;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  ASSERT_EQ(log.size(), stats.total_firings);
  ASSERT_EQ(log.size(), 3u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].cycle, i);
    EXPECT_EQ(log[i].rule, 0u);
    EXPECT_EQ(log[i].facts.size(), 1u);
  }
}

TEST(FiringLog, ParallelRecordsInDeterministicOrder) {
  const Program p = parse_program(R"(
    (deftemplate in (slot v))
    (deftemplate out (slot v))
    (defrule copy (in (v ?x)) => (assert (out (v ?x))))
    (deffacts f (in (v 1)) (in (v 2)) (in (v 3))))");
  auto run = [&]() {
    std::vector<FiringRecord> log;
    EngineConfig cfg;
    cfg.threads = 4;
    cfg.matcher = MatcherKind::ParallelTreat;
    cfg.firing_log = &log;
    ParallelEngine engine(p, cfg);
    engine.assert_initial_facts();
    engine.run();
    return log;
  };
  const auto log1 = run();
  const auto log2 = run();
  ASSERT_EQ(log1.size(), 3u);
  ASSERT_EQ(log1.size(), log2.size());
  for (std::size_t i = 0; i < log1.size(); ++i) {
    EXPECT_EQ(log1[i].facts, log2[i].facts);
    EXPECT_EQ(log1[i].cycle, 0u);
  }
}

TEST(StratifiedSalience, ParallelFiresOneStratumPerCycle) {
  const Program p = parse_program(R"(
    (deftemplate t (slot v))
    (deftemplate hi (slot v))
    (deftemplate lo (slot v))
    (defrule high (declare (salience 10)) (t (v ?x))
      => (assert (hi (v ?x))))
    (defrule low (declare (salience 0)) (t (v ?x))
      => (assert (lo (v ?x))))
    (deffacts f (t (v 1)) (t (v 2))))");
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.stratified_salience = true;
  cfg.trace_cycles = true;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  // Cycle 0: only the two `high` instantiations; cycle 1: the `low` ones.
  ASSERT_GE(stats.per_cycle.size(), 2u);
  EXPECT_EQ(stats.per_cycle[0].fired, 2u);
  EXPECT_EQ(stats.per_cycle[1].fired, 2u);
  EXPECT_EQ(stats.total_firings, 4u);

  // Without stratification, all four fire at once.
  cfg.stratified_salience = false;
  ParallelEngine flat(p, cfg);
  flat.assert_initial_facts();
  const RunStats flat_stats = flat.run();
  EXPECT_EQ(flat_stats.per_cycle[0].fired, 4u);
}

TEST(DumpState, RoundTripsWorkingMemory) {
  const Program p = parse_program(R"(
    (deftemplate item (slot name) (slot qty) (slot price))
    (deffacts f
      (item (name widget) (qty 3) (price 2.5))
      (item (name gadget) (qty 7) (price 10))))");
  SequentialEngine engine(p, {});
  engine.assert_initial_facts();

  const std::string text = dump_state(engine.wm(), *p.symbols, "saved");
  const Program restored = parse_program(text);
  SequentialEngine engine2(restored, {});
  engine2.assert_initial_facts();

  EXPECT_EQ(engine.wm().content_fingerprint(),
            engine2.wm().content_fingerprint());
}

TEST(DumpState, RoundTripsFloatsExactly) {
  const Program p = parse_program(R"(
    (deftemplate m (slot v))
    (deffacts f (m (v 1.0)) (m (v 0.123456789)) (m (v -0.0))))");
  SequentialEngine engine(p, {});
  engine.assert_initial_facts();
  const std::string text = dump_state(engine.wm(), *p.symbols);
  EXPECT_NE(text.find("(v 1.0)"), std::string::npos) << text;
  EXPECT_NE(text.find("(v -0.0)"), std::string::npos) << text;

  const Program restored = parse_program(text);
  ASSERT_EQ(restored.initial_facts.size(), p.initial_facts.size());
  for (std::size_t i = 0; i < p.initial_facts.size(); ++i) {
    const Value want = p.initial_facts[i].slots.at(0);
    const Value got = restored.initial_facts[i].slots.at(0);
    ASSERT_TRUE(got.is_float()) << text;
    EXPECT_EQ(got, want);
    // Bit-exact: -0.0 == 0.0 as doubles, but must not come back as 0.0.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.as_float()),
              std::bit_cast<std::uint64_t>(want.as_float()))
        << got.as_float() << " vs " << want.as_float();
  }
}

TEST(DumpState, QuotesAwkwardSymbols) {
  const Program p = parse_program(R"clp(
    (deftemplate msg (slot text))
    (deffacts f (msg (text "hello world (tricky)"))))clp");
  SequentialEngine engine(p, {});
  engine.assert_initial_facts();
  const std::string text = dump_state(engine.wm(), *p.symbols);
  // Must re-parse and preserve the symbol.
  const Program restored = parse_program(text);
  SequentialEngine engine2(restored, {});
  engine2.assert_initial_facts();
  EXPECT_EQ(engine.wm().content_fingerprint(),
            engine2.wm().content_fingerprint());
}

TEST(DumpState, SkipsTombstones) {
  const Program p = parse_program(R"(
    (deftemplate n (slot v))
    (deffacts f (n (v 1)) (n (v 2))))");
  SequentialEngine engine(p, {});
  engine.assert_initial_facts();
  auto& wm = engine.wm();
  wm.retract(*wm.find(*p.schema.find(p.symbols->intern("n")),
                      {Value::integer(1)}));
  const std::string text = dump_state(wm, *p.symbols);
  EXPECT_EQ(text.find("(v 1)"), std::string::npos);
  EXPECT_NE(text.find("(v 2)"), std::string::npos);
}

TEST(Exists, EndToEndGatingInParallelEngine) {
  // Work items process only while a worker is on shift.
  const Program p = parse_program(R"(
    (deftemplate job (slot id))
    (deftemplate shift (slot worker))
    (deftemplate done (slot id))
    (defrule process
      ?j <- (job (id ?i))
      (exists (shift (worker ?w)))
      =>
      (retract ?j)
      (assert (done (id ?i))))
    (deffacts f (job (id 1)) (job (id 2))))");
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  RunStats stats = engine.run();
  EXPECT_EQ(stats.total_firings, 0u);  // nobody on shift

  // Clock a worker in: both jobs process in one cycle.
  const TemplateId shift_t = *p.schema.find(p.symbols->intern("shift"));
  engine.wm().assert_fact(shift_t,
                          {Value::symbol(p.symbols->intern("ada"))});
  stats = engine.run();
  EXPECT_EQ(stats.total_firings, 2u);
  const TemplateId done_t = *p.schema.find(p.symbols->intern("done"));
  EXPECT_EQ(engine.wm().extent(done_t).size(), 2u);
}

TEST(Exists, ParsesAndCompiles) {
  const Program p = parse_program(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (exists (b (v ?x))) (not (b (v 99))) => (halt)))");
  ASSERT_EQ(p.rules[0].negatives.size(), 2u);
  EXPECT_TRUE(p.rules[0].negatives[0].exists);
  EXPECT_FALSE(p.rules[0].negatives[1].exists);
}

}  // namespace
}  // namespace parulel
