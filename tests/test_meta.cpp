// Unit tests: reification and the meta-rule redaction fixpoint.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/par_engine.hpp"
#include "match/treat.hpp"
#include "meta/meta_engine.hpp"
#include "meta/reify.hpp"
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
  EXPECT_FALSE(meta.active());
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  EXPECT_TRUE(outcome.redacted.empty());
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
  load(R"(
    (deftemplate item (slot v))
    (defrule take (item (v ?x)) => (halt))
    (defmetarule pick-one
      (inst-take (id ?i))
      (inst-take (id ?j))
      (test (< ?i ?j))
      =>
      (redact ?j))
    (deffacts f (item (v 1)) (item (v 2))))");
  MetaEngine meta(program_);
  const auto outcome = meta.run(*wm_, matcher_->conflict_set(), eligible());
  EXPECT_GE(outcome.meta_firings, 1u);
  EXPECT_GE(outcome.rounds, 1u);
  EXPECT_EQ(outcome.redacted.size(), 1u);
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

struct MannersGolden {
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::uint64_t firing_hash;
  std::uint64_t cycles;
  std::uint64_t firings;
  std::uint64_t redactions;
  std::uint64_t meta_firings;
  std::uint64_t meta_rounds;
  std::uint64_t insts_derived;
  std::uint64_t insts_invalidated;
};

// Recorded from the matchers as they stood before derivation became
// once-only; the redaction fixpoint must reproduce every value bit for
// bit, because instantiation ids (and so every meta-rule `<` test) are
// part of the observable behaviour.
constexpr MannersGolden kMannersGoldens[] = {
    {1, 0x892a34666dd12daull, 0x22a0eebabc576f7aull, 32, 32, 364, 4233, 62,
     396, 364},
    {2, 0x66078bc27681f6daull, 0xd2573bd352b287a5ull, 32, 32, 366, 4274, 63,
     398, 366},
    {3, 0xd8074fab61e5b8a2ull, 0x54d8445b35ee43a5ull, 32, 32, 318, 3073, 62,
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
