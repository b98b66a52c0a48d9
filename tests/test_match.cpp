// Unit tests: alpha memories, conflict set, and the three matchers.
//
// Matcher tests run parameterized over {rete, treat, parallel-treat,
// compiled}:
// every behaviour here is algorithm-independent, which is itself the
// property being verified.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "match/parallel_treat.hpp"
#include "match/rete.hpp"
#include "match/treat.hpp"
#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"

namespace parulel {
namespace {

// ---------------------------------------------------------- conflict set

Instantiation make_inst(RuleId rule, std::vector<FactId> facts) {
  Instantiation inst;
  inst.rule = rule;
  inst.facts = std::move(facts);
  return inst;
}

TEST(ConflictSet, AddAssignsSequentialIds) {
  ConflictSet cs;
  EXPECT_EQ(cs.add(make_inst(0, {1})), 0u);
  EXPECT_EQ(cs.add(make_inst(0, {2})), 1u);
  EXPECT_EQ(cs.size(), 2u);
}

TEST(ConflictSet, DuplicateKeysRejected) {
  ConflictSet cs;
  cs.add(make_inst(0, {1, 2}));
  EXPECT_EQ(cs.add(make_inst(0, {1, 2})), kInvalidInst);
  // Different rule, same facts: distinct key.
  EXPECT_NE(cs.add(make_inst(1, {1, 2})), kInvalidInst);
}

TEST(ConflictSet, RefractionBlocksReAdd) {
  ConflictSet cs;
  const InstId id = cs.add(make_inst(0, {1, 2}));
  cs.mark_fired(id);
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_FALSE(cs.alive(id));
  EXPECT_EQ(cs.add(make_inst(0, {1, 2})), kInvalidInst);
  EXPECT_TRUE(cs.has_fired(make_inst(0, {1, 2})));
  EXPECT_FALSE(cs.has_fired(make_inst(0, {2, 1})));
}

TEST(ConflictSet, FiredInstantiationStaysInPlace) {
  // Refraction keeps the fired entry in its slot and key index, not a
  // copy: its id still resolves, but it is neither alive nor removable,
  // and its facts no longer reach it.
  ConflictSet cs;
  const InstId id = cs.add(make_inst(0, {1, 2}));
  const InstId other = cs.add(make_inst(0, {2, 3}));
  cs.mark_fired(id);
  EXPECT_EQ(cs.get(id).facts, (std::vector<FactId>{1, 2}));
  EXPECT_FALSE(cs.remove_by_key(make_inst(0, {1, 2})));
  std::vector<InstId> removed;
  cs.remove_by_fact(2, &removed);
  EXPECT_EQ(removed, std::vector<InstId>{other});
  EXPECT_TRUE(cs.has_fired(make_inst(0, {1, 2})));
  EXPECT_FALSE(cs.has_fired(make_inst(0, {2, 3})));
  EXPECT_EQ(cs.add(make_inst(0, {1, 2})), kInvalidInst);
  EXPECT_NE(cs.add(make_inst(0, {2, 3})), kInvalidInst);
}

TEST(ConflictSet, RemoveDoesNotRefract) {
  ConflictSet cs;
  const InstId id = cs.add(make_inst(0, {1}));
  cs.remove(id);
  EXPECT_NE(cs.add(make_inst(0, {1})), kInvalidInst);
}

TEST(ConflictSet, RemoveByFact) {
  ConflictSet cs;
  cs.add(make_inst(0, {1, 2}));
  cs.add(make_inst(0, {2, 3}));
  cs.add(make_inst(0, {3, 4}));
  std::vector<InstId> removed;
  cs.remove_by_fact(2, &removed);
  EXPECT_EQ(removed.size(), 2u);
  EXPECT_EQ(cs.size(), 1u);
}

TEST(ConflictSet, RemoveByKey) {
  ConflictSet cs;
  cs.add(make_inst(0, {1}));
  EXPECT_TRUE(cs.remove_by_key(make_inst(0, {1})));
  EXPECT_FALSE(cs.remove_by_key(make_inst(0, {1})));
  EXPECT_EQ(cs.size(), 0u);
}

TEST(ConflictSet, OfRuleFiltersAndSorts) {
  ConflictSet cs;
  cs.add(make_inst(1, {1}));
  cs.add(make_inst(0, {2}));
  const InstId dead = cs.add(make_inst(1, {3}));
  cs.add(make_inst(1, {4}));
  cs.remove(dead);
  const auto ids = cs.of_rule(1);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_LT(ids[0], ids[1]);
}

TEST(ConflictSet, AliveIdsAscending) {
  ConflictSet cs;
  for (int i = 0; i < 10; ++i) cs.add(make_inst(0, {static_cast<FactId>(i + 1)}));
  cs.remove(4);
  const auto ids = cs.alive_ids();
  EXPECT_EQ(ids.size(), 9u);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
}

TEST(ConflictSet, ClearForgetsRefractionAndRestartsIds) {
  ConflictSet cs;
  const InstId a = cs.add(make_inst(0, {1, 2}));
  cs.add(make_inst(1, {3}));
  cs.mark_fired(a);
  cs.clear();
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_EQ(cs.high_water(), 0u);
  EXPECT_TRUE(cs.alive_ids().empty());
  EXPECT_FALSE(cs.has_fired(make_inst(0, {1, 2})));
  // The fired key is no longer refracted, and ids start over.
  EXPECT_EQ(cs.add(make_inst(0, {1, 2})), 0u);
  EXPECT_EQ(cs.add(make_inst(1, {3})), 1u);
  EXPECT_EQ(cs.add(make_inst(1, {3})), kInvalidInst);
  cs.remove_by_fact(3);
  EXPECT_EQ(cs.alive_ids(), std::vector<InstId>{0});
}

// The alive list (ids retired since the last purge stay listed) must
// answer every reader exactly as a scan of alive(id) over every id ever
// issued does, through many purges and clears.
TEST(ConflictSet, AliveListAgreesWithBruteForceScan) {
  constexpr RuleId kRules = 4;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 2654435761u + 1);
    ConflictSet cs;
    auto random_inst = [&] {
      std::vector<FactId> facts;
      const auto n = 1 + rng.below(3);  // self-joins repeat a fact
      for (std::uint64_t i = 0; i < n; ++i) facts.push_back(1 + rng.below(24));
      return make_inst(static_cast<RuleId>(rng.below(kRules)),
                       std::move(facts));
    };
    for (int op = 0; op < 1500; ++op) {
      std::vector<InstId> alive;
      for (InstId id = 0; id < cs.high_water(); ++id) {
        if (cs.alive(id)) alive.push_back(id);
      }
      const auto roll = rng.below(100);
      if (roll < 40) {
        cs.add(random_inst());
      } else if (roll < 55) {
        cs.remove(rng.below(cs.high_water() + 1));
      } else if (roll < 70) {
        cs.remove_by_key(random_inst());
      } else if (roll < 80) {
        cs.remove_by_fact(1 + rng.below(24));
      } else if (roll < 99) {
        if (!alive.empty()) cs.mark_fired(alive[rng.below(alive.size())]);
      } else {
        cs.clear();
      }

      alive.clear();
      for (InstId id = 0; id < cs.high_water(); ++id) {
        if (cs.alive(id)) alive.push_back(id);
      }
      ASSERT_EQ(cs.alive_ids(), alive) << "op " << op;
      ASSERT_EQ(cs.size(), alive.size());
      std::vector<InstId> visited;
      cs.for_each([&](const Instantiation& inst) { visited.push_back(inst.id); });
      ASSERT_EQ(visited, alive);
      for (RuleId r = 0; r < kRules; ++r) {
        std::vector<InstId> of_rule;
        for (InstId id : alive) {
          if (cs.get(id).rule == r) of_rule.push_back(id);
        }
        ASSERT_EQ(cs.of_rule(r), of_rule) << "rule " << r;
      }
    }
  }
}

// -------------------------------------------------------------- matchers

class MatcherTest : public ::testing::TestWithParam<MatcherKind> {
 protected:
  void load(const std::string& source) {
    program_ = parse_program(source);
    wm_ = std::make_unique<WorkingMemory>(program_.schema);
    if (GetParam() == MatcherKind::ParallelTreat) {
      pool_ = std::make_unique<ThreadPool>(4);
    }
    matcher_ = make_matcher(GetParam(), program_, pool_.get());
    for (const auto& fact : program_.initial_facts) {
      wm_->assert_fact(fact.tmpl, fact.slots);
    }
    sync();
  }

  void sync() { matcher_->apply_delta(*wm_, wm_->drain_delta()); }

  FactId assert_fact(const char* tmpl, std::vector<std::int64_t> vals) {
    const TemplateId t = *program_.schema.find(program_.symbols->intern(tmpl));
    std::vector<Value> slots;
    for (auto v : vals) slots.push_back(Value::integer(v));
    return wm_->assert_fact(t, std::move(slots));
  }

  std::size_t cs_size() { return matcher_->conflict_set().size(); }

  Program program_;
  std::unique_ptr<WorkingMemory> wm_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Matcher> matcher_;
};

TEST_P(MatcherTest, SinglePatternMatches) {
  load(R"(
    (deftemplate item (slot v))
    (defrule r (item (v ?x)) => (halt))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  EXPECT_EQ(cs_size(), 3u);
}

TEST_P(MatcherTest, ConstantAlphaFilter) {
  load(R"(
    (deftemplate item (slot v))
    (defrule r (item (v 2)) => (halt))
    (deffacts f (item (v 1)) (item (v 2)) (item (v 3))))");
  EXPECT_EQ(cs_size(), 1u);
}

TEST_P(MatcherTest, IntraPatternEquality) {
  load(R"(
    (deftemplate pair (slot a) (slot b))
    (defrule r (pair (a ?x) (b ?x)) => (halt))
    (deffacts f (pair (a 1) (b 1)) (pair (a 1) (b 2)) (pair (a 3) (b 3))))");
  EXPECT_EQ(cs_size(), 2u);
}

TEST_P(MatcherTest, TwoWayJoin) {
  load(R"(
    (deftemplate edge (slot from) (slot to))
    (defrule r (edge (from ?a) (to ?b)) (edge (from ?b) (to ?c)) => (halt))
    (deffacts f
      (edge (from 1) (to 2))
      (edge (from 2) (to 3))
      (edge (from 2) (to 4))
      (edge (from 5) (to 6))))");
  // 1->2 joins 2->3 and 2->4.
  EXPECT_EQ(cs_size(), 2u);
}

TEST_P(MatcherTest, SelfJoinFactPairs) {
  load(R"(
    (deftemplate n (slot v))
    (defrule r (n (v ?a)) (n (v ?b)) (test (< ?a ?b)) => (halt))
    (deffacts f (n (v 1)) (n (v 2)) (n (v 3))))");
  // Ordered pairs: (1,2) (1,3) (2,3).
  EXPECT_EQ(cs_size(), 3u);
}

TEST_P(MatcherTest, GuardsPruneJoins) {
  load(R"(
    (deftemplate n (slot v))
    (defrule r (n (v ?a)) (n (v ?b)) (test (== (+ ?a ?b) 10)) => (halt))
    (deffacts f (n (v 4)) (n (v 6)) (n (v 5))))");
  // (4,6), (6,4), (5,5).
  EXPECT_EQ(cs_size(), 3u);
}

TEST_P(MatcherTest, IncrementalAssertGrowsConflictSet) {
  load(R"(
    (deftemplate edge (slot from) (slot to))
    (defrule r (edge (from ?a) (to ?b)) (edge (from ?b) (to ?c)) => (halt)))");
  EXPECT_EQ(cs_size(), 0u);
  assert_fact("edge", {1, 2});
  sync();
  EXPECT_EQ(cs_size(), 0u);
  assert_fact("edge", {2, 3});
  sync();
  EXPECT_EQ(cs_size(), 1u);
  assert_fact("edge", {3, 1});
  sync();
  // 1->2->3, 2->3->1, 3->1->2.
  EXPECT_EQ(cs_size(), 3u);
}

TEST_P(MatcherTest, RetractInvalidatesInstantiations) {
  load(R"(
    (deftemplate edge (slot from) (slot to))
    (defrule r (edge (from ?a) (to ?b)) (edge (from ?b) (to ?c)) => (halt))
    (deffacts f (edge (from 1) (to 2)) (edge (from 2) (to 3))))");
  EXPECT_EQ(cs_size(), 1u);
  const auto id = wm_->find(*program_.schema.find(
                                program_.symbols->intern("edge")),
                            {Value::integer(2), Value::integer(3)});
  ASSERT_TRUE(id.has_value());
  wm_->retract(*id);
  sync();
  EXPECT_EQ(cs_size(), 0u);
}

TEST_P(MatcherTest, NegationBlocksWhenFactPresent) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (not (b (v ?x))) => (halt))
    (deffacts f (a (v 1)) (a (v 2)) (b (v 1))))");
  EXPECT_EQ(cs_size(), 1u);  // only (a 2)
}

TEST_P(MatcherTest, NegationAssertRemovesInstantiation) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (not (b (v ?x))) => (halt))
    (deffacts f (a (v 1))))");
  EXPECT_EQ(cs_size(), 1u);
  assert_fact("b", {1});
  sync();
  EXPECT_EQ(cs_size(), 0u);
}

TEST_P(MatcherTest, NegationRetractRestoresInstantiation) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (not (b (v ?x))) => (halt))
    (deffacts f (a (v 1)) (b (v 1))))");
  EXPECT_EQ(cs_size(), 0u);
  const auto id = wm_->find(
      *program_.schema.find(program_.symbols->intern("b")),
      {Value::integer(1)});
  ASSERT_TRUE(id.has_value());
  wm_->retract(*id);
  sync();
  EXPECT_EQ(cs_size(), 1u);
}

TEST_P(MatcherTest, NegationWithLocalVariableIsExistential) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (not (b (v ?y))) => (halt))
    (deffacts f (a (v 1))))");
  // No b facts at all: matches.
  EXPECT_EQ(cs_size(), 1u);
  assert_fact("b", {99});
  sync();
  // Any b fact blocks (existential local ?y).
  EXPECT_EQ(cs_size(), 0u);
}

TEST_P(MatcherTest, ExistsRequiresWitness) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (exists (b (v ?x))) => (halt))
    (deffacts f (a (v 1)) (a (v 2)) (b (v 1))))");
  EXPECT_EQ(cs_size(), 1u);  // only (a 1) has a witness
}

TEST_P(MatcherTest, ExistsAssertEnablesInstantiation) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (exists (b (v ?x))) => (halt))
    (deffacts f (a (v 1))))");
  EXPECT_EQ(cs_size(), 0u);
  assert_fact("b", {1});
  sync();
  EXPECT_EQ(cs_size(), 1u);
}

TEST_P(MatcherTest, ExistsRetractDisablesInstantiation) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (exists (b (v ?x))) => (halt))
    (deffacts f (a (v 1)) (b (v 1))))");
  EXPECT_EQ(cs_size(), 1u);
  const auto id = wm_->find(
      *program_.schema.find(program_.symbols->intern("b")),
      {Value::integer(1)});
  ASSERT_TRUE(id.has_value());
  wm_->retract(*id);
  sync();
  EXPECT_EQ(cs_size(), 0u);
}

TEST_P(MatcherTest, ExistsSecondWitnessKeepsInstantiationAlive) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v) (slot tag))
    (defrule r (a (v ?x)) (exists (b (v ?x))) => (halt))
    (deffacts f (a (v 1)) (b (v 1) (tag 10)) (b (v 1) (tag 20))))");
  EXPECT_EQ(cs_size(), 1u);
  // Removing ONE of the two witnesses must not disable the match.
  const TemplateId b_t = *program_.schema.find(program_.symbols->intern("b"));
  const auto id = wm_->find(b_t, {Value::integer(1), Value::integer(10)});
  ASSERT_TRUE(id.has_value());
  wm_->retract(*id);
  sync();
  EXPECT_EQ(cs_size(), 1u);
  // Removing the last witness disables it.
  const auto id2 = wm_->find(b_t, {Value::integer(1), Value::integer(20)});
  ASSERT_TRUE(id2.has_value());
  wm_->retract(*id2);
  sync();
  EXPECT_EQ(cs_size(), 0u);
}

TEST_P(MatcherTest, MixedNotAndExists) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate ok (slot v))
    (deftemplate bad (slot v))
    (defrule r (a (v ?x)) (exists (ok (v ?x))) (not (bad (v ?x))) => (halt))
    (deffacts f
      (a (v 1)) (ok (v 1))
      (a (v 2)) (ok (v 2)) (bad (v 2))
      (a (v 3))))");
  EXPECT_EQ(cs_size(), 1u);  // only (a 1): 2 is vetoed, 3 has no witness
}

TEST_P(MatcherTest, ExistsWithLocalVariableIsPureExistential) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (exists (b (v ?anything))) => (halt))
    (deffacts f (a (v 1)) (a (v 2))))");
  EXPECT_EQ(cs_size(), 0u);
  assert_fact("b", {99});
  sync();
  EXPECT_EQ(cs_size(), 2u);  // any b fact satisfies both
}

TEST_P(MatcherTest, MultipleNegations) {
  load(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (deftemplate c (slot v))
    (defrule r (a (v ?x)) (not (b (v ?x))) (not (c (v ?x))) => (halt))
    (deffacts f (a (v 1)) (a (v 2)) (a (v 3)) (b (v 1)) (c (v 2))))");
  EXPECT_EQ(cs_size(), 1u);  // only (a 3)
}

TEST_P(MatcherTest, BatchDeltaWithMixedAddRemove) {
  load(R"(
    (deftemplate item (slot v))
    (defrule r (item (v ?x)) => (halt)))");
  const FactId a = assert_fact("item", {1});
  assert_fact("item", {2});
  wm_->retract(a);
  assert_fact("item", {3});
  sync();  // one delta: +1 +2 -1 +3
  EXPECT_EQ(cs_size(), 2u);
}

TEST_P(MatcherTest, DuplicateDerivationsAreDeduped) {
  // A fact matching two positions of a self-join arrives in one delta;
  // seminaive derivation sees it from both sides.
  load(R"(
    (deftemplate n (slot v))
    (defrule r (n (v ?a)) (n (v ?b)) => (halt))
    (deffacts f (n (v 1)) (n (v 2))))");
  // Pairs with repetition: (1,1) (1,2) (2,1) (2,2).
  EXPECT_EQ(cs_size(), 4u);
}

TEST_P(MatcherTest, ThreeWayJoinChain) {
  load(R"(
    (deftemplate r0 (slot a) (slot b))
    (deftemplate r1 (slot a) (slot b))
    (deftemplate r2 (slot a) (slot b))
    (defrule chain (r0 (a ?x) (b ?y)) (r1 (a ?y) (b ?z)) (r2 (a ?z) (b ?w))
      => (halt))
    (deffacts f
      (r0 (a 1) (b 2)) (r1 (a 2) (b 3)) (r2 (a 3) (b 4))
      (r1 (a 2) (b 5)) (r2 (a 5) (b 6))))");
  EXPECT_EQ(cs_size(), 2u);
}

// ------------------------------------------------------ RETE internals

TEST(ReteInternals, TokensTrackPartialMatches) {
  Program p = parse_program(R"(
    (deftemplate r0 (slot a) (slot b))
    (deftemplate r1 (slot a) (slot b))
    (defrule chain (r0 (a ?x) (b ?y)) (r1 (a ?y) (b ?z)) => (halt)))");
  WorkingMemory wm(p.schema);
  ReteMatcher rete(p.rules, p.alphas, p.schema.size());

  const TemplateId r0 = *p.schema.find(p.symbols->intern("r0"));
  const TemplateId r1 = *p.schema.find(p.symbols->intern("r1"));
  wm.assert_fact(r0, {Value::integer(1), Value::integer(2)});
  rete.apply_delta(wm, wm.drain_delta());
  // One token in memory 0, nothing downstream.
  EXPECT_EQ(rete.token_count(), 1u);
  EXPECT_EQ(rete.conflict_set().size(), 0u);

  wm.assert_fact(r1, {Value::integer(2), Value::integer(3)});
  rete.apply_delta(wm, wm.drain_delta());
  // Memory 0 token + full-match token in memory 1.
  EXPECT_EQ(rete.token_count(), 2u);
  EXPECT_EQ(rete.conflict_set().size(), 1u);

  // Retracting the r0 fact tears down both tokens and the match.
  const auto id = wm.find(r0, {Value::integer(1), Value::integer(2)});
  wm.retract(*id);
  rete.apply_delta(wm, wm.drain_delta());
  EXPECT_EQ(rete.token_count(), 0u);
  EXPECT_EQ(rete.conflict_set().size(), 0u);
  EXPECT_GE(rete.stats().tokens_deleted, 2u);
}

TEST(ReteInternals, GateCountsMultipleBlockers) {
  Program p = parse_program(R"(
    (deftemplate a (slot v))
    (deftemplate b (slot v))
    (defrule r (a (v ?x)) (not (b (v ?x))) => (halt)))");
  WorkingMemory wm(p.schema);
  ReteMatcher rete(p.rules, p.alphas, p.schema.size());

  const TemplateId a_t = *p.schema.find(p.symbols->intern("a"));
  const TemplateId b_t = *p.schema.find(p.symbols->intern("b"));
  wm.assert_fact(a_t, {Value::integer(1)});
  rete.apply_delta(wm, wm.drain_delta());
  EXPECT_EQ(rete.conflict_set().size(), 1u);

  // Two blockers: only when BOTH are gone may the match return. But the
  // first production was already fired-equivalent? No firing happened,
  // so remove/add through the gate must be exact.
  const FactId b1 = wm.assert_fact(b_t, {Value::integer(1)});
  rete.apply_delta(wm, wm.drain_delta());
  EXPECT_EQ(rete.conflict_set().size(), 0u);
  const FactId b2 = wm.assert_fact(b_t, {Value::integer(1), });
  // identical content: absorbed, no delta
  EXPECT_EQ(b2, kInvalidFact);

  // A second distinct blocker via another value slot isn't possible on
  // a 1-slot template; simulate via retract/assert cycling instead.
  wm.retract(b1);
  rete.apply_delta(wm, wm.drain_delta());
  EXPECT_EQ(rete.conflict_set().size(), 1u);
}

TEST(ReteInternals, SelfJoinFactRemovalPurgesAllTokens) {
  Program p = parse_program(R"(
    (deftemplate n (slot v))
    (defrule pair (n (v ?a)) (n (v ?b)) => (halt)))");
  WorkingMemory wm(p.schema);
  ReteMatcher rete(p.rules, p.alphas, p.schema.size());
  const TemplateId n_t = *p.schema.find(p.symbols->intern("n"));
  const FactId f1 = wm.assert_fact(n_t, {Value::integer(1)});
  wm.assert_fact(n_t, {Value::integer(2)});
  rete.apply_delta(wm, wm.drain_delta());
  EXPECT_EQ(rete.conflict_set().size(), 4u);  // (1,1)(1,2)(2,1)(2,2)
  wm.retract(f1);
  rete.apply_delta(wm, wm.drain_delta());
  EXPECT_EQ(rete.conflict_set().size(), 1u);  // (2,2)
}

TEST_P(MatcherTest, StatsCountDerivations) {
  load(R"(
    (deftemplate item (slot v))
    (defrule r (item (v ?x)) => (halt))
    (deffacts f (item (v 1)) (item (v 2))))");
  EXPECT_EQ(matcher_->stats().insts_derived, 2u);
  EXPECT_GE(matcher_->stats().deltas_processed, 1u);
}

// A cleared TreatMatcher over a cleared working memory must replay a
// script exactly as a fresh pair does: same InstIds, same instantiations,
// same counters, same quantified-CE index — the meta level reuses one
// matcher across cycles on this promise.
TEST(TreatClear, ReplaysLikeAFreshMatcher) {
  const Program p = parse_program(R"(
    (deftemplate a (slot k) (slot v))
    (deftemplate b (slot k))
    (deftemplate c (slot k))
    (defrule join (a (k ?k) (v ?v)) (b (k ?k)) (not (c (k ?k))) => (halt))
    (defrule self (a (k ?k) (v ?x)) (a (k ?k) (v ?y)) (test (< ?x ?y))
                  => (halt))
    (defrule seen (b (k ?k)) (exists (c (k ?k))) => (halt)))");
  auto tmpl = [&](const char* name) {
    return *p.schema.find(p.symbols->intern(name));
  };
  struct Snapshot {
    std::vector<std::pair<InstId, std::vector<FactId>>> cs;
    std::uint64_t derived, invalidated, rejects, rematches;
    std::size_t quant;
    bool operator==(const Snapshot&) const = default;
  };
  // Three deltas: a burst, retractions that unblock and disable, more.
  auto script = [&](WorkingMemory& wm, TreatMatcher& m) {
    std::vector<Snapshot> out;
    auto step = [&] {
      m.apply_delta(wm, wm.drain_delta());
      Snapshot snap{{}, m.stats().insts_derived, m.stats().insts_invalidated,
                    m.stats().derive_rejects, m.stats().full_rematches,
                    m.quant_entries()};
      m.conflict_set().for_each([&](const Instantiation& inst) {
        snap.cs.emplace_back(inst.id, inst.facts);
      });
      out.push_back(std::move(snap));
    };
    std::vector<FactId> cs_facts;
    for (std::int64_t k = 0; k < 6; ++k) {
      for (std::int64_t v = 0; v < 3; ++v) {
        wm.assert_fact(tmpl("a"), {Value::integer(k), Value::integer(v)});
      }
      wm.assert_fact(tmpl("b"), {Value::integer(k)});
      if (k % 2 == 0) {
        cs_facts.push_back(wm.assert_fact(tmpl("c"), {Value::integer(k)}));
      }
    }
    step();
    wm.retract(cs_facts[0]);
    wm.retract(cs_facts[1]);
    wm.assert_fact(tmpl("c"), {Value::integer(1)});
    step();
    m.conflict_set().mark_fired(m.conflict_set().alive_ids().front());
    wm.assert_fact(tmpl("a"), {Value::integer(1), Value::integer(9)});
    wm.assert_fact(tmpl("c"), {Value::integer(3)});
    step();
    return out;
  };

  WorkingMemory wm(p.schema);
  TreatMatcher reused(p.rules, p.alphas, p.schema.size());
  const std::vector<Snapshot> first = script(wm, reused);
  ASSERT_GT(first.back().quant, 0u);
  for (int pass = 0; pass < 2; ++pass) {
    wm.clear();
    reused.clear();
    EXPECT_EQ(reused.quant_entries(), 0u);
    EXPECT_EQ(reused.conflict_set().high_water(), 0u);
    EXPECT_EQ(script(wm, reused), first) << "pass " << pass;
  }
  WorkingMemory fresh_wm(p.schema);
  TreatMatcher fresh(p.rules, p.alphas, p.schema.size());
  EXPECT_EQ(script(fresh_wm, fresh), first);
}

std::string matcher_case_name(
    const ::testing::TestParamInfo<MatcherKind>& info) {
  std::string name = matcher_kind_name(info.param);
  // gtest parameter names must be alphanumeric.
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllMatchers, MatcherTest,
                         ::testing::Values(MatcherKind::Rete,
                                           MatcherKind::Treat,
                                           MatcherKind::ParallelTreat,
                                           MatcherKind::Compiled),
                         matcher_case_name);

}  // namespace
}  // namespace parulel
