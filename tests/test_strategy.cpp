// Unit tests: conflict-resolution strategies on hand-built conflict sets.
#include <gtest/gtest.h>

#include "engine/strategy.hpp"

namespace parulel {
namespace {

/// Minimal rule table: salience per rule, nothing else used by the
/// strategies except `salience`.
std::vector<CompiledRule> rules_with_salience(std::vector<int> saliences) {
  std::vector<CompiledRule> rules;
  for (std::size_t i = 0; i < saliences.size(); ++i) {
    CompiledRule r;
    r.id = static_cast<RuleId>(i);
    r.salience = saliences[i];
    rules.push_back(std::move(r));
  }
  return rules;
}

InstId add(ConflictSet& cs, RuleId rule, std::vector<FactId> facts) {
  return cs.add(rule, facts);
}

TEST(Strategy, EmptyConflictSetSelectsNothing) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  Rng rng(1);
  EXPECT_EQ(select_instantiation(cs, rules, Strategy::Lex, rng),
            kInvalidInst);
}

TEST(Strategy, FirstIsFifo) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  const InstId a = add(cs, 0, {5});
  add(cs, 0, {9});
  Rng rng(1);
  EXPECT_EQ(select_instantiation(cs, rules, Strategy::First, rng), a);
}

TEST(Strategy, LexPrefersMostRecentTimeTag) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  add(cs, 0, {1, 2});
  const InstId recent = add(cs, 0, {1, 9});
  add(cs, 0, {3, 4});
  Rng rng(1);
  EXPECT_EQ(select_instantiation(cs, rules, Strategy::Lex, rng), recent);
}

TEST(Strategy, LexComparesFullSortedTagVectors) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  // Both contain 9; second tag breaks the tie: {9,7} > {9,2}.
  add(cs, 0, {9, 2});
  const InstId winner = add(cs, 0, {7, 9});
  Rng rng(1);
  EXPECT_EQ(select_instantiation(cs, rules, Strategy::Lex, rng), winner);
}

TEST(Strategy, LexPrefixTieGoesToFewerConditions) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  const InstId shorter = add(cs, 0, {9});
  add(cs, 0, {9, 1});
  Rng rng(1);
  EXPECT_EQ(select_instantiation(cs, rules, Strategy::Lex, rng), shorter);
}

TEST(Strategy, MeaFirstConditionDominates) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  // LEX would pick {3, 99}; MEA keys on the FIRST CE's tag: 7 > 3.
  add(cs, 0, {3, 99});
  const InstId mea_winner = add(cs, 0, {7, 8});
  Rng rng(1);
  EXPECT_EQ(select_instantiation(cs, rules, Strategy::Mea, rng),
            mea_winner);
  Rng rng2(1);
  EXPECT_NE(select_instantiation(cs, rules, Strategy::Lex, rng2),
            mea_winner);
}

TEST(Strategy, SalienceDominatesEveryStrategy) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0, 100});
  add(cs, 0, {99, 98});              // recent but low salience
  const InstId important = add(cs, 1, {1});  // stale, high salience
  for (Strategy s : {Strategy::First, Strategy::Lex, Strategy::Mea,
                     Strategy::Random}) {
    Rng rng(7);
    EXPECT_EQ(select_instantiation(cs, rules, s, rng), important)
        << strategy_name(s);
  }
}

TEST(Strategy, RandomIsSeedDeterministicAndInSet) {
  ConflictSet cs;
  const auto rules = rules_with_salience({0});
  for (FactId f = 1; f <= 10; ++f) add(cs, 0, {f});
  Rng rng_a(42), rng_b(42);
  for (int i = 0; i < 20; ++i) {
    const InstId a = select_instantiation(cs, rules, Strategy::Random, rng_a);
    const InstId b = select_instantiation(cs, rules, Strategy::Random, rng_b);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(cs.alive(a));
  }
}

TEST(Strategy, NamesAreStable) {
  EXPECT_STREQ(strategy_name(Strategy::First), "first");
  EXPECT_STREQ(strategy_name(Strategy::Lex), "lex");
  EXPECT_STREQ(strategy_name(Strategy::Mea), "mea");
  EXPECT_STREQ(strategy_name(Strategy::Random), "random");
}

}  // namespace
}  // namespace parulel
