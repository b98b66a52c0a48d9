// Allocation tests: warmed-up steady-state conflict-set, quantifier-index
// and unblock re-derivation work allocates nothing, and neither does
// lexing program text.
//
// Its own executable because it replaces the global operator new with a
// counting one. Each test warms its structures up to their peak shape,
// then counts the allocations of many more rounds of the same churn.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "match/conflict_set.hpp"
#include "match/quant_index.hpp"
#include "match/treat.hpp"
#include "workloads/workloads.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace parulel {
namespace {

/// Allocations made by `fn`.
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(Alloc, CounterSeesAllocations) {
  // A direct call: unlike a new-expression it may not be elided.
  EXPECT_EQ(allocations_of([] { ::operator delete(::operator new(16)); }),
            1u);
}

// Token text is a view into the source, so pulling every token of a
// program without escaped strings allocates nothing.
TEST(Alloc, LexingAllocatesNothing) {
  const std::string source = workloads::make_waltz(16).source;
  ASSERT_EQ(source.find('\\'), std::string::npos);
  std::uint64_t tokens = 0;
  const std::uint64_t allocs = allocations_of([&] {
    Lexer lexer(source);
    while (lexer.next().kind != TokenKind::End) ++tokens;
  });
  EXPECT_GT(tokens, 100000u);
  EXPECT_EQ(allocs, 0u);
}

// Add, fire, remove by id, key and fact, and quantifier probes, with
// fact ids that never return — the engines' steady state.
TEST(Alloc, ConflictSetSteadyStateAllocatesNothing) {
  ConflictSet cs;
  FactId next = 1;
  const std::size_t keys[2] = {3, 5};
  std::vector<FactId> pair(2), self(2), third(3);
  std::uint64_t visited = 0;
  auto round = [&](int r) {
    const FactId f = next++;
    const auto rule = static_cast<RuleId>(r % 3);
    pair = {f > 16 ? f - 16 : f, f};
    self = {f, f};
    third = {f, f > 8 ? f - 8 : f, f > 4 ? f - 4 : f};
    const InstId a =
        cs.add(rule, pair, std::span<const std::size_t>(keys, rule));
    const InstId b = cs.add(rule, self);
    const InstId c = cs.add(3, third);
    if (r % 2 == 0 && a != kInvalidInst) cs.mark_fired(a);
    if (r % 5 == 0) cs.remove(b);
    if (r % 7 == 0) cs.remove_by_key(3, third);
    if (r % 3 == 1 && c != kInvalidInst && cs.alive(c)) {
      visited += cs.get(c).facts.size();
    }
    cs.for_each_quant(2, 1, 5, [&](InstId id) {
      if (id % 11 == 0) cs.remove(id);
      ++visited;
    });
    if (f > 32) cs.remove_by_fact(f - 32);
  };
  int r = 0;
  for (; r < 20'000; ++r) round(r);
  EXPECT_EQ(allocations_of([&] {
              for (const int end = r + 200'000; r < end; ++r) round(r);
            }),
            0u);
  EXPECT_GT(visited, 0u);
}

constexpr const char* kBlockProgram = R"(
  (deftemplate a (slot k) (slot v))
  (deftemplate c (slot k))
  (defrule free (a (k ?k) (v ?v)) (not (c (k ?k))) => (halt)))";

struct BlockFixture {
  Program program = parse_program(kBlockProgram);
  WorkingMemory wm{program.schema};
  TreatMatcher matcher{program.rules, program.alphas, program.schema.size()};
  std::vector<FactId> items;
  FactId blocker = kInvalidFact;

  BlockFixture() {
    const TemplateId a = *program.schema.find(program.symbols->intern("a"));
    const TemplateId c = *program.schema.find(program.symbols->intern("c"));
    for (std::int64_t k = 0; k < 8; ++k) {
      for (std::int64_t v = 0; v < 4; ++v) {
        items.push_back(wm.assert_fact(a, {Value::integer(k), Value::integer(v)}));
      }
    }
    blocker = wm.assert_fact(c, {Value::integer(3)});
    matcher.apply_delta(wm, wm.drain_delta());
  }
};

// Quantifier keys ride in the conflict-set record: computing them,
// adding, and the blocking probe that removes the blocked ones.
TEST(Alloc, QuantIndexSteadyStateAllocatesNothing) {
  BlockFixture fx;
  const CompiledRule& rule = fx.program.rules[0];
  QuantIndex quant(fx.matcher.join().plans());
  ConflictSet cs;
  std::vector<Value> env;
  std::vector<InstId> alive;
  alive.reserve(fx.items.size());
  std::uint64_t blocked = 0;
  auto round = [&] {
    alive.clear();
    for (const FactId item : fx.items) {
      const std::span<const FactId> facts(&item, 1);
      rebuild_env(rule, facts, [&](FactId f) { return fx.wm.view(f); }, env);
      alive.push_back(cs.add(0, facts, quant.keys(0, env)));
    }
    quant.for_candidates(cs, 0, 0, fx.wm.view(fx.blocker), [&](InstId id) {
      cs.remove(id);
      ++blocked;
    });
    for (const InstId id : alive) cs.remove(id);
  };
  for (int r = 0; r < 100; ++r) round();
  EXPECT_EQ(allocations_of([&] {
              for (int r = 0; r < 10'000; ++r) round();
            }),
            0u);
  EXPECT_EQ(blocked, 10'100u * 4);  // the four a-facts with k = 3
  EXPECT_EQ(cs.quant_entries(), 0u);
}

// The constrained re-derivation a retracted (not ...) blocker triggers:
// its pins and position-0 probe key live in the caller's JoinScratch.
TEST(Alloc, UnblockRederivationAllocatesNothing) {
  BlockFixture fx;
  fx.wm.retract(fx.blocker);
  fx.matcher.apply_delta(fx.wm, fx.wm.drain_delta());
  const JoinEngine& join = fx.matcher.join();
  JoinScratch scratch;
  std::uint64_t found = 0;
  auto round = [&] {
    join.enumerate_unblocked(fx.wm, 0, 0, fx.wm.view(fx.blocker), scratch,
                             [&](std::span<const FactId>,
                                 std::span<const Value>) { ++found; });
  };
  round();
  EXPECT_EQ(allocations_of([&] {
              for (int r = 0; r < 10'000; ++r) round();
            }),
            0u);
  EXPECT_EQ(found, 10'001u * 4);
}

}  // namespace
}  // namespace parulel
