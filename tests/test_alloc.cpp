// Allocation tests: warmed-up steady-state conflict-set, quantifier-index
// and unblock re-derivation work allocates nothing, and neither does
// lexing program text, firing into a warmed FiringBuffer, or the
// thread pool's parallel_for.
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

#include "engine/actions.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "match/conflict_set.hpp"
#include "match/quant_index.hpp"
#include "match/treat.hpp"
#include "runtime/thread_pool.hpp"
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

// Asserts, retracts, modifies and a printout, each rule firing several
// times, matched once so the conflict set is fixed.
constexpr const char* kFiringProgram = R"(
  (deftemplate n (slot v) (slot w))
  (deftemplate out (slot v) (slot sq))
  (defrule grow (n (v ?x) (w ?w)) => (assert (out (v ?x) (sq (* ?x ?x)))))
  (defrule drop ?f <- (n (v ?x) (w 0)) => (retract ?f))
  (defrule bump ?f <- (n (v ?x) (w 1)) => (modify ?f (w (+ ?x 2))))
  (defrule say (n (v ?x) (w 2)) => (printout "n " ?x " is " two))
  (deffacts f (n (v 1) (w 0)) (n (v 2) (w 1)) (n (v 3) (w 2))
              (n (v 4) (w 0)) (n (v 5) (w 1)) (n (v 6) (w 2))))";

struct FiringFixture {
  Program program = parse_program(kFiringProgram);
  WorkingMemory wm{program.schema};
  TreatMatcher matcher{program.rules, program.alphas, program.schema.size()};
  std::vector<InstId> to_fire;

  FiringFixture() {
    for (const auto& f : program.initial_facts) {
      wm.assert_fact(f.tmpl, f.slots);
    }
    matcher.apply_delta(wm, wm.drain_delta());
    to_fire = matcher.conflict_set().alive_ids();
  }

  /// Fire every instantiation into `buffer` (cleared first).
  void fire_all(FiringBuffer& buffer) {
    buffer.clear();
    for (const InstId id : to_fire) {
      fire_buffered(program, matcher.conflict_set().get(id), wm, buffer);
    }
  }
};

TEST(Alloc, WarmFiringBufferAllocatesNothing) {
  FiringFixture fx;
  ASSERT_EQ(fx.to_fire.size(), 12u);  // 6 grow, 2 drop, 2 bump, 2 say
  FiringBuffer buffer;
  fx.fire_all(buffer);
  EXPECT_EQ(allocations_of([&] {
              for (int r = 0; r < 1'000; ++r) fx.fire_all(buffer);
            }),
            0u);
  // The work was done: every firing buffered, the printouts among them.
  ASSERT_EQ(buffer.size(), 12u);
  std::string text;
  for (std::size_t f = 0; f < buffer.size(); ++f) {
    text += buffer.text(buffer.firing(f));
  }
  EXPECT_EQ(text, "n 3 is two\nn 6 is two\n");
}

// The fire phase as ParallelEngine::step runs it at 4 threads: one
// warmed buffer per worker, a closure small enough for std::function's
// in-place storage, and parallel_for's chunks cut from a range rather
// than built as one std::function each.
TEST(Alloc, FirePhaseAtFourThreadsAllocatesNothing) {
  FiringFixture fx;
  ThreadPool pool(4);
  std::vector<FiringBuffer> buffers(pool.thread_count());
  // Each buffer once holds the whole cycle, so any split of the firings
  // across workers fits in its capacity.
  for (FiringBuffer& buffer : buffers) fx.fire_all(buffer);
  auto cycle = [&] {
    for (FiringBuffer& buffer : buffers) buffer.clear();
    pool.parallel_for(0, fx.to_fire.size(), [&fx, &buffers](std::size_t i,
                                                            unsigned w) {
      fire_buffered(fx.program, fx.matcher.conflict_set().get(fx.to_fire[i]),
                    fx.wm, buffers[w]);
    });
  };
  cycle();
  EXPECT_EQ(allocations_of([&] {
              for (int r = 0; r < 1'000; ++r) cycle();
            }),
            0u);
  std::size_t total = 0;
  for (const FiringBuffer& buffer : buffers) total += buffer.size();
  EXPECT_EQ(total, fx.to_fire.size());
}

TEST(Alloc, ParallelForAllocatesNothing) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  const std::function<void(std::size_t, unsigned)> fn =
      [&sum](std::size_t i, unsigned) {
        sum.fetch_add(i, std::memory_order_relaxed);
      };
  pool.parallel_for(0, 1000, fn);
  EXPECT_EQ(allocations_of([&] {
              for (int r = 0; r < 1'000; ++r) pool.parallel_for(0, 1000, fn);
            }),
            0u);
  EXPECT_EQ(sum.load(), 1001u * (999u * 1000u / 2));
}

}  // namespace
}  // namespace parulel
