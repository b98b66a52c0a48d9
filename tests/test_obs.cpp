// Unit tests: observability layer — JSON writer, metrics registry,
// trace sink wiring, schema tables, and the allocation discipline of
// the hot emission path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "engine/par_engine.hpp"
#include "engine/seq_engine.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "workloads/workloads.hpp"

// ---------------------------------------------------------------------
// Global allocation counter, so tests can assert a code path performs
// no heap allocation once at steady state.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace parulel {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON validity checker (objects, arrays, strings, numbers,
// true/false/null). Strict enough to catch missing commas, unescaped
// control characters, and truncated documents.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr(".eE+-", text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

bool is_valid_json(std::string_view text) {
  return JsonChecker(text).valid();
}

/// Pull a numeric field value out of a flat JSON object line.
std::uint64_t field_u64(const std::string& line, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const auto at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << name << " missing in " << line;
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

bool has_field(const std::string& line, const std::string& name) {
  return line.find("\"" + name + "\":") != std::string::npos;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

// ---------------------------------------------------------------------
// JsonWriter

TEST(JsonWriter, EscapesStringsAndFormatsNumbers) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "a\"b\\c\nd\te");
  w.field("count", std::uint64_t{42});
  w.field("neg", std::int64_t{-7});
  w.field("frac", 0.5);
  w.field("flag", true);
  w.key("ctrl").value(std::string_view("\x01", 1));
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\\te\",\"count\":42,\"neg\":-7,"
            "\"frac\":0.5,\"flag\":true,\"ctrl\":\"\\u0001\"}");
  EXPECT_TRUE(is_valid_json(w.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("nan", std::nan(""));
  w.field("ok", 1.0);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"nan\":null,\"ok\":1}");
  EXPECT_TRUE(is_valid_json(w.str()));
}

TEST(JsonWriter, ClearReusesBufferWithoutAllocating) {
  obs::JsonWriter w;
  // Warm up: reach steady-state capacity.
  for (int i = 0; i < 3; ++i) {
    w.clear();
    w.begin_object();
    w.field("cycle", std::uint64_t{123456789});
    w.field("engine", "parallel-treat");
    w.field("match_ns", std::uint64_t{987654321});
    w.end_object();
  }
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    w.clear();
    w.begin_object();
    w.field("cycle", static_cast<std::uint64_t>(i));
    w.field("engine", "parallel-treat");
    w.field("match_ns", std::uint64_t{987654321});
    w.end_object();
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "steady-state JSONL emission must not allocate";
}

// ---------------------------------------------------------------------
// Schema tables

TEST(StatsSchema, CycleFieldsCoverPhaseTimings) {
  bool saw_match = false, saw_redact = false, saw_fire = false,
       saw_merge = false;
  for (const auto& f : obs::cycle_fields()) {
    const std::string_view name = f.name;
    saw_match |= name == "match_ns";
    saw_redact |= name == "redact_ns";
    saw_fire |= name == "fire_ns";
    saw_merge |= name == "merge_ns";
  }
  EXPECT_TRUE(saw_match && saw_redact && saw_fire && saw_merge);
}

// The redaction phase splits into reify, match and query laps of one
// clock, so on every cycle the three sum exactly to redact_ns.
TEST(StatsSchema, RedactSplitSumsToRedactTimeOnManners) {
  const Program p = parse_program(workloads::make_manners(32, 4, 1).source);
  EngineConfig cfg;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.trace_cycles = true;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  ASSERT_GT(stats.per_cycle.size(), 1u);
  for (const CycleStats& c : stats.per_cycle) {
    EXPECT_EQ(c.meta_reify_ns + c.meta_match_ns + c.meta_query_ns,
              c.redact_ns)
        << "cycle " << c.cycle;
    EXPECT_GT(c.meta_reify_ns, 0u) << "cycle " << c.cycle;
    EXPECT_GT(c.meta_query_ns, 0u) << "cycle " << c.cycle;
  }
  EXPECT_EQ(stats.meta_reify_ns + stats.meta_match_ns + stats.meta_query_ns,
            stats.redact_ns);
  EXPECT_GT(stats.meta_match_ns, 0u);
}

TEST(StatsSchema, RunFieldsRoundTripThroughMemberPointers) {
  RunStats s;
  s.cycles = 3;
  s.total_firings = 17;
  s.wall_ns = 999;
  std::uint64_t cycles = 0, firings = 0, wall = 0;
  for (const auto& f : obs::run_fields()) {
    const std::string_view name = f.name;
    if (name == "cycles") cycles = s.*f.member;
    if (name == "firings") firings = s.*f.member;
    if (name == "wall_ns") wall = s.*f.member;
  }
  EXPECT_EQ(cycles, 3u);
  EXPECT_EQ(firings, 17u);
  EXPECT_EQ(wall, 999u);
}

TEST(StatsSchema, RunToJsonIsValid) {
  RunStats s;
  s.cycles = 2;
  s.halted = true;
  const std::string j = s.to_json();
  EXPECT_TRUE(is_valid_json(j)) << j;
  EXPECT_TRUE(has_field(j, "cycles"));
  EXPECT_TRUE(has_field(j, "halted"));
}

// ---------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("engine.cycles");
  obs::Counter& b = reg.counter("engine.cycles");
  EXPECT_EQ(&a, &b);
  a.add(5);
  // Force growth; the original handle must stay valid.
  for (int i = 0; i < 200; ++i) {
    reg.counter("filler." + std::to_string(i)).add(1);
  }
  a.add(2);
  EXPECT_EQ(reg.counter("engine.cycles").get(), 7u);
  EXPECT_EQ(reg.size(), 201u);
}

TEST(MetricsRegistry, ExportsSortedTextAndValidJson) {
  obs::MetricsRegistry reg;
  reg.set("b.two", 2);
  reg.set("a.one", 1);
  EXPECT_EQ(reg.to_text(), "a.one 1\nb.two 2\n");
  EXPECT_EQ(reg.to_json(), "{\"a.one\":1,\"b.two\":2}");
  EXPECT_TRUE(is_valid_json(reg.to_json()));
}

TEST(MetricsRegistry, RunStatsPublishUsesPrefix) {
  RunStats s;
  s.cycles = 4;
  s.total_firings = 9;
  obs::MetricsRegistry reg;
  s.publish(reg);
  EXPECT_EQ(reg.counter("run.cycles").get(), 4u);
  EXPECT_EQ(reg.counter("run.firings").get(), 9u);
}

// ---------------------------------------------------------------------
// Trace sink driven by the real engines

TEST(TraceSink, ParallelEngineEmitsOneValidCycleEventPerCycle) {
  const Program p = parse_program(workloads::make_sieve(60, true).source);
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.trace = &sink;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();

  const auto lines = lines_of(trace_out.str());
  ASSERT_EQ(sink.events(), lines.size());
  std::size_t cycle_events = 0, run_events = 0;
  for (const auto& line : lines) {
    EXPECT_TRUE(is_valid_json(line)) << line;
    if (line.find("\"type\":\"cycle\"") != std::string::npos) {
      ++cycle_events;
      // Phase timings must sum to the emitted total.
      const std::uint64_t total = field_u64(line, "total_ns");
      EXPECT_EQ(total, field_u64(line, "match_ns") +
                           field_u64(line, "redact_ns") +
                           field_u64(line, "fire_ns") +
                           field_u64(line, "merge_ns"));
      // ... and the redaction split to redact_ns.
      EXPECT_EQ(field_u64(line, "redact_ns"),
                field_u64(line, "meta_reify_ns") +
                    field_u64(line, "meta_match_ns") +
                    field_u64(line, "meta_query_ns"));
      EXPECT_TRUE(has_field(line, "conflict_set"));
      EXPECT_TRUE(has_field(line, "write_conflicts"));
      EXPECT_TRUE(has_field(line, "alpha_activations"));
      EXPECT_TRUE(has_field(line, "pool_jobs"));
    } else if (line.find("\"type\":\"run\"") != std::string::npos) {
      ++run_events;
      EXPECT_EQ(field_u64(line, "cycles"), stats.cycles);
      EXPECT_EQ(field_u64(line, "firings"), stats.total_firings);
    }
  }
  EXPECT_EQ(cycle_events, stats.cycles);
  EXPECT_EQ(run_events, 1u);
}

TEST(TraceSink, SequentialEngineTracesToo) {
  const Program p = parse_program(R"(
    (deftemplate counter (slot n))
    (defrule count-up
      ?c <- (counter (n ?n))
      (test (< ?n 5))
      =>
      (retract ?c)
      (assert (counter (n (+ ?n 1)))))
    (deffacts init (counter (n 0))))");
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  EngineConfig cfg;
  cfg.trace = &sink;
  SequentialEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();

  const auto lines = lines_of(trace_out.str());
  std::size_t cycle_events = 0;
  for (const auto& line : lines) {
    EXPECT_TRUE(is_valid_json(line)) << line;
    if (line.find("\"type\":\"cycle\"") != std::string::npos) ++cycle_events;
  }
  EXPECT_EQ(cycle_events, stats.cycles);
  EXPECT_EQ(stats.total_firings, 5u);
}

TEST(TraceSink, PerCycleWriteConflictsSumToRunTotal) {
  // The non-dedup sieve produces genuine parallel write conflicts; each
  // must be attributed to the cycle that detected it.
  const Program p = parse_program(workloads::make_sieve(80, false).source);
  std::ostringstream trace_out;
  obs::TraceSink sink(trace_out);
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.trace = &sink;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();
  EXPECT_GT(stats.total_write_conflicts, 0u);

  std::uint64_t per_cycle_sum = 0;
  for (const auto& line : lines_of(trace_out.str())) {
    if (line.find("\"type\":\"cycle\"") != std::string::npos) {
      per_cycle_sum += field_u64(line, "write_conflicts");
    }
  }
  EXPECT_EQ(per_cycle_sum, stats.total_write_conflicts);
}

TEST(Metrics, EngineRunPublishesMatcherAndPoolMetrics) {
  const Program p = parse_program(workloads::make_sieve(60, true).source);
  obs::MetricsRegistry reg;
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  cfg.metrics = &reg;
  ParallelEngine engine(p, cfg);
  engine.assert_initial_facts();
  const RunStats stats = engine.run();

  EXPECT_EQ(reg.counter("run.cycles").get(), stats.cycles);
  EXPECT_EQ(reg.counter("run.firings").get(), stats.total_firings);
  EXPECT_GT(reg.counter("match.insts_derived").get(), 0u);
  EXPECT_GT(reg.counter("match.alpha_activations").get(), 0u);
  EXPECT_GT(reg.counter("pool.jobs").get(), 0u);
  EXPECT_EQ(reg.counter("engine.threads").get(), 2u);
  EXPECT_GT(reg.counter("meta.redactions").get(), 0u);
}

// ---------------------------------------------------------------------
// Thread-pool utilization accounting

TEST(PoolStats, ParallelForCountsJobsAndBusyTime) {
  ThreadPool pool(3);
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(0, 1000, [&](std::size_t i, unsigned) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 499500u);
  const PoolStatsSnapshot snap = pool.stats();
  EXPECT_GE(snap.batches, 1u);
  EXPECT_GE(snap.jobs, 1u);
  EXPECT_EQ(snap.per_worker_jobs.size(), 3u);
  std::uint64_t per_worker_total = 0;
  for (const std::uint64_t j : snap.per_worker_jobs) per_worker_total += j;
  EXPECT_EQ(per_worker_total, snap.jobs);
}

}  // namespace
}  // namespace parulel
