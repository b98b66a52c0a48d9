// R-T4 — Match algorithm comparison: RETE vs TREAT vs parallel TREAT.
//
// Google-benchmark microbenches over the synthetic join chain and the
// real workloads: time to fold the initial fact set into the conflict
// set, plus resident match state (beta tokens vs conflict-set entries).
//
// The BENCH_R-T4.json this emits doubles as a CI regression gate
// (scripts/check_bench_regression.py): every row carries a
// join-throughput figure, and a calibration row measures the host with
// a fixed deterministic spin so the gate can normalize away machine
// speed before comparing against the checked-in baseline.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "parulel.hpp"
#include "support/timer.hpp"

namespace {

using namespace parulel;

struct Loaded {
  Program program;
  std::unique_ptr<ThreadPool> pool;
};

Loaded load(int which) {
  Loaded l;
  switch (which) {
    case 0:
      l.program = parse_program(
          workloads::make_synth(3, 220, 40, 17).source);
      break;
    case 1:
      l.program = parse_program(
          workloads::make_synth(5, 80, 16, 19).source);
      break;
    case 2:
      l.program = parse_program(workloads::make_waltz(8).source);
      break;
    default:
      l.program =
          parse_program(workloads::make_tc(72, 180, 7).source);
      break;
  }
  l.pool = std::make_unique<ThreadPool>(ThreadPool::default_threads());
  return l;
}

const char* kNames[] = {"synth3", "synth5", "waltz8", "tc72"};

std::unique_ptr<Matcher> build_matcher(const Loaded& l, int kind) {
  // One shared switch for the whole tree: the match-layer factory.
  return make_matcher(all_matcher_kinds()[static_cast<std::size_t>(kind)],
                      l.program, l.pool.get());
}

std::vector<std::int64_t> matcher_indexes() {
  std::vector<std::int64_t> idx;
  for (std::size_t i = 0; i < all_matcher_kinds().size(); ++i) {
    idx.push_back(static_cast<std::int64_t>(i));
  }
  return idx;
}

void BM_InitialMatch(benchmark::State& state) {
  const Loaded l = load(static_cast<int>(state.range(0)));
  const int kind = static_cast<int>(state.range(1));
  std::size_t cs = 0, resident = 0;
  for (auto _ : state) {
    state.PauseTiming();
    WorkingMemory wm(l.program.schema);
    for (const auto& f : l.program.initial_facts) {
      wm.assert_fact(f.tmpl, f.slots);
    }
    auto matcher = build_matcher(l, kind);
    state.ResumeTiming();

    matcher->apply_delta(wm, wm.drain_delta());
    benchmark::DoNotOptimize(matcher->conflict_set().size());

    cs = matcher->conflict_set().size();
    resident = matcher->stats().state_entries;
  }
  state.counters["conflict_set"] = static_cast<double>(cs);
  state.counters["state_entries"] = static_cast<double>(resident);
  state.SetLabel(std::string(kNames[state.range(0)]) + "/" +
                 matcher_kind_name(
                     all_matcher_kinds()[static_cast<std::size_t>(kind)]));
}

void BM_IncrementalRetractAssert(benchmark::State& state) {
  // Steady-state churn: retract and re-assert a slice of facts, measure
  // the delta fold. This is where RETE's stored joins pay off.
  const Loaded l = load(static_cast<int>(state.range(0)));
  const int kind = static_cast<int>(state.range(1));

  WorkingMemory wm(l.program.schema);
  for (const auto& f : l.program.initial_facts) {
    wm.assert_fact(f.tmpl, f.slots);
  }
  auto matcher = build_matcher(l, kind);
  matcher->apply_delta(wm, wm.drain_delta());

  // Pick a rotating victim set of facts to churn.
  std::vector<GroundFact> victims;
  for (std::size_t i = 0; i < l.program.initial_facts.size(); i += 10) {
    victims.push_back(l.program.initial_facts[i]);
  }

  for (auto _ : state) {
    for (const auto& v : victims) {
      if (auto id = wm.find(v.tmpl, v.slots)) wm.retract(*id);
    }
    matcher->apply_delta(wm, wm.drain_delta());
    for (const auto& v : victims) {
      wm.assert_fact(v.tmpl, v.slots);
    }
    matcher->apply_delta(wm, wm.drain_delta());
    benchmark::DoNotOptimize(matcher->conflict_set().size());
  }
  state.SetLabel(std::string(kNames[state.range(0)]) + "/" +
                 matcher_kind_name(
                     all_matcher_kinds()[static_cast<std::size_t>(kind)]));
}

}  // namespace

BENCHMARK(BM_InitialMatch)
    ->ArgsProduct({{0, 1, 2, 3}, matcher_indexes()})
    ->ArgNames({"workload", "matcher"})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_IncrementalRetractAssert)
    ->ArgsProduct({{0, 3}, matcher_indexes()})
    ->ArgNames({"workload", "matcher"})
    // Fixed iteration count: the churn grows matcher-internal state
    // (dedup/refraction memory) monotonically, so open-ended timing
    // would measure an ever-larger structure.
    ->Iterations(50)
    ->Unit(benchmark::kMillisecond);

namespace {

/// A fixed, deterministic amount of scalar work timed on this host. The
/// regression gate divides throughputs by the spin ratio between the
/// current run and the baseline run, so a slower CI machine does not
/// read as a code regression (and a faster one does not mask it).
double calibration_spin_ms() {
  std::uint64_t x = 0x9e3779b97f4a7c15ull, acc = 0;
  const Timer t;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x;
  }
  benchmark::DoNotOptimize(acc);
  return t.elapsed_ms();
}

/// One-shot initial-match timings for the BENCH_R-T4.json trajectory
/// (google-benchmark's own output stays on the console; this is the
/// stable machine-readable record the other benches emit too). Each
/// configuration takes the best of several repetitions: the gate wants
/// the code's speed, not the scheduler's mood.
void write_json_report() {
  parulel::bench::JsonReport json("R-T4");
  json.add_row("calibration", {{"spin_ms", calibration_spin_ms()}});

  constexpr int kReps = 5;
  for (int which = 0; which < 4; ++which) {
    for (std::size_t kind = 0; kind < all_matcher_kinds().size(); ++kind) {
      const Loaded l = load(which);
      double best_ms = 0.0;
      std::size_t cs = 0, resident = 0;
      std::uint64_t insts = 0, activations = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        WorkingMemory wm(l.program.schema);
        for (const auto& f : l.program.initial_facts) {
          wm.assert_fact(f.tmpl, f.slots);
        }
        auto matcher = build_matcher(l, static_cast<int>(kind));
        const Timer t;
        matcher->apply_delta(wm, wm.drain_delta());
        const double match_ms = t.elapsed_ms();
        if (rep == 0 || match_ms < best_ms) best_ms = match_ms;
        cs = matcher->conflict_set().size();
        resident = matcher->stats().state_entries;
        insts = matcher->stats().insts_derived;
        activations = matcher->stats().alpha_activations;
      }
      json.add_row(
          std::string(kNames[which]) + "/" +
              matcher_kind_name(all_matcher_kinds()[kind]),
          {{"initial_match_ms", best_ms},
           {"throughput_inst_per_ms",
            static_cast<double>(insts) / best_ms},
           {"conflict_set", static_cast<double>(cs)},
           {"state_entries", static_cast<double>(resident)},
           {"alpha_activations", static_cast<double>(activations)}});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_json_report();
  return 0;
}
