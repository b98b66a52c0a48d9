// R-T6 — Compiled bytecode VM vs the interpreted TREAT matcher.
//
// Single-thread match throughput on the real workloads: fold the
// initial fact set into the conflict set under the interpreter and
// under the compiled discrimination-net + join bytecode, then churn a
// steady-state retract/assert loop over the same facts. Both matchers
// produce bit-identical conflict sets (the differential sweep holds
// them to it), so every speedup row compares identical work.
//
// Both engines route added facts through the *same* alpha-memory
// upkeep code (discrimination + insertion), and each reports that
// shared slice via MatchStats::alpha_upkeep_ns. The bench therefore
// shows two speedups per workload: end-to-end fold time, and match
// work proper (fold minus shared upkeep) — the latter is the honest
// measure of the bytecode VM against the interpreted join, since no
// matcher choice can change the shared upkeep floor.
//
// BENCH_R-T6.json records, per workload: best-of-N fold and match
// times, throughput, both speedups, and the compiler's own costs
// (codegen time, image size) so the trade stays visible as the
// trajectory accumulates.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compile/vm.hpp"
#include "parulel.hpp"
#include "support/timer.hpp"

namespace {

using namespace parulel;

struct Case {
  const char* name;
  workloads::Workload workload;
};

std::vector<Case> cases() {
  std::vector<Case> cs;
  cs.push_back({"waltz", workloads::make_waltz(8)});
  cs.push_back({"tc", workloads::make_tc(72, 180, 7)});
  cs.push_back({"manners", workloads::make_manners(24, 4, 5)});
  cs.push_back({"synth", workloads::make_synth(3, 220, 40, 17)});
  return cs;
}

struct Measurement {
  double initial_ms = 0.0;   ///< best-of-N initial fold, end to end
  double match_ms = 0.0;     ///< fold minus shared alpha upkeep (same rep)
  double churn_ms = 0.0;     ///< best-of-N steady-state churn pass
  std::uint64_t insts = 0;   ///< insts_derived after the initial fold
  std::size_t conflict = 0;
};

/// Time `kind` on one workload: the initial fold, then a fixed
/// retract/assert churn over every tenth initial fact.
Measurement measure(const Program& program, MatcherKind kind) {
  constexpr int kReps = 5;
  Measurement m;
  for (int rep = 0; rep < kReps; ++rep) {
    WorkingMemory wm(program.schema);
    for (const auto& f : program.initial_facts) {
      wm.assert_fact(f.tmpl, f.slots);
    }
    auto matcher = make_matcher(kind, program);

    const Timer t0;
    matcher->apply_delta(wm, wm.drain_delta());
    const double initial_ms = t0.elapsed_ms();
    const double match_ms =
        initial_ms -
        static_cast<double>(matcher->stats().alpha_upkeep_ns) / 1e6;

    std::vector<GroundFact> victims;
    for (std::size_t i = 0; i < program.initial_facts.size(); i += 10) {
      victims.push_back(program.initial_facts[i]);
    }
    const Timer t1;
    for (int round = 0; round < 10; ++round) {
      for (const auto& v : victims) {
        if (auto id = wm.find(v.tmpl, v.slots)) wm.retract(*id);
      }
      matcher->apply_delta(wm, wm.drain_delta());
      for (const auto& v : victims) {
        wm.assert_fact(v.tmpl, v.slots);
      }
      matcher->apply_delta(wm, wm.drain_delta());
    }
    const double churn_ms = t1.elapsed_ms();

    if (rep == 0 || initial_ms < m.initial_ms) {
      m.initial_ms = initial_ms;
      m.match_ms = match_ms;
    }
    if (rep == 0 || churn_ms < m.churn_ms) m.churn_ms = churn_ms;
    m.insts = matcher->stats().insts_derived;
    m.conflict = matcher->conflict_set().size();
  }
  return m;
}

}  // namespace

int main() {
  using parulel::bench::JsonReport;
  parulel::bench::header("R-T6", "Compiled VM vs interpreted TREAT "
                                 "(single-thread match)");
  JsonReport json("R-T6");

  std::printf("%-8s %9s %9s %7s %9s %9s %7s %9s %9s %7s %9s\n", "workload",
              "fold-tr", "fold-co", "x", "match-tr", "match-co", "x",
              "churn-tr", "churn-co", "x", "conflicts");

  for (const Case& c : cases()) {
    const Program p = parse_program(c.workload.source);
    const Measurement treat = measure(p, MatcherKind::Treat);
    const Measurement compiled = measure(p, MatcherKind::Compiled);
    if (treat.conflict != compiled.conflict || treat.insts != compiled.insts) {
      std::fprintf(stderr,
                   "error: %s conflict sets diverged (treat %zu/%llu vs "
                   "compiled %zu/%llu) — the speedup rows are meaningless\n",
                   c.name, treat.conflict,
                   static_cast<unsigned long long>(treat.insts),
                   compiled.conflict,
                   static_cast<unsigned long long>(compiled.insts));
      return 1;
    }

    // The compiler's own price, measured on a fresh matcher.
    CompiledMatcher vm(p.rules, p.alphas, p.schema.size());
    const CompileStats& cs = *vm.compile_stats();

    const double initial_speedup = treat.initial_ms / compiled.initial_ms;
    const double match_speedup = treat.match_ms / compiled.match_ms;
    const double churn_speedup = treat.churn_ms / compiled.churn_ms;
    std::printf(
        "%-8s %9.3f %9.3f %6.2fx %9.3f %9.3f %6.2fx %9.3f %9.3f %6.2fx %9zu\n",
        c.name, treat.initial_ms, compiled.initial_ms, initial_speedup,
        treat.match_ms, compiled.match_ms, match_speedup, treat.churn_ms,
        compiled.churn_ms, churn_speedup, compiled.conflict);

    json.add_row(
        std::string(c.name) + "/treat",
        {{"initial_match_ms", treat.initial_ms},
         {"match_work_ms", treat.match_ms},
         {"churn_ms", treat.churn_ms},
         {"throughput_inst_per_ms",
          static_cast<double>(treat.insts) / treat.initial_ms},
         {"match_throughput_inst_per_ms",
          static_cast<double>(treat.insts) / treat.match_ms},
         {"conflict_set", static_cast<double>(treat.conflict)}});
    json.add_row(
        std::string(c.name) + "/compiled",
        {{"initial_match_ms", compiled.initial_ms},
         {"match_work_ms", compiled.match_ms},
         {"churn_ms", compiled.churn_ms},
         {"throughput_inst_per_ms",
          static_cast<double>(compiled.insts) / compiled.initial_ms},
         {"match_throughput_inst_per_ms",
          static_cast<double>(compiled.insts) / compiled.match_ms},
         {"conflict_set", static_cast<double>(compiled.conflict)},
         {"speedup_vs_treat", initial_speedup},
         {"match_speedup_vs_treat", match_speedup},
         {"churn_speedup_vs_treat", churn_speedup},
         {"codegen_ms",
          static_cast<double>(cs.codegen_ns) / 1e6},
         {"code_bytes", static_cast<double>(cs.code_bytes)},
         {"instructions", static_cast<double>(cs.instructions)},
         {"net_nodes", static_cast<double>(cs.net_nodes)},
         {"net_shared", static_cast<double>(cs.net_shared)}});
  }

  std::printf(
      "\nExpected shape: the VM saves dispatch, but it derives a match\n"
      "once per seeding where TREAT derives it once per delta, so it\n"
      "trails TREAT on self-joins (synth, waltz) and is near par\n"
      "elsewhere. Both engines share the alpha-upkeep floor. Codegen\n"
      "stays in the microsecond range, far below one initial fold.\n");
  return 0;
}
