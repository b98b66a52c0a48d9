// R-T3 — Meta-rule redaction overhead and effect.
//
// For each meta-rule-bearing workload: peak conflict-set size, total
// redactions, redacted fraction of eligible instantiations, and the
// share of wall time spent in the redaction fixpoint.
#include "bench_util.hpp"

using namespace parulel;
using namespace parulel::bench;

int main() {
  header("R-T3", "meta-rule redaction: effect and overhead");

  const workloads::Workload all[] = {
      workloads::make_sieve(400, true),
      // The meta-stress waltz variant: witnesses built BY rules with the
      // defer-prune meta-rule doing the stratification (small scale —
      // its meta conflict set is quadratic per cycle 1, by design).
      workloads::make_waltz(4, /*prebuilt_witnesses=*/false),
      workloads::make_routing(48, 140, 11, /*best_only_meta=*/true),
      workloads::make_manners(32, 6, 11),
  };

  JsonReport json("R-T3");
  std::printf("%-12s %9s %10s %10s %10s %11s %21s\n", "workload", "peak-cs",
              "firings", "redacted", "red-frac", "redact-time",
              "reify/match/query");
  for (const auto& w : all) {
    const Program p = parse_program(w.source);
    const RunStats s = run_parallel(p, 4);
    const double eligible =
        static_cast<double>(s.total_firings + s.total_redactions);
    const double frac =
        eligible == 0 ? 0 : static_cast<double>(s.total_redactions) /
                                eligible;
    const double redact_share =
        s.wall_ns == 0 ? 0 : 100.0 * static_cast<double>(s.redact_ns) /
                                 static_cast<double>(s.wall_ns);
    // The redact phase's own split (laps of one clock: they sum to it).
    auto of_redact = [&](std::uint64_t ns) {
      return s.redact_ns == 0 ? 0
                              : 100.0 * static_cast<double>(ns) /
                                    static_cast<double>(s.redact_ns);
    };
    std::printf("%-12s %9llu %10llu %10llu %9.1f%% %10.1f%%    %4.0f%% %4.0f%% %4.0f%%\n",
                w.name.c_str(),
                static_cast<unsigned long long>(s.peak_conflict_set),
                static_cast<unsigned long long>(s.total_firings),
                static_cast<unsigned long long>(s.total_redactions),
                100.0 * frac, redact_share, of_redact(s.meta_reify_ns),
                of_redact(s.meta_match_ns), of_redact(s.meta_query_ns));
    json.add_run(w.name, s,
                 {{"redacted_frac", frac}, {"redact_share_pct", redact_share}});
  }
  std::printf("\nNote: 'redacted' counts per-cycle withholdings; a redacted\n"
              "instantiation may be counted again in a later cycle (it stays\n"
              "eligible until fired or invalidated).\n"
              "Expected shape: manners redacts nearly everything each cycle\n"
              "(one survivor); sieve+meta redacts the redundant strikes.\n"
              "Every meta-rule here is redact-only, so each is answered as\n"
              "an existential query (one witness per redaction, see\n"
              "meta_witnesses) instead of firing every pairwise match;\n"
              "redaction time tracks the targets and their witness search,\n"
              "not the number of meta matches.\n");
  return 0;
}
