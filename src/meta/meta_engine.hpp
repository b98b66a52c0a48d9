// Meta-rule evaluation: the redaction fixpoint.
//
// Once per object-level cycle, the PARULEL engine hands the eligible
// conflict set to this evaluator. It reifies the instantiations into a
// private meta working memory and runs rounds until no new redaction
// occurs. Each round reads the round-start meta WM in two passes:
//   1. Enumerated rules (bind, printout, several actions, computed
//      targets) fire *all* their meta instantiations, set-oriented like
//      the object level.
//   2. Existential rules — sole action (redact ?v), ?v on a positive
//      CE's id slot (CompiledRule::target_ce) — are a query, not a
//      firing: redaction is idempotent, so each target still standing
//      is redacted when JoinEngine::exists finds one witness match.
//      Their instantiations are never built.
// The round's redactions then retract the reified facts, which can
// enable (through (not ...)) or disable further meta matches.
//
// The workspace — meta working memory and meta TreatMatcher — is built
// on the first run and kept for the engine's lifetime. Each run clears
// it (WorkingMemory::clear, TreatMatcher::clear) instead of rebuilding
// it, so a cycle pays for its own eligible set and not for growing
// columns, arenas, hash tables and alpha indexes from empty. Meta fact
// ids restart at 1 and meta InstIds at 0 on every run, exactly as a
// fresh workspace numbers them, so every meta match, its enumeration
// order and every printout are those of a fresh workspace. Because the
// workspace is mutable state, run() is not const and one MetaEngine
// serves one engine or site at a time.
//
// Gating: a meta-rule with a positive CE on an inst template that no
// eligible instantiation has is dead for the cycle. When every meta-rule
// is dead, run() returns the eligible set with 0 rounds and reifies
// nothing; otherwise it reifies only the instantiations whose inst
// template a live rule reads in some CE. The meta schema holds only inst
// templates, so the redaction set is that of full reification.
//
// Termination: a redacted instantiation's meta fact is withdrawn and
// never re-asserted within the fixpoint, and meta-level refraction stops
// repeat firings, so the redacted set grows monotonically and the loop
// ends after at most |eligible| productive rounds. Retraction cannot
// create a positive-only match, so a program of positive-only
// existential rules ends after one round.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "lang/program.hpp"
#include "match/conflict_set.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct MetaOutcome {
  std::vector<InstId> redacted;     ///< object-level instantiation ids
  /// eligible minus redacted, ascending: what fires this cycle.
  std::vector<InstId> to_fire;
  std::uint64_t meta_firings = 0;   ///< enumerated meta instantiations fired
  std::uint64_t witnesses = 0;      ///< redactions found by existential query
  std::uint64_t rounds = 0;         ///< 0 when no meta-rule can match

  // Where the run's time went: consecutive laps of one clock from entry
  // to return, so the three sum exactly to redact_ns().
  std::uint64_t reify_ns = 0;  ///< workspace clear + reification
  std::uint64_t match_ns = 0;  ///< meta apply_delta, every round
  std::uint64_t query_ns = 0;  ///< passes 1-2, retraction, to_fire
  std::uint64_t redact_ns() const { return reify_ns + match_ns + query_ns; }
};

class MetaEngine {
 public:
  explicit MetaEngine(const Program& program);
  ~MetaEngine();

  /// Run the redaction fixpoint over `eligible` (ascending InstIds).
  /// Without meta rules, everything eligible fires.
  /// `output`, when non-null, receives meta-rule printout text.
  /// `metrics`, when non-null, accumulates meta.rounds / meta.firings /
  /// meta.witnesses / meta.redactions counters across fixpoints (obs
  /// layer).
  MetaOutcome run(const WorkingMemory& object_wm, const ConflictSet& cs,
                  const std::vector<InstId>& eligible,
                  std::ostream* output = nullptr,
                  obs::MetricsRegistry* metrics = nullptr);

 private:
  struct Workspace;

  const Program& program_;
  std::unique_ptr<Workspace> ws_;  ///< built by the first active run
};

}  // namespace parulel
