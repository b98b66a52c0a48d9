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
// Termination: a redacted instantiation's meta fact is withdrawn and
// never re-asserted within the fixpoint, and meta-level refraction stops
// repeat firings, so the redacted set grows monotonically and the loop
// ends after at most |eligible| productive rounds. Retraction cannot
// create a positive-only match, so a program of positive-only
// existential rules ends after one round.
#pragma once

#include <cstdint>
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
  std::uint64_t meta_firings = 0;   ///< enumerated meta instantiations fired
  std::uint64_t witnesses = 0;      ///< redactions found by existential query
  std::uint64_t rounds = 0;
};

class MetaEngine {
 public:
  explicit MetaEngine(const Program& program) : program_(program) {}

  /// True when the program has meta rules at all.
  bool active() const { return !program_.meta_rules.empty(); }

  /// Run the redaction fixpoint over `eligible` (ascending InstIds).
  /// `output`, when non-null, receives meta-rule printout text.
  /// `metrics`, when non-null, accumulates meta.rounds / meta.firings /
  /// meta.witnesses / meta.redactions counters across fixpoints (obs
  /// layer).
  MetaOutcome run(const WorkingMemory& object_wm, const ConflictSet& cs,
                  const std::vector<InstId>& eligible,
                  std::ostream* output = nullptr,
                  obs::MetricsRegistry* metrics = nullptr) const;

 private:
  const Program& program_;
};

}  // namespace parulel
