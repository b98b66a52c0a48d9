// Reification: object-level instantiations as meta-level facts.
//
// PARULEL's programmable conflict resolution works by exposing the cycle's
// conflict set to meta-rules as ordinary facts. For an object rule
//
//   (defrule assign ... binds ?g ?s ... => ...)
//
// the analyzer synthesized a meta template
//
//   (deftemplate inst-assign (slot id) (slot g) (slot s))
//
// and this module asserts one `inst-assign` fact per eligible
// instantiation, with `id` = the instantiation's conflict-set id and each
// variable slot = its bound value.
#pragma once

#include <span>
#include <vector>

#include "lang/program.hpp"
#include "match/conflict_set.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

/// Assert one meta fact per instantiation id in `eligible` (ascending
/// order for determinism). Returns, aligned with `eligible`, the meta
/// FactId of each reified instantiation (so redactions can retract them).
/// A non-empty `reify_tmpls` (by meta TemplateId) restricts reification
/// to instantiations whose inst template is marked; the others get
/// kInvalidFact.
std::vector<FactId> reify_conflict_set(const Program& program,
                                       const WorkingMemory& object_wm,
                                       const ConflictSet& cs,
                                       const std::vector<InstId>& eligible,
                                       WorkingMemory& meta_wm,
                                       std::span<const char> reify_tmpls = {});

}  // namespace parulel
