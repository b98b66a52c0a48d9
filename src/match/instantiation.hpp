// Instantiations: one satisfied rule match.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lang/program.hpp"
#include "wm/fact.hpp"

namespace parulel {

/// Id of an instantiation within a ConflictSet. Monotone across a run;
/// ids are the deterministic firing / tie-break order.
using InstId = std::uint64_t;
constexpr InstId kInvalidInst = static_cast<InstId>(-1);

/// A rule paired with one fact per positive CE (in join order), as the
/// conflict set hands it out: a view into the set's own storage. The
/// binding environment is not stored — it is cheap to rebuild from the
/// facts via the patterns' `defines` lists, and omitting it keeps large
/// conflict sets compact.
///
/// The view stays valid until the conflict set next adds an
/// instantiation or drops this one's storage (ConflictSet::get); copy
/// the facts out to keep them longer.
struct Instantiation {
  RuleId rule = 0;
  InstId id = kInvalidInst;
  std::span<const FactId> facts;
};

/// Structural key hash (rule + facts). The id does not participate, so a
/// regenerated match of the same facts dedupes/refracts correctly. Fact
/// ids are small consecutive integers, so each is mixed before it is
/// combined: combined raw, neighbouring id tuples collide.
inline std::size_t inst_key_hash(RuleId rule, std::span<const FactId> facts) {
  std::size_t h = std::hash<std::uint32_t>{}(rule);
  for (FactId f : facts) h = hash_combine(h, detail::mix64(f));
  return h;
}

/// Rebuild the LHS binding environment of an instantiation from its
/// matched facts. `fact_of` maps FactId -> a fact view (usually
/// WorkingMemory::view, which serves tombstoned facts too). `env` is
/// resized to rule.num_vars (RHS bind slots default-initialized).
template <typename FactLookup>
void rebuild_env(const CompiledRule& rule, std::span<const FactId> facts,
                 const FactLookup& fact_of, std::vector<Value>& env) {
  env.assign(static_cast<std::size_t>(rule.num_vars), Value{});
  for (std::size_t p = 0; p < rule.positives.size(); ++p) {
    const auto fact = fact_of(facts[p]);
    for (const auto& def : rule.positives[p].defines) {
      env[static_cast<std::size_t>(def.var)] =
          fact.slot(static_cast<std::size_t>(def.slot));
    }
  }
}

}  // namespace parulel
