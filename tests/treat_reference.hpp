// Test-only reference for the order in which TREAT hands out InstIds.
//
// InstIds are the deterministic firing and tie-break order, so every
// TREAT-family matcher must number a delta's new matches alike. TREAT
// derives each new match once, from the first seeding of the delta that
// holds it (DeriveWindow in match/join.hpp). This model derives every
// match from EVERY seeding, the slow way, and lets a ConflictSet drop
// the repeats: the ids that survive are the ones TREAT must produce.
//
// The model covers a fresh matcher's single delta (for example every
// alive fact of a working memory, ascending). Then each alpha memory
// holds exactly the delta's facts it accepts, in ascending id, so both
// an index group and a full scan meet candidates in ascending id:
//   - walk the added facts in ascending id;
//   - for each, its accepting alphas in ascending alpha id, then each
//     (rule, position) whose pattern reads that alpha, in rule and then
//     position order;
//   - enumerate every full match with the fact at that position. Bind
//     positions in the order of that seeding's DerivePlan, trying the
//     alpha's facts in ascending id at each step. Guards and quantified
//     CEs are checked on the full match, by brute force.
// It never calls JoinEngine::derive, which is what it checks.
#pragma once

#include <cstddef>
#include <functional>
#include <ostream>
#include <span>
#include <vector>

#include "lang/program.hpp"
#include "match/conflict_set.hpp"
#include "match/join.hpp"
#include "wm/working_memory.hpp"

namespace parulel::testing_treat {

/// Does `fact` pass `pat`'s alpha tests and its join equalities under
/// the bound variables? Binds the variables it is first to reach.
inline bool bind_pattern(const CompiledPattern& pat, const FactView& fact,
                         std::vector<Value>& env, std::vector<bool>& bound) {
  for (const auto& ct : pat.const_tests) {
    if (fact.slot(static_cast<std::size_t>(ct.slot)) != ct.value) {
      return false;
    }
  }
  for (const auto& ie : pat.intra_eqs) {
    if (fact.slot(static_cast<std::size_t>(ie.slot_a)) !=
        fact.slot(static_cast<std::size_t>(ie.slot_b))) {
      return false;
    }
  }
  auto ref = [&](int slot, VarId var) {
    const Value v = fact.slot(static_cast<std::size_t>(slot));
    const auto i = static_cast<std::size_t>(var);
    if (bound[i]) return env[i] == v;
    env[i] = v;
    bound[i] = true;
    return true;
  };
  for (const auto& def : pat.defines) {
    if (!ref(def.slot, def.var)) return false;
  }
  for (const auto& eq : pat.join_eqs) {
    if (!ref(eq.slot, eq.var)) return false;
  }
  return true;
}

/// What the reference derived: the conflict set a fresh TREAT matcher
/// must build, and how many matches it met again from a later seeding.
struct TreatReference {
  ConflictSet cs;
  std::size_t repeats = 0;
};

/// The reference for a fresh matcher's delta that adds `added`
/// (ascending ids, all alive in `wm`, nothing removed).
inline TreatReference treat_reference(const Program& program,
                                      const WorkingMemory& wm,
                                      std::span<const FactId> added) {
  // Only the plans' step order is read; the store they index is idle.
  AlphaStore plan_alphas(program.alphas, program.schema.size());
  const std::vector<RulePlan> plans =
      build_join_plans(program.rules, plan_alphas);

  auto accepts = [&](std::uint32_t alpha, FactId fid) {
    const AlphaSpec& spec = program.alphas[alpha];
    const FactView fact = wm.view(fid);
    return fact.tmpl() == spec.tmpl && spec.accepts(fact);
  };
  std::vector<std::vector<FactId>> members(program.alphas.size());
  for (std::uint32_t a = 0; a < program.alphas.size(); ++a) {
    for (FactId fid : added) {
      if (accepts(a, fid)) members[a].push_back(fid);
    }
  }

  TreatReference ref;
  for (FactId seed : added) {
    for (std::uint32_t a = 0; a < program.alphas.size(); ++a) {
      if (!accepts(a, seed)) continue;
      for (RuleId r = 0; r < program.rules.size(); ++r) {
        const CompiledRule& rule = program.rules[r];
        if (rule.existential()) continue;
        for (std::size_t p = 0; p < rule.positives.size(); ++p) {
          if (rule.positives[p].alpha != a) continue;
          const std::vector<DeriveStep>& steps = plans[r].derive[p].steps;
          const auto nvars = static_cast<std::size_t>(rule.num_vars);
          std::vector<Value> env(nvars);
          std::vector<bool> bound(nvars, false);
          std::vector<FactId> facts(rule.positives.size(), kInvalidFact);

          std::function<void(std::size_t)> step = [&](std::size_t s) {
            if (s == steps.size()) {
              for (const auto& guards : rule.guards) {
                for (const auto& guard : guards) {
                  if (!CompiledExpr::truthy(guard.eval(env))) return;
                }
              }
              for (const CompiledPattern& neg : rule.negatives) {
                bool found = false;
                for (FactId id : wm.extent(neg.tmpl)) {
                  std::vector<bool> neg_bound = bound;
                  std::vector<Value> neg_env = env;
                  if (bind_pattern(neg, wm.view(id), neg_env, neg_bound)) {
                    found = true;
                    break;
                  }
                }
                // (not ...) requires none; (exists ...) at least one.
                if (found != neg.exists) return;
              }
              if (ref.cs.add(r, facts) == kInvalidInst) ++ref.repeats;
              return;
            }
            const DeriveStep& st = steps[s];
            const std::span<const FactId> candidates =
                s == 0 ? std::span<const FactId>(&seed, 1)
                       : std::span<const FactId>(members[st.alpha]);
            for (FactId cand : candidates) {
              const std::vector<bool> saved_bound = bound;
              const std::vector<Value> saved_env = env;
              if (bind_pattern(rule.positives[static_cast<std::size_t>(
                                   st.pattern)],
                               wm.view(cand), env, bound)) {
                facts[static_cast<std::size_t>(st.pattern)] = cand;
                step(s + 1);
              }
              bound = saved_bound;
              env = saved_env;
            }
          };
          step(0);
        }
      }
    }
  }
  return ref;
}

/// One alive instantiation, copied out of its conflict set.
struct Inst {
  InstId id;
  RuleId rule;
  std::vector<FactId> facts;
  bool operator==(const Inst&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const Inst& inst) {
  os << "#" << inst.id << " rule " << inst.rule << " facts";
  for (FactId f : inst.facts) os << " " << f;
  return os;
}

/// The alive instantiations of `cs`, in ascending id.
inline std::vector<Inst> snapshot(const ConflictSet& cs) {
  std::vector<Inst> out;
  cs.for_each([&](const Instantiation& inst) {
    out.push_back({inst.id, inst.rule, {inst.facts.begin(), inst.facts.end()}});
  });
  return out;
}

}  // namespace parulel::testing_treat
