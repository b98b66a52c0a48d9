// Test-only reference for the redaction fixpoint, and a by-hand driver
// that checks MetaEngine against it on every cycle of a program.
//
// The reference is the round loop as it stood before existential
// meta-rules were answered by query: one TreatMatcher derives every
// match of every meta-rule, each round fires the whole meta conflict set
// and collects the redactions, and the round's redacted meta facts are
// retracted before the next round. Its redaction set is the
// specification MetaEngine::run must reproduce on every cycle.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "engine/actions.hpp"
#include "match/treat.hpp"
#include "meta/meta_engine.hpp"
#include "meta/reify.hpp"

namespace parulel::testing_meta {

/// Redactions (ascending) of the enumerate-every-match fixpoint.
inline std::vector<InstId> reference_redactions(
    const Program& program, const WorkingMemory& object_wm,
    const ConflictSet& cs, const std::vector<InstId>& eligible) {
  std::vector<InstId> out;
  if (program.meta_rules.empty() || eligible.empty()) return out;
  WorkingMemory meta_wm(program.meta_schema);
  const std::vector<FactId> meta_facts =
      reify_conflict_set(program, object_wm, cs, eligible, meta_wm);
  // Unmarked copies: the matcher derives every match of every rule.
  std::vector<CompiledRule> rules = program.meta_rules;
  for (CompiledRule& rule : rules) rule.target_ce = -1;
  TreatMatcher matcher(rules, program.meta_alphas,
                       program.meta_schema.size());
  std::set<InstId> redacted;
  std::vector<Value> env;
  for (;;) {
    matcher.apply_delta(meta_wm, meta_wm.drain_delta());
    ConflictSet& meta_cs = matcher.conflict_set();
    const std::vector<InstId> to_fire = meta_cs.alive_ids();
    if (to_fire.empty()) break;
    std::vector<InstId> newly;
    for (InstId mid : to_fire) {
      const Instantiation& minst = meta_cs.get(mid);
      const CompiledRule& mrule = program.meta_rules[minst.rule];
      rebuild_env(
          mrule, minst.facts, [&](FactId f) { return meta_wm.view(f); }, env);
      for (const auto& action : mrule.actions) {
        if (action.kind == CompiledAction::Kind::Bind) {
          if (static_cast<std::size_t>(action.bind_var) >= env.size()) {
            env.resize(static_cast<std::size_t>(action.bind_var) + 1);
          }
          env[static_cast<std::size_t>(action.bind_var)] =
              action.args[0].eval(env);
        } else if (action.kind == CompiledAction::Kind::Redact) {
          const auto target =
              static_cast<InstId>(action.args[0].eval(env).as_int());
          if (std::binary_search(eligible.begin(), eligible.end(), target) &&
              redacted.insert(target).second) {
            newly.push_back(target);
          }
        }
      }
      meta_cs.mark_fired(mid);
    }
    for (InstId target : newly) {
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(eligible.begin(), eligible.end(), target) -
          eligible.begin());
      meta_wm.retract(meta_facts[pos]);
    }
  }
  out.assign(redacted.begin(), redacted.end());
  return out;
}

/// Drive `program` by hand (object-level TREAT, fire every surviving
/// instantiation in ascending id, as ParallelEngine's merge does) for
/// up to `max_cycles`, and on every cycle expect MetaEngine::run's
/// redaction set to equal reference_redactions(). Returns the total
/// number of redactions seen, so callers can check the case is not
/// vacuous.
inline std::uint64_t expect_meta_matches_reference(const Program& program,
                                                   int max_cycles) {
  WorkingMemory wm(program.schema);
  TreatMatcher matcher(program.rules, program.alphas, program.schema.size());
  for (const auto& fact : program.initial_facts) {
    wm.assert_fact(fact.tmpl, fact.slots);
  }
  const MetaEngine meta(program);
  std::uint64_t redactions = 0;
  for (int cycle = 0; cycle < max_cycles; ++cycle) {
    matcher.apply_delta(wm, wm.drain_delta());
    ConflictSet& cs = matcher.conflict_set();
    const std::vector<InstId> eligible = cs.alive_ids();
    if (eligible.empty()) break;
    const MetaOutcome outcome = meta.run(wm, cs, eligible);
    const std::vector<InstId> expected =
        reference_redactions(program, wm, cs, eligible);
    EXPECT_EQ(outcome.redacted, expected) << "cycle " << cycle;
    if (outcome.redacted != expected) return redactions;
    redactions += outcome.redacted.size();

    std::vector<InstId> to_fire;
    std::set_difference(eligible.begin(), eligible.end(),
                        outcome.redacted.begin(), outcome.redacted.end(),
                        std::back_inserter(to_fire));
    if (to_fire.empty()) break;
    std::vector<PendingOps> pending(to_fire.size());
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      fire_buffered(program, cs.get(to_fire[i]), wm, pending[i]);
    }
    MergeResult merged;
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      cs.mark_fired(to_fire[i]);
      apply_pending(pending[i], wm, nullptr, merged);
    }
    if (merged.halt) break;
  }
  return redactions;
}

}  // namespace parulel::testing_meta
