// Test-only reference for the redaction fixpoint, and a by-hand driver
// that checks MetaEngine against it on every cycle of a program.
//
// The reference is the round loop as it stood before existential
// meta-rules were answered by query: one TreatMatcher derives every
// match of every meta-rule, each round fires the whole meta conflict set
// and collects the redactions, and the round's redacted meta facts are
// retracted before the next round. Its redaction set is the
// specification MetaEngine::run must reproduce on every cycle.
//
// The by-hand run also checks workspace reuse: MetaEngine keeps its meta
// working memory and matcher across runs, and a long-lived one must
// answer every cycle exactly as a freshly constructed one does.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "engine/actions.hpp"
#include "engine/engine.hpp"
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
      const Instantiation minst = meta_cs.get(mid);
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

/// What a by-hand run of a program did, cycle by cycle.
struct MetaDrive {
  std::uint64_t redactions = 0;
  std::vector<std::uint64_t> redacted_per_cycle;
  std::vector<FiringRecord> firings;  ///< as ParallelEngine logs them
  std::string output;                 ///< meta and object printout text
};

/// Drive `program` by hand (object-level TREAT, fire every surviving
/// instantiation in ascending id, as ParallelEngine's merge does) for
/// up to `max_cycles`. One MetaEngine lives through every cycle, so its
/// workspace is reused; on every cycle expect its outcome to equal a
/// freshly constructed MetaEngine's (redacted, to_fire, rounds, meta
/// firings, witnesses, printout text) and its redaction set to equal
/// reference_redactions().
inline MetaDrive drive_meta_against_reference(const Program& program,
                                              int max_cycles) {
  MetaDrive drive;
  std::ostringstream out;
  WorkingMemory wm(program.schema);
  TreatMatcher matcher(program.rules, program.alphas, program.schema.size());
  for (const auto& fact : program.initial_facts) {
    wm.assert_fact(fact.tmpl, fact.slots);
  }
  MetaEngine meta(program);
  for (int cycle = 0; cycle < max_cycles; ++cycle) {
    matcher.apply_delta(wm, wm.drain_delta());
    ConflictSet& cs = matcher.conflict_set();
    const std::vector<InstId> eligible = cs.alive_ids();
    if (eligible.empty()) break;
    std::ostringstream meta_text, fresh_text;
    const MetaOutcome outcome = meta.run(wm, cs, eligible, &meta_text);
    const MetaOutcome fresh =
        MetaEngine(program).run(wm, cs, eligible, &fresh_text);
    EXPECT_EQ(outcome.redacted, fresh.redacted) << "cycle " << cycle;
    EXPECT_EQ(outcome.to_fire, fresh.to_fire) << "cycle " << cycle;
    EXPECT_EQ(outcome.rounds, fresh.rounds) << "cycle " << cycle;
    EXPECT_EQ(outcome.meta_firings, fresh.meta_firings) << "cycle " << cycle;
    EXPECT_EQ(outcome.witnesses, fresh.witnesses) << "cycle " << cycle;
    EXPECT_EQ(meta_text.str(), fresh_text.str()) << "cycle " << cycle;
    const std::vector<InstId> expected =
        reference_redactions(program, wm, cs, eligible);
    EXPECT_EQ(outcome.redacted, expected) << "cycle " << cycle;
    if (::testing::Test::HasFailure()) return drive;
    drive.redactions += outcome.redacted.size();
    drive.redacted_per_cycle.push_back(outcome.redacted.size());
    out << meta_text.str();

    std::vector<InstId> to_fire;
    std::set_difference(eligible.begin(), eligible.end(), expected.begin(),
                        expected.end(), std::back_inserter(to_fire));
    EXPECT_EQ(outcome.to_fire, to_fire) << "cycle " << cycle;
    if (to_fire.empty()) break;
    FiringBuffer fired;
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      fire_buffered(program, cs.get(to_fire[i]), wm, fired);
    }
    MergeResult merged;
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      const Instantiation inst = cs.get(to_fire[i]);
      drive.firings.push_back({static_cast<std::uint64_t>(cycle), inst.rule,
                               {inst.facts.begin(), inst.facts.end()}});
      cs.mark_fired(to_fire[i]);
      apply_firing(fired, i, wm, &out, merged);
    }
    if (merged.halt) break;
  }
  drive.output = out.str();
  return drive;
}

/// drive_meta_against_reference(), returning the total number of
/// redactions seen so callers can check the case is not vacuous.
inline std::uint64_t expect_meta_matches_reference(const Program& program,
                                                   int max_cycles) {
  return drive_meta_against_reference(program, max_cycles).redactions;
}

}  // namespace parulel::testing_meta
