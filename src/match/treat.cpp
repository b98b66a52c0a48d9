#include "match/treat.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace parulel {

TreatMatcher::TreatMatcher(std::span<const CompiledRule> rules,
                           std::span<const AlphaSpec> alpha_specs,
                           std::size_t template_count)
    : rules_(rules),
      alphas_(alpha_specs, template_count),
      join_(rules, alphas_),
      quant_(join_.plans()),
      positive_uses_(alpha_specs.size()),
      negative_uses_(alpha_specs.size()) {
  for (RuleId r = 0; r < rules_.size(); ++r) {
    const CompiledRule& rule = rules_[r];
    if (rule.existential()) continue;
    for (std::size_t p = 0; p < rule.positives.size(); ++p) {
      positive_uses_[rule.positives[p].alpha].push_back(
          {r, static_cast<int>(p)});
    }
    for (std::size_t n = 0; n < rule.negatives.size(); ++n) {
      negative_uses_[rule.negatives[n].alpha].push_back(
          {r, static_cast<int>(n)});
    }
  }
}

void TreatMatcher::apply_delta(const WorkingMemory& wm, const Delta& delta) {
  check_fact_ids(delta);
  ++stats_.deltas_processed;

  // Work queued against quantified CEs:
  //   unblocks   — (not ...) blocker left / (exists ...) witness arrived:
  //                constrained re-derivation may ADD instantiations;
  //   disables   — (exists ...) witness left: instantiations may DIE.
  unblocks_.clear();
  disables_.clear();

  // 1. Removals: update alphas, drop invalidated instantiations.
  for (FactId fid : delta.removed) {
    const FactView fact = wm.view(fid);
    alphas_.matching_alphas(fact, scratch_alphas_);
    stats_.alpha_activations += scratch_alphas_.size();
    for (std::uint32_t a : scratch_alphas_) {
      for (const AlphaUse& use : negative_uses_[a]) {
        const bool exists =
            rules_[use.rule].negatives[static_cast<std::size_t>(use.position)]
                .exists;
        if (exists) {
          disables_.push_back({use.rule, use.position, fid});
        } else {
          unblocks_.push_back({use.rule, use.position, fid});
        }
      }
      alphas_.memory(a).erase(fact);
    }
    stats_.insts_invalidated += cs_.remove_by_fact(fid);
  }

  // 2. Additions into alpha memories first, so derivations see the
  // complete post-delta state for joins and quantifier checks. The
  // alpha tests run once per fact; the hit lists feed steps 3 and 4.
  added_alphas_.clear();
  added_offsets_.clear();
  for (FactId fid : delta.added) {
    const FactView fact = wm.view(fid);
    alphas_.matching_alphas(fact, scratch_alphas_);
    stats_.alpha_activations += scratch_alphas_.size();
    added_offsets_.push_back(added_alphas_.size());
    for (std::uint32_t a : scratch_alphas_) {
      alphas_.memory(a).insert(fact);
      added_alphas_.push_back(a);
    }
  }
  added_offsets_.push_back(added_alphas_.size());

  // 3. New facts in quantified alphas: (not ...) invalidates existing
  // matches; (exists ...) may enable new ones.
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    const FactId fid = delta.added[i];
    for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1]; ++j) {
      for (const AlphaUse& use : negative_uses_[added_alphas_[j]]) {
        const bool exists =
            rules_[use.rule].negatives[static_cast<std::size_t>(use.position)]
                .exists;
        if (exists) {
          unblocks_.push_back({use.rule, use.position, fid});
        } else {
          remove_blocked(wm, use.rule, use.position, fid);
        }
      }
    }
  }

  // 4. Seminaive derivation from each added fact, once per new match:
  // the window skips joins an earlier seeding of this delta already
  // made (ids ascend, so earlier seeds are the ids below this one).
  assert(std::adjacent_find(delta.added.begin(), delta.added.end(),
                            std::greater_equal<>()) == delta.added.end());
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    derive_for_added(wm, delta.added.front(), delta.added[i],
                     std::span<const std::uint32_t>(
                         added_alphas_.data() + added_offsets_[i],
                         added_offsets_[i + 1] - added_offsets_[i]));
  }

  // 5. Departed (exists ...) witnesses: drop instantiations whose CE is
  // no longer satisfied in the post-delta state.
  for (const auto& d : disables_) {
    remove_disabled(wm, d.rule, d.neg, d.fact);
  }

  // 6. Constrained re-derivations last (they are dedup-protected).
  for (const auto& u : unblocks_) {
    rematch_unblocked(wm, u.rule, static_cast<std::size_t>(u.neg), u.fact);
  }

  stats_.state_entries = cs_.size();
}

void TreatMatcher::clear() {
  alphas_.clear();
  cs_.clear();
  stats_ = MatchStats{};
  forget_fact_ids();
}

void TreatMatcher::derive_for_added(const WorkingMemory& wm,
                                    FactId delta_front, FactId fid,
                                    std::span<const std::uint32_t> hit) {
  for (std::uint32_t a : hit) {
    for (const AlphaUse& use : positive_uses_[a]) {
      join_.derive(wm, use.rule, {delta_front, fid, use.position},
                   join_scratch_,
                   [&](std::span<const FactId> facts,
                       std::span<const Value> env) {
                     if (cs_.add(use.rule, facts,
                                 quant_.keys(use.rule, env)) ==
                         kInvalidInst) {
                       ++stats_.derive_rejects;
                     } else {
                       ++stats_.insts_derived;
                     }
                   });
    }
  }
}

void TreatMatcher::remove_blocked(const WorkingMemory& wm, RuleId rule_id,
                                  int neg_index, FactId fid) {
  const FactView fact = wm.view(fid);
  const CompiledRule& rule = rules_[rule_id];
  const PositionPlan& neg =
      join_.plan(rule_id).negatives[static_cast<std::size_t>(neg_index)];
  std::vector<Value>& env = env_scratch_;
  quant_.for_candidates(
      cs_, rule_id, static_cast<std::size_t>(neg_index), fact,
      [&](InstId id) {
        rebuild_env(
            rule, cs_.get(id).facts,
            [&](FactId f) { return wm.view(f); }, env);
        if (JoinEngine::fact_blocks(fact, neg, env)) {
          cs_.remove(id);
          ++stats_.insts_invalidated;
        }
      });
}

void TreatMatcher::remove_disabled(const WorkingMemory& wm, RuleId rule_id,
                                   int neg_index, FactId fid) {
  const FactView fact = wm.view(fid);
  const CompiledRule& rule = rules_[rule_id];
  const PositionPlan& neg =
      join_.plan(rule_id).negatives[static_cast<std::size_t>(neg_index)];
  std::vector<Value>& env = env_scratch_;
  quant_.for_candidates(
      cs_, rule_id, static_cast<std::size_t>(neg_index), fact,
      [&](InstId id) {
        rebuild_env(
            rule, cs_.get(id).facts,
            [&](FactId f) { return wm.view(f); }, env);
        // Only instantiations the departed fact witnessed can be
        // affected; they die when no other witness remains.
        if (JoinEngine::fact_blocks(fact, neg, env) &&
            !join_.quantified_satisfied(wm, neg, env)) {
          cs_.remove(id);
          ++stats_.insts_invalidated;
        }
      });
}

void TreatMatcher::rematch_unblocked(const WorkingMemory& wm, RuleId rule,
                                     std::size_t neg_index, FactId pivot) {
  ++stats_.full_rematches;
  join_.enumerate_unblocked(wm, rule, neg_index, wm.view(pivot),
                            join_scratch_,
                            [&](std::span<const FactId> facts,
                                std::span<const Value> env) {
                              if (cs_.add(rule, facts,
                                          quant_.keys(rule, env)) ==
                                  kInvalidInst) {
                                ++stats_.derive_rejects;
                              } else {
                                ++stats_.insts_derived;
                              }
                            });
}

}  // namespace parulel
