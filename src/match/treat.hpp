// TREAT matcher: no beta memories, conflict set maintained seminaively.
//
// Per delta:
//   1. update alpha memories (removals + additions);
//   2. remove conflict-set entries containing removed facts;
//   3. for each added fact matching a negated alpha, remove pre-existing
//      instantiations it now blocks;
//   4. for each added fact (ascending id) and each (rule, position) whose
//      alpha accepts it (ascending alpha id, then position), derive the
//      new instantiations with that position fixed. Each new match is
//      derived ONCE, from the first of these seedings it contains: later
//      seedings skip it inside the join (DeriveWindow in join.hpp). The
//      skipped emissions are exactly the ones the conflict set would
//      have rejected as duplicates, and the kept one comes at the same
//      point of the walk, so instantiation ids are unchanged;
//   5. instantiations whose (exists ...) witness left are re-checked;
//   6. a (not ...) blocker that left, or an (exists ...) witness that
//      arrived, triggers a constrained re-derivation of its rule pinned
//      to the fact's join key (TREAT has no stored join state to
//      localize this). These may re-find matches step 4 derived; the
//      conflict set's dedup and refraction drop them.
#pragma once

#include <memory>
#include <span>

#include "match/join.hpp"
#include "match/matcher.hpp"
#include "match/quant_index.hpp"

namespace parulel {

class TreatMatcher : public Matcher {
 public:
  /// `rules` and `alpha_specs` must outlive the matcher (they live in the
  /// Program). Works for object rules and, with the meta schema's specs,
  /// for meta rules too — the meta engine instantiates one of these.
  /// Existential meta-rules (CompiledRule::target_ce) keep their alpha
  /// memories and join plans but derive no instantiations: the meta
  /// engine queries them one target at a time through join().
  TreatMatcher(std::span<const CompiledRule> rules,
               std::span<const AlphaSpec> alpha_specs,
               std::size_t template_count);

  void apply_delta(const WorkingMemory& wm, const Delta& delta) override;

  /// Return to the just-constructed state — empty alpha memories,
  /// conflict set (refraction memory, key index and quantified-CE keys
  /// included), zeroed stats — keeping the join plans, the
  /// registered alpha indexes and all capacity. The next InstId is 0
  /// again. For a matcher whose working memory was cleared too.
  void clear();

  /// Entries in the quantified-CE index (alive instantiations' keys).
  std::size_t quant_entries() const { return cs_.quant_entries(); }

  ConflictSet& conflict_set() override { return cs_; }
  const JoinEngine& join() const { return join_; }
  const MatchStats& stats() const override { return stats_; }
  const char* name() const override { return "treat"; }

 protected:
  MatchStats& stats_mut() override { return stats_; }

 private:
  /// Step 4 for one added fact `fid` of the delta starting at
  /// `delta_front`; `hit` lists the alphas that accepted it.
  void derive_for_added(const WorkingMemory& wm, FactId delta_front,
                        FactId fid, std::span<const std::uint32_t> hit);
  /// A fact entered a (not ...) alpha: drop the instantiations it blocks.
  void remove_blocked(const WorkingMemory& wm, RuleId rule, int neg_index,
                      FactId fid);
  /// A fact left an (exists ...) alpha: drop instantiations whose CE is
  /// no longer satisfied.
  void remove_disabled(const WorkingMemory& wm, RuleId rule, int neg_index,
                       FactId fid);
  /// A (not ...) blocker left / an (exists ...) witness arrived:
  /// constrained re-derivation pinned to the fact's join key.
  void rematch_unblocked(const WorkingMemory& wm, RuleId rule,
                         std::size_t neg_index, FactId pivot);

  std::span<const CompiledRule> rules_;
  AlphaStore alphas_;
  JoinEngine join_;
  ConflictSet cs_;
  QuantIndex quant_;
  MatchStats stats_;

  // (rule, position) lists per alpha id, positive and negative.
  struct AlphaUse {
    RuleId rule;
    int position;
  };
  std::vector<std::vector<AlphaUse>> positive_uses_;
  std::vector<std::vector<AlphaUse>> negative_uses_;
  std::vector<std::uint32_t> scratch_alphas_;
  // Per-delta flat (fact -> accepting alphas) lists: the alpha tests run
  // once per added fact, then steps 3 and 4 replay the hit lists.
  std::vector<std::uint32_t> added_alphas_;
  std::vector<std::size_t> added_offsets_;
  JoinScratch join_scratch_;
  std::vector<Value> env_scratch_;  ///< steps 3 and 5's rebuilt envs
  // Quantified-CE events queued for steps 5 and 6 (see apply_delta).
  struct QuantEvent {
    RuleId rule;
    int neg;
    FactId fact;
  };
  std::vector<QuantEvent> unblocks_;
  std::vector<QuantEvent> disables_;
};

}  // namespace parulel
