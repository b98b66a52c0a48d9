// Rule- and data-parallel TREAT matcher.
//
// The sequential TREAT steps decompose cleanly:
//   - alpha updates and conflict-set invalidation are cheap and stay on
//     the driving thread;
//   - the expensive step — seminaive derivation of new instantiations —
//     fans out as (rule, delta-chunk) tasks over the thread pool. Each
//     task only *reads* (working memory tombstone storage and the frozen
//     alpha memories) and writes into its own buffer, so there is no
//     shared mutable state during the parallel phase (CP.3);
//   - buffers merge into the conflict set on the driving thread in task
//     order, which makes instantiation ids — and therefore everything
//     downstream — deterministic for a given delta sequence.
#pragma once

#include <memory>
#include <span>

#include "match/join.hpp"
#include "match/matcher.hpp"
#include "match/quant_index.hpp"
#include "runtime/thread_pool.hpp"

namespace parulel {

class ParallelTreatMatcher : public Matcher {
 public:
  ParallelTreatMatcher(std::span<const CompiledRule> rules,
                       std::span<const AlphaSpec> alpha_specs,
                       std::size_t template_count, ThreadPool& pool);

  void apply_delta(const WorkingMemory& wm, const Delta& delta) override;
  ConflictSet& conflict_set() override { return cs_; }
  const MatchStats& stats() const override { return stats_; }
  const char* name() const override { return "parallel-treat"; }

 protected:
  MatchStats& stats_mut() override { return stats_; }

 private:
  struct AlphaUse {
    RuleId rule;
    int position;
  };

  /// Fold task buffers into the conflict set in task order (dedup and
  /// refraction in cs_.add), so ids are independent of thread timing.
  void merge(const WorkingMemory& wm,
             std::vector<std::vector<Instantiation>>& task_out);

  std::span<const CompiledRule> rules_;
  AlphaStore alphas_;
  JoinEngine join_;
  ConflictSet cs_;
  QuantIndex quant_;
  MatchStats stats_;
  ThreadPool& pool_;

  std::vector<std::vector<AlphaUse>> positive_uses_;
  std::vector<std::vector<AlphaUse>> negative_uses_;
  std::vector<std::uint32_t> scratch_alphas_;
  // Per-delta flat (fact -> accepting alphas) lists, built in the
  // sequential prologue and read-only during the parallel fan-out.
  std::vector<std::uint32_t> added_alphas_;
  std::vector<std::size_t> added_offsets_;
};

}  // namespace parulel
