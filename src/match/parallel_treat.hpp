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

#include <cstdint>
#include <functional>
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
  struct QuantEvent {
    RuleId rule;
    int neg;
    FactId fact;
  };

  /// One fan-out task's emissions, flat: per match its rule id, its
  /// facts, then its quantified-CE keys (both counts fixed by the rule).
  using TaskBuffer = std::vector<std::uint64_t>;

  /// Split `items` into chunks (~4 per pool thread), run task c =
  /// run(c, worker scratch) for each over the pool, then merge. Jobs,
  /// buffers and scratch are the matcher's and reused each cycle.
  void fan_out(std::size_t items,
               void (ParallelTreatMatcher::*run)(std::size_t, JoinScratch&));
  /// Derivation task c: seminaive joins from its chunk of added facts.
  void derive_task(std::size_t c, JoinScratch& scratch);
  /// Re-derivation task c: its chunk of unblock events.
  void rematch_task(std::size_t c, JoinScratch& scratch);
  /// Append one match to a task buffer.
  void emit(TaskBuffer& out, RuleId rule, std::span<const FactId> facts,
            std::span<const Value> env) const;

  /// Fold the first `tasks` buffers into the conflict set in task order
  /// (dedup and refraction in cs_.add), so ids are independent of
  /// thread timing.
  void merge(std::size_t tasks);

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
  std::vector<QuantEvent> unblocks_;
  std::vector<QuantEvent> disables_;
  std::vector<Value> env_scratch_;

  // Fan-out state, kept across cycles so a warmed-up matcher does not
  // allocate per job: the jobs capture only (this, task index) and read
  // the current delta and chunking from here.
  const WorkingMemory* wm_ = nullptr;
  const Delta* delta_ = nullptr;
  std::size_t chunk_ = 0;
  void (ParallelTreatMatcher::*task_fn_)(std::size_t, JoinScratch&) = nullptr;
  std::vector<std::function<void(unsigned)>> jobs_;
  std::vector<TaskBuffer> task_out_;
  std::vector<JoinScratch> worker_scratch_;  ///< one per pool worker
};

}  // namespace parulel
