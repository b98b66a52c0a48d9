#include "match/parallel_treat.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

namespace parulel {

ParallelTreatMatcher::ParallelTreatMatcher(
    std::span<const CompiledRule> rules,
    std::span<const AlphaSpec> alpha_specs, std::size_t template_count,
    ThreadPool& pool)
    : rules_(rules),
      alphas_(alpha_specs, template_count),
      join_(rules, alphas_),
      quant_(join_.plans()),
      pool_(pool),
      positive_uses_(alpha_specs.size()),
      negative_uses_(alpha_specs.size()),
      worker_scratch_(pool.thread_count()) {
  for (RuleId r = 0; r < rules_.size(); ++r) {
    const CompiledRule& rule = rules_[r];
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

void ParallelTreatMatcher::apply_delta(const WorkingMemory& wm,
                                       const Delta& delta) {
  check_fact_ids(delta);
  ++stats_.deltas_processed;
  unblocks_.clear();
  disables_.clear();

  // Sequential prologue: removals.
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

  // Additions into alpha memories (must complete before the fan-out).
  // The alpha tests run once per fact here; the recorded hit lists are
  // shared read-only with the quantifier pass and the derivation jobs.
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

  // Quantified-CE maintenance over pre-existing instantiations (new
  // ones are derived against post-delta alphas). Sequential: scans CS.
  std::vector<Value>& env = env_scratch_;
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    const FactId fid = delta.added[i];
    const FactView fact = wm.view(fid);
    for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1]; ++j) {
      const std::uint32_t a = added_alphas_[j];
      for (const AlphaUse& use : negative_uses_[a]) {
        const CompiledRule& rule = rules_[use.rule];
        const std::size_t n = static_cast<std::size_t>(use.position);
        if (rule.negatives[n].exists) {
          // New witness: may enable instantiations.
          unblocks_.push_back({use.rule, use.position, fid});
          continue;
        }
        const PositionPlan& neg = join_.plan(use.rule).negatives[n];
        quant_.for_candidates(cs_, use.rule, n, fact, [&](InstId id) {
          rebuild_env(
              rule, cs_.get(id).facts,
              [&](FactId f) { return wm.view(f); }, env);
          if (JoinEngine::fact_blocks(fact, neg, env)) {
            cs_.remove(id);
            ++stats_.insts_invalidated;
          }
        });
      }
    }
  }
  // Departed (exists ...) witnesses.
  for (const auto& d : disables_) {
    const FactView fact = wm.view(d.fact);
    const CompiledRule& rule = rules_[d.rule];
    const PositionPlan& neg =
        join_.plan(d.rule).negatives[static_cast<std::size_t>(d.neg)];
    quant_.for_candidates(
        cs_, d.rule, static_cast<std::size_t>(d.neg), fact, [&](InstId id) {
          rebuild_env(
              rule, cs_.get(id).facts,
              [&](FactId f) { return wm.view(f); }, env);
          if (JoinEngine::fact_blocks(fact, neg, env) &&
              !join_.quantified_satisfied(wm, neg, env)) {
            cs_.remove(id);
            ++stats_.insts_invalidated;
          }
        });
  }

  // Parallel fan-out: derivation tasks. Work unit = (added-fact chunk x
  // matching (rule, position)). We enumerate the task list
  // deterministically: chunk facts, then within a task walk facts in
  // order. Each derivation carries the delta's once-only window (see
  // DeriveWindow), so across all tasks every new match is emitted by
  // exactly one seed: the one the sequential walk would reach first.
  assert(std::adjacent_find(delta.added.begin(), delta.added.end(),
                            std::greater_equal<>()) == delta.added.end());
  wm_ = &wm;
  delta_ = &delta;
  fan_out(delta.added.size(), &ParallelTreatMatcher::derive_task);

  // Constrained re-derivations for retracted negated-CE blockers; these
  // parallelize per (rule, blocker), chunked like the derivations.
  if (!unblocks_.empty()) {
    fan_out(unblocks_.size(), &ParallelTreatMatcher::rematch_task);
    stats_.full_rematches += unblocks_.size();
  }
  wm_ = nullptr;
  delta_ = nullptr;

  stats_.state_entries = cs_.size();
}

void ParallelTreatMatcher::fan_out(
    std::size_t items,
    void (ParallelTreatMatcher::*run)(std::size_t, JoinScratch&)) {
  if (items == 0) return;
  const std::size_t target_tasks =
      std::max<std::size_t>(1, pool_.thread_count() * 4ull);
  chunk_ = std::max<std::size_t>(1, (items + target_tasks - 1) / target_tasks);
  const std::size_t tasks = (items + chunk_ - 1) / chunk_;
  if (task_out_.size() < tasks) task_out_.resize(tasks);
  task_fn_ = run;
  // The closures hold (this, c) only, which std::function stores in
  // place: rebuilding the list allocates nothing once it has capacity.
  jobs_.clear();
  for (std::size_t c = 0; c < tasks; ++c) {
    task_out_[c].clear();
    jobs_.push_back([this, c](unsigned worker) {
      (this->*task_fn_)(c, worker_scratch_[worker]);
    });
  }
  pool_.run_batch(jobs_);
  merge(tasks);
}

void ParallelTreatMatcher::emit(TaskBuffer& out, RuleId rule,
                                std::span<const FactId> facts,
                                std::span<const Value> env) const {
  out.push_back(rule);
  out.insert(out.end(), facts.begin(), facts.end());
  QuantIndex::append_keys(join_.plan(rule), env, out);
}

void ParallelTreatMatcher::derive_task(std::size_t c, JoinScratch& scratch) {
  // The prologue recorded each fact's accepting alphas; jobs only read
  // them, so no alpha test re-runs in the parallel phase.
  const Delta& delta = *delta_;
  TaskBuffer& out = task_out_[c];
  const std::size_t lo = c * chunk_;
  const std::size_t hi = std::min(delta.added.size(), lo + chunk_);
  for (std::size_t i = lo; i < hi; ++i) {
    const FactId fid = delta.added[i];
    for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1]; ++j) {
      for (const AlphaUse& use : positive_uses_[added_alphas_[j]]) {
        join_.derive(*wm_, use.rule, {delta.added.front(), fid, use.position},
                     scratch,
                     [&](std::span<const FactId> facts,
                         std::span<const Value> env) {
                       emit(out, use.rule, facts, env);
                     });
      }
    }
  }
}

void ParallelTreatMatcher::rematch_task(std::size_t c, JoinScratch& scratch) {
  TaskBuffer& out = task_out_[c];
  const std::size_t lo = c * chunk_;
  const std::size_t hi = std::min(unblocks_.size(), lo + chunk_);
  for (std::size_t i = lo; i < hi; ++i) {
    const QuantEvent& u = unblocks_[i];
    join_.enumerate_unblocked(
        *wm_, u.rule, static_cast<std::size_t>(u.neg), wm_->view(u.fact),
        scratch,
        [&](std::span<const FactId> facts, std::span<const Value> env) {
          emit(out, u.rule, facts, env);
        });
  }
}

void ParallelTreatMatcher::merge(std::size_t tasks) {
  for (std::size_t c = 0; c < tasks; ++c) {
    const TaskBuffer& buffer = task_out_[c];
    for (std::size_t i = 0; i < buffer.size();) {
      const auto rule = static_cast<RuleId>(buffer[i++]);
      const std::size_t n_facts = rules_[rule].positives.size();
      const std::size_t n_keys = rules_[rule].negatives.size();
      const std::span<const FactId> facts(buffer.data() + i, n_facts);
      const std::span<const std::size_t> keys(buffer.data() + i + n_facts,
                                              n_keys);
      i += n_facts + n_keys;
      if (cs_.add(rule, facts, keys) == kInvalidInst) {
        ++stats_.derive_rejects;
      } else {
        ++stats_.insts_derived;
      }
    }
  }
}

}  // namespace parulel
