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
      quant_(rules, join_.plans()),
      pool_(pool),
      positive_uses_(alpha_specs.size()),
      negative_uses_(alpha_specs.size()) {
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
  ++stats_.deltas_processed;

  struct QuantEvent {
    RuleId rule;
    int neg;
    FactId fact;
  };
  std::vector<QuantEvent> unblocks;
  std::vector<QuantEvent> disables;

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
          disables.push_back({use.rule, use.position, fid});
        } else {
          unblocks.push_back({use.rule, use.position, fid});
        }
      }
      alphas_.memory(a).erase(fact);
    }
    std::vector<InstId> removed;
    cs_.remove_by_fact(fid, &removed);
    stats_.insts_invalidated += removed.size();
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
  {
    std::vector<Value> env;
    for (std::size_t i = 0; i < delta.added.size(); ++i) {
      const FactId fid = delta.added[i];
      const FactView fact = wm.view(fid);
      for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1];
           ++j) {
        const std::uint32_t a = added_alphas_[j];
        for (const AlphaUse& use : negative_uses_[a]) {
          const CompiledRule& rule = rules_[use.rule];
          const std::size_t n = static_cast<std::size_t>(use.position);
          if (rule.negatives[n].exists) {
            // New witness: may enable instantiations.
            unblocks.push_back({use.rule, use.position, fid});
            continue;
          }
          const PositionPlan& neg = join_.plan(use.rule).negatives[n];
          quant_.for_candidates(
              cs_, use.rule, n, fact, [&](InstId id) {
                const Instantiation& inst = cs_.get(id);
                rebuild_env(
                    rule, inst.facts,
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
    for (const auto& d : disables) {
      const FactView fact = wm.view(d.fact);
      const CompiledRule& rule = rules_[d.rule];
      const PositionPlan& neg =
          join_.plan(d.rule).negatives[static_cast<std::size_t>(d.neg)];
      quant_.for_candidates(
          cs_, d.rule, static_cast<std::size_t>(d.neg), fact,
          [&](InstId id) {
            const Instantiation& inst = cs_.get(id);
            rebuild_env(
                rule, inst.facts,
                [&](FactId f) { return wm.view(f); }, env);
            if (JoinEngine::fact_blocks(fact, neg, env) &&
                !join_.quantified_satisfied(wm, neg, env)) {
              cs_.remove(id);
              ++stats_.insts_invalidated;
            }
          });
    }
  }

  // Parallel fan-out: derivation tasks. Work unit = (added-fact chunk x
  // matching (rule, position)). We enumerate the task list
  // deterministically: chunk facts, then within a task walk facts in
  // order. Each derivation carries the delta's once-only window (see
  // DeriveWindow), so across all tasks every new match is emitted by
  // exactly one seed: the one the sequential walk would reach first.
  assert(std::adjacent_find(delta.added.begin(), delta.added.end(),
                            std::greater_equal<>()) == delta.added.end());
  const std::size_t n_added = delta.added.size();
  std::vector<std::vector<Instantiation>> task_out;
  if (n_added > 0) {
    const std::size_t target_tasks =
        std::max<std::size_t>(1, pool_.thread_count() * 4ull);
    const std::size_t chunk =
        std::max<std::size_t>(1, (n_added + target_tasks - 1) / target_tasks);
    const std::size_t n_chunks = (n_added + chunk - 1) / chunk;
    task_out.resize(n_chunks);

    std::vector<std::function<void(unsigned)>> jobs;
    jobs.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(n_added, lo + chunk);
      jobs.push_back([this, &wm, &delta, &task_out, c, lo, hi](unsigned) {
        // The prologue recorded each fact's accepting alphas; jobs only
        // read them, so no alpha test re-runs in the parallel phase.
        JoinScratch scratch;
        auto& out = task_out[c];
        for (std::size_t i = lo; i < hi; ++i) {
          const FactId fid = delta.added[i];
          for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1];
               ++j) {
            for (const AlphaUse& use : positive_uses_[added_alphas_[j]]) {
              join_.derive(wm, use.rule,
                           {delta.added.front(), fid, use.position}, scratch,
                           [&](const std::vector<FactId>& facts,
                               std::span<const Value>) {
                             Instantiation inst;
                             inst.rule = use.rule;
                             inst.facts = facts;
                             out.push_back(std::move(inst));
                           });
            }
          }
        }
      });
    }
    pool_.run_batch(jobs);
  }

  merge(wm, task_out);

  // Constrained re-derivations for retracted negated-CE blockers; these
  // parallelize per (rule, blocker), chunked like the derivations.
  if (!unblocks.empty()) {
    const std::size_t target_tasks =
        std::max<std::size_t>(1, pool_.thread_count() * 4ull);
    const std::size_t chunk = std::max<std::size_t>(
        1, (unblocks.size() + target_tasks - 1) / target_tasks);
    const std::size_t n_chunks = (unblocks.size() + chunk - 1) / chunk;
    std::vector<std::vector<Instantiation>> rematch_out(n_chunks);
    std::vector<std::function<void(unsigned)>> jobs;
    jobs.reserve(n_chunks);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(unblocks.size(), lo + chunk);
      jobs.push_back([this, &wm, &unblocks, &rematch_out, c, lo,
                      hi](unsigned) {
        JoinScratch scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          const auto& u = unblocks[i];
          join_.enumerate_unblocked(
              wm, u.rule, static_cast<std::size_t>(u.neg), wm.view(u.fact),
              scratch,
              [&](const std::vector<FactId>& facts, std::span<const Value>) {
                Instantiation inst;
                inst.rule = u.rule;
                inst.facts = facts;
                rematch_out[c].push_back(std::move(inst));
              });
        }
      });
    }
    pool_.run_batch(jobs);
    stats_.full_rematches += unblocks.size();
    merge(wm, rematch_out);
  }

  stats_.state_entries = cs_.size();
}

void ParallelTreatMatcher::merge(
    const WorkingMemory& wm,
    std::vector<std::vector<Instantiation>>& task_out) {
  std::vector<Value> env;
  for (auto& buffer : task_out) {
    for (auto& inst : buffer) {
      const RuleId rule = inst.rule;
      const InstId id = cs_.add(std::move(inst));
      if (id == kInvalidInst) {
        ++stats_.derive_rejects;
        continue;
      }
      ++stats_.insts_derived;
      if (!rules_[rule].negatives.empty()) {
        rebuild_env(
            rules_[rule], cs_.get(id).facts,
            [&](FactId f) { return wm.view(f); }, env);
        quant_.add(rule, id, env);
      }
    }
  }
}

}  // namespace parulel
