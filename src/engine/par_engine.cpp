#include "engine/par_engine.hpp"

#include <algorithm>

#include "obs/report.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace parulel {

void ParallelEngine::trace_cycle(const CycleStats& cycle) {
  obs::CycleActivity activity;
  activity.engine = name();
  activity.threads = pool_->thread_count();
  const MatchStats& match_now = matcher_->stats();
  const PoolStatsSnapshot pool_now = pool_->stats();
  obs::fill_match_activity(activity, match_now, trace_prev_match_);
  obs::fill_pool_activity(activity, pool_now, trace_prev_pool_);
  trace_prev_match_ = match_now;
  trace_prev_pool_ = pool_now;
  config_.trace->cycle(cycle, activity);
}

ParallelEngine::ParallelEngine(const Program& program, EngineConfig config)
    : program_(program),
      config_(config),
      wm_(program.schema),
      owned_pool_(config.pool
                      ? nullptr
                      : std::make_unique<ThreadPool>(std::max(1u, config.threads))),
      pool_(config.pool ? config.pool : owned_pool_.get()),
      meta_(program),
      buffers_(pool_->thread_count()) {
  if (config_.matcher == MatcherKind::Rete) {
    throw RuntimeError(
        "the parallel engine requires a TREAT-family matcher");
  }
  matcher_ = make_matcher(config_.matcher, program_, pool_);
}

void ParallelEngine::assert_initial_facts() {
  for (const auto& fact : program_.initial_facts) {
    wm_.assert_fact(fact.tmpl, fact.slots);
  }
}

void ParallelEngine::absorb_external_delta() {
  const Delta delta = wm_.drain_delta();
  if (!delta.empty()) matcher_->apply_external_delta(wm_, delta);
}

bool ParallelEngine::step(RunStats& stats) {
  if (halted_) return false;
  CycleStats cycle;
  cycle.cycle = stats.cycles;

  // Phase 1: match.
  {
    ScopedAccumulator t(cycle.match_ns);
    matcher_->apply_delta(wm_, wm_.drain_delta());
  }
  ConflictSet& cs = matcher_->conflict_set();
  std::vector<InstId> eligible = cs.alive_ids();
  cycle.conflict_set_size = eligible.size();
  if (eligible.empty()) {
    // The quiescence check is no cycle, but its match is run time.
    stats.match_ns += cycle.match_ns;
    stats.quiesce_match_ns += cycle.match_ns;
    stats.quiescent = true;
    return false;
  }

  if (config_.stratified_salience) {
    int max_salience = program_.rules[cs.get(eligible.front()).rule].salience;
    for (InstId id : eligible) {
      max_salience = std::max(
          max_salience, program_.rules[cs.get(id).rule].salience);
    }
    std::erase_if(eligible, [&](InstId id) {
      return program_.rules[cs.get(id).rule].salience != max_salience;
    });
  }

  // Phase 2: meta-rule redaction. Its parts are laps of one clock, so
  // they sum to redact_ns exactly.
  MetaOutcome outcome =
      meta_.run(wm_, cs, eligible, config_.output, config_.metrics);
  cycle.redacted = outcome.redacted.size();
  cycle.meta_rounds = outcome.rounds;
  cycle.meta_firings = outcome.meta_firings;
  cycle.meta_witnesses = outcome.witnesses;
  cycle.meta_reify_ns = outcome.reify_ns;
  cycle.meta_match_ns = outcome.match_ns;
  cycle.meta_query_ns = outcome.query_ns;
  cycle.redact_ns = outcome.redact_ns();
  const std::vector<InstId> to_fire = std::move(outcome.to_fire);
  if (to_fire.empty()) {
    // Everything was redacted: the system is stalled by its own
    // meta-program — that is quiescence under PARULEL semantics.
    stats.quiescent = true;
    stats.absorb(cycle);
    if (config_.trace_cycles) stats.per_cycle.push_back(cycle);
    PARULEL_OBS_ONLY(if (config_.trace) trace_cycle(cycle);)
    return false;
  }

  // Phase 3: parallel firing against the frozen snapshot. Each worker
  // appends to its own buffer; fired_[i] remembers where firing i went.
  // Two captures keep the closure inside std::function's in-place
  // storage, so a warmed fire phase allocates nothing.
  for (FiringBuffer& buffer : buffers_) buffer.clear();
  fired_.resize(to_fire.size());
  {
    ScopedAccumulator t(cycle.fire_ns);
    pool_->parallel_for(
        0, to_fire.size(), [this, &to_fire](std::size_t i, unsigned w) {
          FiringBuffer& buffer = buffers_[w];
          fire_buffered(program_, matcher_->conflict_set().get(to_fire[i]),
                        wm_, buffer);
          fired_[i] = {w, static_cast<std::uint32_t>(buffer.size() - 1)};
        });
  }

  // Phase 4: deterministic merge (ascending instantiation id).
  {
    ScopedAccumulator t(cycle.merge_ns);
    MergeResult merged;
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      if (config_.firing_log) {
        const Instantiation inst = cs.get(to_fire[i]);
        config_.firing_log->push_back(
            {stats.cycles, inst.rule, {inst.facts.begin(), inst.facts.end()}});
      }
      cs.mark_fired(to_fire[i]);
      apply_firing(buffers_[fired_[i].worker], fired_[i].index, wm_,
                   config_.output, merged);
    }
    cycle.fired = to_fire.size();
    cycle.asserts = merged.asserts;
    cycle.retracts = merged.retracts;
    cycle.duplicate_asserts = merged.duplicate_asserts;
    cycle.write_conflicts = merged.write_conflicts;
    if (merged.halt) {
      halted_ = true;
      stats.halted = true;
    }
  }

  stats.absorb(cycle);
  if (config_.trace_cycles) stats.per_cycle.push_back(cycle);
  PARULEL_OBS_ONLY(if (config_.trace) trace_cycle(cycle);)
  return true;
}

RunStats ParallelEngine::run() {
  RunStats stats;
  Timer wall;
  while (stats.cycles < config_.max_cycles) {
    if (!step(stats)) break;
  }
  stats.wall_ns = wall.elapsed_ns();
  stats.termination = stats.halted      ? TerminationReason::Halted
                      : stats.quiescent ? TerminationReason::Quiescent
                                        : TerminationReason::CycleLimit;
  PARULEL_OBS_ONLY({
    if (config_.trace) config_.trace->run(stats, name());
    if (config_.metrics) {
      stats.publish(*config_.metrics);
      obs::publish_match_stats(*config_.metrics, matcher_->stats());
      obs::publish_pool_stats(*config_.metrics, pool_->stats());
      config_.metrics->set("engine.threads", pool_->thread_count());
    }
  })
  return stats;
}

}  // namespace parulel
