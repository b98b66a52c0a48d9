#include "engine/seq_engine.hpp"

#include "engine/actions.hpp"
#include "obs/report.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace parulel {

void SequentialEngine::trace_cycle(const CycleStats& cycle) {
  obs::CycleActivity activity;
  activity.engine = name();
  activity.threads = 1;
  const MatchStats& match_now = matcher_->stats();
  obs::fill_match_activity(activity, match_now, trace_prev_match_);
  trace_prev_match_ = match_now;
  config_.trace->cycle(cycle, activity);
}

SequentialEngine::SequentialEngine(const Program& program,
                                   EngineConfig config)
    : program_(program),
      config_(config),
      wm_(program.schema),
      rng_(config.seed) {
  if (config_.matcher == MatcherKind::ParallelTreat) {
    throw RuntimeError(
        "the sequential engine cannot use the parallel matcher");
  }
  matcher_ = make_matcher(config_.matcher, program_);
}

void SequentialEngine::assert_initial_facts() {
  for (const auto& fact : program_.initial_facts) {
    wm_.assert_fact(fact.tmpl, fact.slots);
  }
}

bool SequentialEngine::step(RunStats& stats) {
  if (halted_) return false;
  CycleStats cycle;
  cycle.cycle = stats.cycles;

  {
    ScopedAccumulator t(cycle.match_ns);
    matcher_->apply_delta(wm_, wm_.drain_delta());
  }
  ConflictSet& cs = matcher_->conflict_set();
  cycle.conflict_set_size = cs.size();

  const InstId chosen = select_instantiation(cs, program_.rules,
                                             config_.strategy, rng_);
  if (chosen == kInvalidInst) {
    // The quiescence check is no cycle, but its match is run time.
    stats.match_ns += cycle.match_ns;
    stats.quiesce_match_ns += cycle.match_ns;
    stats.quiescent = true;
    return false;
  }

  {
    ScopedAccumulator t(cycle.fire_ns);
    // Firing keeps the record (refraction), so the view outlives it.
    const Instantiation inst = cs.get(chosen);
    if (config_.firing_log) {
      config_.firing_log->push_back(
          {stats.cycles, inst.rule, {inst.facts.begin(), inst.facts.end()}});
    }
    cs.mark_fired(chosen);
    const DirectFireResult fired =
        fire_direct(program_, inst, wm_, config_.output);
    cycle.fired = 1;
    cycle.asserts = fired.asserts;
    cycle.retracts = fired.retracts;
    cycle.duplicate_asserts = fired.duplicate_asserts;
    if (fired.halt) {
      halted_ = true;
      stats.halted = true;
    }
  }

  stats.absorb(cycle);
  if (config_.trace_cycles) stats.per_cycle.push_back(cycle);
  PARULEL_OBS_ONLY(if (config_.trace) trace_cycle(cycle);)
  return true;
}

RunStats SequentialEngine::run() {
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
      config_.metrics->set("engine.threads", 1);
    }
  })
  return stats;
}

}  // namespace parulel
