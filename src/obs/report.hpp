// Adapters from subsystem counter blocks (matcher, thread pool) to the
// obs layer: registry publication and per-cycle trace-activity deltas.
// Header-only; included by the engines, never by the subsystems it
// reads, so obs stays a leaf dependency.
#pragma once

#include <string>
#include <string_view>

#include "match/matcher.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace parulel::obs {

inline void publish_match_stats(MetricsRegistry& registry,
                                const MatchStats& m,
                                std::string_view prefix = "match.") {
  const std::string p(prefix);
  registry.set(p + "deltas_processed", m.deltas_processed);
  registry.set(p + "insts_derived", m.insts_derived);
  registry.set(p + "insts_invalidated", m.insts_invalidated);
  registry.set(p + "alpha_activations", m.alpha_activations);
  registry.set(p + "full_rematches", m.full_rematches);
  registry.set(p + "derive_rejects", m.derive_rejects);
  registry.set(p + "tokens_created", m.tokens_created);
  registry.set(p + "tokens_deleted", m.tokens_deleted);
  registry.set(p + "state_entries", m.state_entries);
  registry.set(p + "external_deltas", m.external_deltas);
}

inline void publish_pool_stats(MetricsRegistry& registry,
                               const PoolStatsSnapshot& p,
                               std::string_view prefix = "pool.") {
  const std::string pre(prefix);
  registry.set(pre + "batches", p.batches);
  registry.set(pre + "jobs", p.jobs);
  registry.set(pre + "busy_ns", p.busy_ns);
  registry.set(pre + "workers",
               static_cast<std::uint64_t>(p.per_worker_jobs.size()));
}

/// Difference two cumulative MatchStats snapshots into the per-cycle
/// activity fields of a trace event.
inline void fill_match_activity(CycleActivity& activity,
                                const MatchStats& now,
                                const MatchStats& before) {
  activity.insts_derived = now.insts_derived - before.insts_derived;
  activity.insts_invalidated =
      now.insts_invalidated - before.insts_invalidated;
  activity.alpha_activations =
      now.alpha_activations - before.alpha_activations;
}

/// Same, for cumulative thread-pool snapshots.
inline void fill_pool_activity(CycleActivity& activity,
                               const PoolStatsSnapshot& now,
                               const PoolStatsSnapshot& before) {
  activity.pool_jobs = now.jobs - before.jobs;
  activity.pool_busy_ns = now.busy_ns - before.busy_ns;
}

}  // namespace parulel::obs
