// The PARULEL engine: set-oriented parallel rule firing with meta-rule
// conflict resolution.
//
// Each cycle:
//   1. match     — fold the working-memory delta into the conflict set
//                  (rule x delta parallel TREAT);
//   2. redact    — reify the eligible conflict set as meta facts and run
//                  the defmetarule redaction fixpoint; redacted
//                  instantiations are withheld this cycle (they remain
//                  eligible next cycle while still matched);
//   3. fire      — every surviving instantiation fires, in parallel,
//                  against the immutable pre-cycle snapshot of working
//                  memory, buffering writes;
//   4. merge     — buffers apply in ascending instantiation-id order
//                  (first-writer-wins on retract races), producing the
//                  next cycle's delta.
//
// Determinism: identical programs and initial facts produce identical
// cycle traces and final working memories for ANY thread count — thread
// parallelism only reorders read-only work.
#pragma once

#include <memory>

#include "engine/actions.hpp"
#include "engine/engine.hpp"
#include "meta/meta_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace parulel {

class ParallelEngine : public Engine {
 public:
  /// `program` must outlive the engine.
  ParallelEngine(const Program& program, EngineConfig config);

  WorkingMemory& wm() override { return wm_; }
  void assert_initial_facts() override;
  RunStats run() override;
  const char* name() const override { return "parulel"; }

  /// One full match-redact-fire-merge cycle. Returns false when the
  /// firing set came up empty (quiescent or fully redacted) or halted.
  bool step(RunStats& stats);

  /// Service layer: fold working-memory changes injected from OUTSIDE
  /// the recognize-act loop (assert/retract/modify between runs) into
  /// the retained matcher as one external batch. Without this, the next
  /// step() would still pick the pending delta up, but through the
  /// internal path — the external entry point keeps the matcher's
  /// external_deltas counter honest (see Matcher::apply_external_delta).
  void absorb_external_delta();

  const Matcher& matcher() const { return *matcher_; }
  unsigned threads() const { return pool_->thread_count(); }
  bool halted() const { return halted_; }

  /// Journal recovery (service/journal.hpp): reinstate the pre-crash
  /// halted flag after a session rebuild — a halted session must come
  /// back halted, not runnable.
  void set_halted(bool halted) { halted_ = halted; }

 private:
  /// Emit this cycle's trace event (tracing enabled only): CycleStats
  /// plus matcher/pool activity differenced against the previous cycle.
  void trace_cycle(const CycleStats& cycle);

  const Program& program_;
  EngineConfig config_;
  WorkingMemory wm_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< null when config.pool is set
  ThreadPool* pool_;                        ///< owned_pool_ or config.pool
  std::unique_ptr<Matcher> matcher_;
  MetaEngine meta_;
  /// Fire-phase buffers, one per pool worker, reused every cycle.
  std::vector<FiringBuffer> buffers_;
  /// Where firing i of this cycle's to_fire went: buffer and index.
  struct FiredAt {
    unsigned worker = 0;
    std::uint32_t index = 0;
  };
  std::vector<FiredAt> fired_;
  bool halted_ = false;

  // Previous-cycle cumulative snapshots for trace deltas.
  MatchStats trace_prev_match_;
  PoolStatsSnapshot trace_prev_pool_;
};

}  // namespace parulel
