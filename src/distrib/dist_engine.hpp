// Simulated distributed PARULEL (the PARADISER substitution).
//
// The original system ran on networks of workstations; here N "sites"
// live in one process, each with its own working memory, matcher, and
// meta engine, communicating only through content-addressed message
// queues. Site compute phases run in parallel on the thread pool (one
// task per site — the real system's unit of parallelism); all routing is
// sequential and ordered, so runs are deterministic for any thread
// count. Message counts are recorded per cycle, standing in for the
// network-cost measurements of the original evaluation (see DESIGN.md,
// substitution notes).
//
// Execution model per global cycle (barrier-synchronized, like the
// PARADISER incremental-update protocol's synchronous mode):
//   1. each site drains its inbox into its working memory;
//   2. each site matches, runs its local meta-rule redaction, and fires
//      its surviving instantiations against its local snapshot;
//   3. buffered writes are routed: ops on facts the site owns apply
//      locally, ops owned elsewhere become messages; replicated-template
//      ops broadcast.
// The run ends when every site is quiescent and every inbox is empty.
//
// Fault tolerance (optional; see distrib/faults.hpp, checkpoint.hpp):
// when a FaultPlan or checkpoint interval is configured, cross-site
// traffic goes through a reliable routing layer — per-channel sequence
// numbers, acks piggybacked on the cycle barrier, and retransmission
// with bounded exponential backoff — so injected loss, duplication,
// delay, and site crashes never change the final fixpoint: for any
// plan that eventually lets all messages through, global_fingerprint()
// equals the fault-free run's. Sites snapshot their state every
// `checkpoint_every` cycles; a crashed site restores its last
// checkpoint on restart and peers replay every message not covered by
// it, while the surviving sites keep cycling. With no plan configured,
// routing takes the original fast path untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "distrib/faults.hpp"
#include "distrib/partition.hpp"
#include "engine/actions.hpp"
#include "engine/engine.hpp"
#include "runtime/thread_pool.hpp"

namespace parulel {

struct DistConfig {
  unsigned sites = 4;
  unsigned threads = 0;  ///< 0 = one thread per site
  std::uint64_t max_cycles = 1'000'000;
  bool trace_cycles = false;
  std::ostream* output = nullptr;
  /// Refuse partition schemes that fail structural validation.
  bool strict_partitioning = true;

  /// Faults to inject (distrib/faults.hpp). An enabled plan switches
  /// routing onto the reliable layer.
  FaultPlan faults;
  /// Cycles between site snapshots; 0 = only the initial snapshot (and
  /// reliable routing stays off unless `faults` is enabled).
  std::uint64_t checkpoint_every = 0;

  /// Observability (see src/obs/): per-cycle "cycle" events plus a
  /// final "run" event carrying the fault counters; metrics receive
  /// run/fault/pool totals at the end of run().
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct DistStats {
  RunStats run;                       ///< aggregated over sites
  std::uint64_t messages = 0;         ///< cross-site ops routed
  std::uint64_t broadcasts = 0;       ///< replicated-template ops
  FaultStats faults;                  ///< reliable-routing accounting
  std::vector<std::uint64_t> per_site_firings;
  std::vector<std::uint64_t> per_cycle_messages;  ///< when tracing

  /// Simulated distributed wall time: per cycle, the slowest site's
  /// compute time (sites run concurrently on real hardware) plus the
  /// serial routing time. On a single-core host — where sites execute
  /// interleaved and measured wall time cannot show concurrency — this
  /// is the faithful stand-in for the original multi-machine numbers.
  std::uint64_t sim_wall_ns = 0;
};

class DistributedEngine {
 public:
  DistributedEngine(const Program& program, PartitionScheme scheme,
                    DistConfig config);
  ~DistributedEngine();

  /// Route the program's deffacts to their owning sites.
  void assert_initial_facts();

  DistStats run();

  unsigned site_count() const { return config_.sites; }
  const WorkingMemory& site_wm(unsigned site) const;

  /// Order-independent fingerprint of ALL sites' alive facts combined
  /// (replicated facts counted once per content).
  std::uint64_t global_fingerprint() const;

 private:
  struct Site;
  struct Message;
  struct OutEntry;
  struct InFlight;

  void route_op(unsigned from_site, const FiringBuffer& buffer,
                const BufferedOp& op, DistStats& stats);
  bool cycle(DistStats& stats);

  // --- reliable routing layer (active only when reliable_) ---
  void send_reliable(unsigned from, unsigned to, Message msg,
                     DistStats& stats);
  void transmit(OutEntry& entry, unsigned to, DistStats& stats);
  void resolve_in_flight(DistStats& stats);
  void retransmit_due(DistStats& stats);
  void drain_inbox_reliable(unsigned site, DistStats& stats);
  void take_checkpoint(unsigned site, DistStats& stats);
  void process_fault_timeline(DistStats& stats);
  void crash_site(unsigned site, std::uint64_t down_cycles,
                  DistStats& stats);
  void restore_site(unsigned site, DistStats& stats);
  bool reliable_work_pending() const;

  const Program& program_;
  PartitionScheme scheme_;
  DistConfig config_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<Site>> sites_;
  bool halted_ = false;

  bool reliable_ = false;  ///< FaultPlan enabled or checkpointing on
  std::unique_ptr<FaultInjector> injector_;
  std::vector<InFlight> in_flight_;   ///< delayed messages on the wire
  std::vector<bool> crash_done_;      ///< per FaultPlan::crashes entry
  std::uint64_t now_ = 0;             ///< current global cycle index
  PoolStatsSnapshot trace_prev_pool_;  ///< per-cycle trace differencing
};

}  // namespace parulel
