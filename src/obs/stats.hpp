// Per-cycle and per-run execution statistics.
//
// Every engine (sequential baseline, PARULEL parallel, distributed) fills
// the same structures so the bench harness can print uniform tables.
//
// This is the observability layer's single source of truth for the stat
// schema: `cycle_fields()` / `run_fields()` enumerate every numeric field
// by name, and the trace sink (obs/trace.hpp), the metrics registry
// export (RunStats::publish), the JSON serializers, and the bench
// reports (bench/bench_util.hpp) all iterate those tables instead of
// hand-listing fields. Adding a counter here makes it appear in every
// export format at once.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace parulel {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Why a run stopped. `quiescent`/`halted` bools predate this enum and
/// are kept in sync for older call sites; the enum adds the third state
/// — the silent `max_cycles` truncation — so callers (and the CLI exit
/// code) can tell an exhausted run from a finished one.
enum class TerminationReason : std::uint8_t {
  Unknown = 0,     ///< run() has not completed
  Quiescent = 1,   ///< conflict set drained / all sites idle
  Halted = 2,      ///< a rule executed (halt)
  CycleLimit = 3,  ///< stopped by EngineConfig/DistConfig::max_cycles
};

/// Stable export name for a TerminationReason.
const char* termination_name(TerminationReason r);

/// One recognize-act cycle's accounting.
struct CycleStats {
  std::uint64_t cycle = 0;

  // Conflict-set dynamics.
  std::uint64_t conflict_set_size = 0;  ///< insts eligible after refraction
  std::uint64_t redacted = 0;           ///< removed by meta-rules
  std::uint64_t fired = 0;              ///< instantiations actually fired

  // Working-memory dynamics.
  std::uint64_t asserts = 0;
  std::uint64_t retracts = 0;
  std::uint64_t duplicate_asserts = 0;  ///< asserts absorbed by set semantics
  std::uint64_t write_conflicts = 0;    ///< clashing parallel writes detected

  // Meta-level work (parallel engine; zero for the sequential baseline).
  std::uint64_t meta_rounds = 0;        ///< redaction fixpoint rounds
  std::uint64_t meta_firings = 0;       ///< meta instantiations fired
  std::uint64_t meta_witnesses = 0;     ///< existential-rule redactions

  // Phase times, nanoseconds.
  std::uint64_t match_ns = 0;
  std::uint64_t redact_ns = 0;
  std::uint64_t fire_ns = 0;
  std::uint64_t merge_ns = 0;

  // redact_ns split into consecutive laps of one clock (MetaOutcome):
  // meta_reify_ns + meta_match_ns + meta_query_ns == redact_ns.
  std::uint64_t meta_reify_ns = 0;  ///< workspace clear + reification
  std::uint64_t meta_match_ns = 0;  ///< meta apply_delta, every round
  std::uint64_t meta_query_ns = 0;  ///< witness queries, firing, set-diff

  std::uint64_t total_ns() const {
    return match_ns + redact_ns + fire_ns + merge_ns;
  }
};

/// Whole-run accounting, the sum of all cycles plus run-level outcomes.
struct RunStats {
  std::uint64_t cycles = 0;
  std::uint64_t total_firings = 0;
  std::uint64_t total_redactions = 0;
  std::uint64_t total_asserts = 0;
  std::uint64_t total_retracts = 0;
  std::uint64_t total_write_conflicts = 0;
  std::uint64_t total_meta_firings = 0;
  std::uint64_t total_meta_rounds = 0;
  std::uint64_t total_meta_witnesses = 0;
  std::uint64_t peak_conflict_set = 0;
  bool halted = false;      ///< a rule executed (halt)
  bool quiescent = false;   ///< conflict set drained
  TerminationReason termination = TerminationReason::Unknown;
  std::uint64_t wall_ns = 0;

  /// Sum of every cycle's match_ns plus quiesce_match_ns.
  std::uint64_t match_ns = 0;
  /// The match of the step that found the conflict set empty and ended
  /// the run. That step is not a cycle, so no CycleStats carries it.
  std::uint64_t quiesce_match_ns = 0;
  std::uint64_t redact_ns = 0;
  std::uint64_t fire_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t meta_reify_ns = 0;  ///< sums of the CycleStats split
  std::uint64_t meta_match_ns = 0;
  std::uint64_t meta_query_ns = 0;

  std::vector<CycleStats> per_cycle;  ///< populated when tracing is enabled

  void absorb(const CycleStats& c);

  /// Human-readable multi-line summary.
  std::string summary() const;

  /// One JSON object with every run_fields() entry plus halted/quiescent.
  std::string to_json() const;

  /// Push every run_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "run.") const;
};

/// Fault-injection and recovery accounting for the distributed engine's
/// reliable routing layer (src/distrib/faults.hpp). Lives in the obs
/// layer so the field table below feeds every exporter. Counter
/// invariants, verified by tests/test_faults.cpp at quiescence:
///   sent      == delivered + dropped          (every attempt resolves)
///   delivered == applied + dup_suppressed + wiped
/// so no message is lost silently and no op is applied twice.
struct FaultStats {
  std::uint64_t sent = 0;       ///< transmission attempts (incl. retries/dups)
  std::uint64_t delivered = 0;  ///< attempts that reached an inbox
  std::uint64_t applied = 0;    ///< messages applied to a working memory
  std::uint64_t dropped = 0;    ///< attempts lost (injected loss or dest down)
  std::uint64_t delayed = 0;    ///< attempts held in flight for extra cycles
  std::uint64_t retries = 0;    ///< retransmissions after ack timeout
  std::uint64_t dup_suppressed = 0;  ///< duplicate deliveries discarded
  std::uint64_t wiped = 0;      ///< inbox messages destroyed by a site crash
  std::uint64_t crashes = 0;    ///< injected site failures
  std::uint64_t restores = 0;   ///< checkpoint recoveries completed
  std::uint64_t checkpoints = 0;  ///< snapshots taken (incl. initial)

  /// Push every fault_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "faults.") const;
};

/// Rule-service accounting (src/service/): request ingestion, batch
/// commits, backpressure, and per-request latency. Filled by
/// RuleService::stats_snapshot(); the latency percentiles are computed
/// there from a bounded reservoir of per-request commit latencies
/// (enqueue -> commit completion). The service_fields() table below
/// feeds the trace sink's "service" event, metrics publication, and the
/// bench JSON rows, so every exporter carries the same schema.
struct ServiceStats {
  std::uint64_t requests = 0;        ///< ops accepted into a queue
  std::uint64_t asserts = 0;         ///< accepted assert requests
  std::uint64_t retracts = 0;        ///< accepted retract requests
  std::uint64_t runs = 0;            ///< accepted run requests
  std::uint64_t queries = 0;         ///< synchronous queries served
  std::uint64_t batches = 0;         ///< recognize-act commits executed
  std::uint64_t batched_ops = 0;     ///< ops folded into those commits
  std::uint64_t rejected = 0;        ///< backpressure rejections (queue full)
  std::uint64_t quota_rejected = 0;  ///< fact-quota rejections
  std::uint64_t evicted = 0;         ///< idle sessions closed by eviction
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;  ///< explicit closes + evictions
  std::uint64_t queue_depth = 0;      ///< pending ops across sessions (gauge)
  std::uint64_t peak_queue_depth = 0;  ///< worst single-session depth seen
  std::uint64_t latency_p50_ns = 0;   ///< median request commit latency
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_max_ns = 0;

  /// Push every service_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "service.") const;
};

/// TCP front-end accounting (src/net/net_server.hpp): connection
/// lifecycle, wire volume, and the protections that keep one client
/// from hurting the rest (backpressure rejects, oversize-line drops,
/// write-buffer overflow closes, idle timeouts). Filled by
/// NetServer::stats_snapshot() as the sum across event-loop shards
/// (NetServer::shard_stats() exposes the unsummed per-shard rows); the
/// net_fields() table feeds metrics publication and the bench JSON rows
/// like every other stat family.
struct NetStats {
  std::uint64_t accepted = 0;       ///< connections accepted
  std::uint64_t rejected_full = 0;  ///< refused at max_connections
  std::uint64_t closed = 0;         ///< connections fully closed
  std::uint64_t active = 0;         ///< open connections (gauge)
  std::uint64_t lines_in = 0;       ///< request lines parsed
  std::uint64_t responses_out = 0;  ///< response payloads emitted
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t protocol_errors = 0;     ///< `err` responses emitted
  std::uint64_t oversize_lines = 0;      ///< lines over max_line_bytes
  std::uint64_t backpressure_rejects = 0;  ///< lines refused: write buffer full
  std::uint64_t overflow_closed = 0;     ///< closed: write buffer past hard cap
  std::uint64_t idle_closed = 0;         ///< closed by idle timeout
  std::uint64_t drained = 0;             ///< closed by graceful shutdown drain
  std::uint64_t fault_dropped = 0;       ///< conns killed by --net-fault-plan
  std::uint64_t fault_delayed = 0;       ///< responses held by --net-fault-plan
  std::uint64_t shards = 0;              ///< event-loop shards serving (gauge)
  std::uint64_t forwarded = 0;           ///< lines forwarded to a session's
                                         ///< home shard (journaled, shards>1)
  std::uint64_t busy_ns = 0;             ///< shard-thread time spent executing
                                         ///< requests (drives the R-S4 model)

  /// Push every net_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "net.") const;
};

/// Write-ahead-journal accounting (src/service/journal.hpp): the write
/// path (records framed, bytes, fsyncs, snapshots taken) and the
/// startup-recovery path (sessions rebuilt, batches/ops replayed, torn
/// tails tolerated, journals quarantined). Filled by
/// RuleService::journal_stats_snapshot(); the journal_fields() table
/// feeds metrics publication, the CLI's exit summary, and the bench
/// JSON rows like every other stat family.
struct JournalStats {
  std::uint64_t records_written = 0;  ///< CRC-framed records appended
  std::uint64_t bytes_written = 0;    ///< record bytes incl. framing
  std::uint64_t fsyncs = 0;           ///< fsync(2) calls issued
  std::uint64_t batches_logged = 0;   ///< batch records appended
  std::uint64_t ops_logged = 0;       ///< assert/retract ops inside them
  std::uint64_t snapshots = 0;        ///< snapshot rewrites (truncations)
  std::uint64_t recovered_sessions = 0;  ///< sessions rebuilt at startup
  std::uint64_t recovered_batches = 0;   ///< batch records replayed
  std::uint64_t recovered_ops = 0;       ///< ops re-applied in replay
  std::uint64_t torn_tails = 0;       ///< journals with a dropped torn tail
  std::uint64_t recovery_failures = 0;  ///< journals quarantined (fail closed)
  std::uint64_t recovery_wall_ns = 0;   ///< total startup-recovery time

  /// Push every journal_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "journal.") const;
};

/// Client-side retry accounting (src/net/retry_client.hpp): how many
/// requests needed retransmission, reconnects with bounded exponential
/// backoff, sessions resumed vs reopened after reconnect, and replayed
/// request lines deduplicated server-side by parulel/2 request ids.
struct RetryStats {
  std::uint64_t requests = 0;    ///< exec() calls
  std::uint64_t retries = 0;     ///< requests that needed >= 1 retransmit
  std::uint64_t reconnects = 0;  ///< dial attempts after a lost connection
  /// Endpoint-list advances: a failed dial, or a fenced standby's
  /// `err not-primary` refusal.
  std::uint64_t failovers = 0;
  std::uint64_t replayed = 0;    ///< buffered lines resent after resume
  std::uint64_t resumed = 0;     ///< sessions reattached via `resume`
  std::uint64_t reopened = 0;    ///< sessions rebuilt via their open line
  std::uint64_t timeouts = 0;    ///< I/O timeouts observed
  std::uint64_t giveups = 0;     ///< requests abandoned after max attempts
  std::uint64_t backoff_ms = 0;  ///< total time slept backing off

  /// Push every retry_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "retry.") const;
};

/// Journal-replication accounting (src/net/net_server.hpp): the
/// primary's shipping side (batches/snapshots sent, acks, the semi-sync
/// vs degraded split) and the replica's apply side (records applied to
/// its own journal files). Filled by NetServer::repl_stats_snapshot();
/// the repl_fields() table feeds metrics publication, the CLI's exit
/// summary, and the bench JSON rows like every other stat family.
struct ReplStats {
  std::uint64_t batches_shipped = 0;    ///< repl-batch frames sent
  std::uint64_t bytes_shipped = 0;      ///< payload bytes in those frames
  std::uint64_t snapshots_shipped = 0;  ///< repl-snapshot full-file syncs sent
  std::uint64_t acks_received = 0;      ///< repl-ack frames received
  std::uint64_t sync_commits = 0;       ///< commits that waited for a replica ack
  std::uint64_t async_commits = 0;      ///< commits shipped without waiting
  std::uint64_t repl_degraded = 0;      ///< semi-sync waits that timed out
  std::uint64_t replica_connects = 0;   ///< replication channels accepted/made
  std::uint64_t applied_batches = 0;    ///< replica: batch records applied
  std::uint64_t applied_snapshots = 0;  ///< replica: full-file syncs applied
  std::uint64_t apply_errors = 0;       ///< replica: frames that failed to apply

  /// Push every repl_fields() entry into `registry` as "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "repl.") const;
};

/// Multi-process cluster accounting (src/distrib/cluster_driver.hpp):
/// the driver's view of a real-socket run — barriers driven, site
/// processes spawned/killed/respawned, plus the sums of the per-site
/// counters each `barrier-done` line reports (sends, applies,
/// dedup-suppressed duplicates, retransmissions, injector drops/delays,
/// peer redials, WAL batches and snapshot rewrites), and the wall time
/// of the driver's four phases. The cluster_fields() table feeds
/// metrics publication, the CLI's exit summary, and the bench JSON rows
/// like every other stat family.
struct ClusterStats {
  std::uint64_t barriers = 0;    ///< barrier rounds completed
  std::uint64_t spawns = 0;      ///< site processes started (incl. respawns)
  std::uint64_t kills = 0;       ///< SIGKILLs delivered by the fault plan
  std::uint64_t deaths = 0;      ///< unexpected site exits detected
  std::uint64_t restores = 0;    ///< sites recovered and rejoined
  std::uint64_t sent = 0;        ///< cc-batch transmissions (incl. dups)
  std::uint64_t applied = 0;     ///< peer ops applied (post-dedup)
  std::uint64_t dup_suppressed = 0;  ///< duplicate deliveries discarded
  std::uint64_t retries = 0;     ///< retransmissions after ack timeout
  std::uint64_t dropped = 0;     ///< attempts lost (injector or dead conn)
  std::uint64_t delayed = 0;     ///< attempts held back by the injector
  std::uint64_t redials = 0;     ///< dials to a peer once connected
  std::uint64_t batches = 0;     ///< site WAL batch records written
  std::uint64_t snapshots = 0;   ///< site WAL snapshot rewrites
  std::uint64_t firings = 0;     ///< rule firings across all sites
  // The driver's run() split into consecutive laps of one clock; the
  // four sum to its wall time.
  std::uint64_t join_ns = 0;     ///< listen, spawn, first joins, peers
  std::uint64_t barrier_ns = 0;  ///< barrier rounds incl. kills, rejoins
  std::uint64_t dump_ns = 0;     ///< cc-dump of every site + fingerprint
  std::uint64_t stop_ns = 0;     ///< cc-stop, exits reaped, counters

  /// Push every cluster_fields() entry into `registry` as
  /// "<prefix><name>".
  void publish(obs::MetricsRegistry& registry,
               std::string_view prefix = "cluster.") const;
};

namespace obs {

/// Schema entry: a stat field's export name and member pointer.
template <typename Struct>
struct FieldDef {
  const char* name;
  std::uint64_t Struct::*member;
};

/// Every numeric CycleStats field, in export order.
std::span<const FieldDef<CycleStats>> cycle_fields();

/// Every numeric RunStats field, in export order.
std::span<const FieldDef<RunStats>> run_fields();

/// Every numeric FaultStats field, in export order.
std::span<const FieldDef<FaultStats>> fault_fields();

/// Every numeric ServiceStats field, in export order.
std::span<const FieldDef<ServiceStats>> service_fields();

/// Every numeric NetStats field, in export order.
std::span<const FieldDef<NetStats>> net_fields();

/// Every numeric JournalStats field, in export order.
std::span<const FieldDef<JournalStats>> journal_fields();

/// Every numeric RetryStats field, in export order.
std::span<const FieldDef<RetryStats>> retry_fields();

/// Every numeric ReplStats field, in export order.
std::span<const FieldDef<ReplStats>> repl_fields();

/// Every numeric ClusterStats field, in export order.
std::span<const FieldDef<ClusterStats>> cluster_fields();

}  // namespace obs

}  // namespace parulel
