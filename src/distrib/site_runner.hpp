// One cluster site as an OS process: the real-socket counterpart of a
// DistributedEngine site.
//
// A SiteRunner owns one partition slice of working memory, one matcher,
// and one meta engine. It dials the cluster driver (cluster_driver.hpp)
// with `cluster-hello`, then serves barriers: each `barrier N` line
// runs exactly one recognize-act cycle — drain peer batches (dedup by
// (from, epoch, seq)), match + meta-redact + fire, route buffered ops
// through the consistent-hash partition scheme (local ops apply in
// place, remote ops ship as `cc-batch` lines over per-peer TCP
// connections, replicated ops broadcast) — and replies `barrier-done`
// with the counters the driver's termination detector sums.
//
// Durability: with a WAL configured, every cycle that changed state
// appends one SiteBatch record (applied peer messages + local ops)
// BEFORE the site acks the covered messages — ack-after-durable, so a
// peer's pruned entry is always recoverable here. A kill -9'd site
// replays its WAL on restart (site_journal.hpp), bumps its epoch, and
// rejoins: the fresh matcher re-derives its conflict set from the
// replayed facts and refires, and content idempotence at every site
// absorbs whatever the refires resend. Unacked messages the crash
// destroyed are retransmitted by their senders to the new incarnation.
//
// Reliability mirrors the simulated engine's channel layer message for
// message: per-(destination, epoch) sequence numbers, cumulative acks
// (`cc-ack epoch=E floor=F sparse=...`), retransmission with the same
// 2..16-cycle doubling backoff, and seed-driven fault injection on the
// send side (drop / duplicate / delay verdicts per transmission
// attempt) so chaos schedules are reproducible across runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "distrib/faults.hpp"
#include "distrib/partition.hpp"
#include "distrib/site_journal.hpp"
#include "engine/actions.hpp"
#include "engine/engine.hpp"
#include "meta/meta_engine.hpp"
#include "net/cluster.hpp"
#include "obs/stats.hpp"
#include "service/journal.hpp"

namespace parulel {

struct SiteOptions {
  unsigned site_id = 0;
  unsigned sites = 1;
  std::string driver_host = "127.0.0.1";
  std::uint16_t driver_port = 0;
  std::uint16_t listen_port = 0;  ///< 0 = ephemeral
  std::string journal_path;       ///< empty = no WAL (volatile site)
  /// TEMPLATE=SLOT partition map (same form the CLI parses); empty =
  /// everything replicated.
  std::unordered_map<std::string, std::string> partition;
  /// Network fault plan. Crash entries are the DRIVER's job (real
  /// SIGKILL); sites ignore them. The per-site injector stream is
  /// derived from the plan seed and the site id, so every site draws
  /// independent but reproducible verdicts.
  FaultPlan faults;
  /// Site WAL batches between snapshot rewrites; 0 = never truncate.
  std::uint64_t checkpoint_every = 32;
  bool fsync = true;
};

/// Cumulative counters one site reports in every `barrier-done` line.
struct SiteCounters {
  std::uint64_t sent = 0;       ///< cc-batch transmissions (incl. dups)
  std::uint64_t applied = 0;    ///< peer ops applied (post-dedup)
  std::uint64_t dup = 0;        ///< duplicates suppressed
  std::uint64_t retries = 0;    ///< retransmissions
  std::uint64_t dropped = 0;    ///< injector-dropped attempts
  std::uint64_t delayed = 0;    ///< injector-delayed attempts
  std::uint64_t redials = 0;    ///< dials to a peer once connected
  std::uint64_t batches = 0;    ///< WAL batch records written
  std::uint64_t snapshots = 0;  ///< WAL snapshot rewrites
  std::uint64_t firings = 0;    ///< rule firings
};

class SiteRunner {
 public:
  /// `program_text` must be the exact text `program` was parsed from —
  /// it keys WAL compatibility and makes symbol ids line up across the
  /// cluster.
  SiteRunner(const Program& program, std::string program_text,
             SiteOptions options);
  ~SiteRunner();

  /// Recover/create the WAL, start listening, join the driver, and
  /// serve barriers until `cc-stop` or driver EOF. Returns the process
  /// exit code (0 = clean stop, 4 = runtime failure).
  int run();

  const SiteCounters& counters() const { return counters_; }

 private:
  struct OutEntry {
    ClusterOp op;
    std::uint64_t seq = 0;
    std::uint64_t next_retry = 0;
    std::uint64_t backoff = 2;
    bool attempted = false;  ///< any prior transmit = later ones are retries
  };

  struct Delayed {
    std::uint64_t due = 0;
    unsigned to = 0;
    std::string line;  ///< precomposed cc-batch line
  };

  /// Everything this site knows about one peer. The dialer of a conn is
  /// the data sender: `out` carries our cc-batch lines (acks come back
  /// on it); `in` is the conn the peer dialed us on (their batches in,
  /// our acks out).
  struct Peer {
    net::LineConn out;
    net::LineConn in;
    std::string host;
    std::uint16_t port = 0;
    std::uint32_t epoch_seen = 0;  ///< zombie fence for cc-hello
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, OutEntry> pending;  ///< unacked sends
    bool ack_needed = false;
    std::uint32_t ack_epoch = 0;  ///< stream the pending ack covers
    bool dialed = false;  ///< `out` was established once in this process
  };

  /// One decoded inbound cc-batch, queued until the next barrier.
  struct InboxMsg {
    unsigned from = 0;
    std::uint32_t epoch = 1;
    std::uint64_t seq = 0;
    ClusterOp op;
  };

  bool setup();                 // WAL + listener + driver handshake
  void assert_initial_facts();  // fresh start only: local slice of deffacts
  bool pump(int timeout_ms);    // poll + dispatch all readable conns
  void handle_driver_line(const std::string& line);
  void handle_peer_line(unsigned from, const std::string& line);
  void handle_ack_line(unsigned to, const std::string& line);
  void accept_pending();        // new inbound conns -> handshaking_
  void process_handshakes();    // accept + answer inbound cc-hellos
  void run_cycle(std::uint64_t cycle);
  void route_op(const BufferedOp& op, std::vector<ClusterOp>& local_ops);
  void enqueue_send(unsigned to, ClusterOp op);
  void transmit(unsigned to, OutEntry& entry);
  void send_due(std::uint64_t cycle);
  void ensure_peer_conn(unsigned to);
  void journal_cycle(std::uint64_t cycle,
                     std::vector<SiteAppliedMsg> applied,
                     std::vector<ClusterOp> local_ops);
  void send_acks();
  void dump(net::LineConn& to);
  std::string batch_line(const OutEntry& entry) const;

  const Program& program_;
  std::string program_text_;
  SiteOptions opt_;
  PartitionScheme scheme_;
  MetaEngine meta_;

  std::unique_ptr<WorkingMemory> wm_;
  std::unique_ptr<Matcher> matcher_;
  FiringBuffer fired_;  ///< this cycle's buffered firings
  std::vector<ChannelRecvState> recv_;
  std::vector<Peer> peers_;
  std::vector<InboxMsg> inbox_;
  std::vector<Delayed> delayed_;
  std::vector<net::LineConn> handshaking_;  ///< accepted, pre-cc-hello

  net::LineConn driver_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::uint32_t epoch_ = 1;
  std::uint64_t cycle_ = 0;
  std::uint64_t fired_this_cycle_ = 0;
  std::uint64_t applied_this_cycle_ = 0;
  bool halted_ = false;
  bool stopping_ = false;

  std::unique_ptr<service::SessionJournal> journal_;
  std::uint64_t wal_seq_ = 0;
  std::uint64_t batches_since_snapshot_ = 0;

  std::unique_ptr<FaultInjector> injector_;
  SiteCounters counters_;
  JournalStats journal_stats_;  ///< SessionJournal's counter sink
};

}  // namespace parulel
