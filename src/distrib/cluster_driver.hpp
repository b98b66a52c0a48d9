// Cluster driver: spawns, monitors, and barrier-drives a set of
// parulel_site processes (site_runner.hpp) — the orchestration half of
// the multi-process cluster.
//
// The driver listens on a control port; every site dials in with
// `cluster-hello parulel/2 site=K epoch=E port=P`, is fenced against
// zombies (`err epoch-stale` for an epoch below the highest that site
// id has presented) and strays (`err site-unreachable` for a site id
// outside the cluster), and learns the peer table via `cluster-peers`
// broadcasts, re-sent after every join so ports track respawned
// incarnations. Execution is then barrier-synchronized: `barrier N` to
// every live site, one recognize-act cycle each, `barrier-done` back
// with the counters termination detection sums.
//
// Termination: the cluster is quiescent when every site is up and one
// barrier round reports zero firings, zero applies, zero unacked or
// delayed sends, and empty inboxes everywhere — pending=0 means
// everything ever sent is applied AND durable at its receiver
// (ack-after-durable), so nothing in flight can reignite the run.
//
// Teardown: `cc-dump` goes to every live site at once and the replies
// are read in one poll loop; then `cc-stop` goes to every live site and
// one poll set waits, under a single 2 s deadline, for each stop reply
// and for each process's exit through a pidfd. A site still alive at
// the deadline is SIGKILLed and reaped.
//
// Chaos: FaultPlan crash entries become real SIGKILLs delivered at the
// scheduled barrier boundary; the site is respawned `down_cycles`
// barriers later and recovers from its WAL. Sites that die without an
// appointment (externally kill -9'd, OOM) are detected by conn EOF or
// waitpid and respawned too. Crash schedules are refused without a
// journal dir — killing a WAL-less site would genuinely lose state.
//
// The headline invariant this whole arrangement is built to keep: for
// any eventually-delivering fault plan plus kill -9 of any site at any
// barrier boundary, fingerprint() of the converged cluster equals the
// fault-free single-process DistributedEngine::global_fingerprint(),
// bit for bit (tests/test_cluster.cpp sweeps seeds × plans × kill
// points over exactly this claim).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "distrib/faults.hpp"
#include "lang/program.hpp"
#include "net/cluster.hpp"
#include "obs/stats.hpp"

namespace parulel {

struct ClusterConfig {
  unsigned sites = 3;
  /// Program file handed to spawned sites (they re-parse it, which is
  /// what makes symbol ids line up across processes).
  std::string program_path;
  std::uint16_t port = 0;  ///< driver control port; 0 = ephemeral
  /// Spawn site processes (fork+exec of `site_bin`). Off = manual
  /// deployment: the driver waits for operator-started sites to dial in
  /// and never kills or respawns anything.
  bool spawn = true;
  std::string site_bin;  ///< parulel_site binary (spawn mode)
  /// Directory for per-site WALs (<dir>/site-K.wal). Empty = volatile
  /// sites; crash plans are then refused.
  std::string journal_dir;
  std::string partition_spec;  ///< raw TEMPLATE=SLOT,... forwarded to sites
  std::string fault_spec;      ///< raw plan forwarded to sites (network half)
  FaultPlan faults;            ///< parsed plan; crashes executed here
  std::uint64_t max_cycles = 100000;
  std::uint64_t checkpoint_every = 32;  ///< site WAL batches per snapshot
  bool fsync = true;
  /// Seconds to wait for a site's hello before giving up (spawn mode) —
  /// manual mode waits indefinitely.
  unsigned join_timeout_s = 30;
  std::ostream* log = nullptr;  ///< progress lines (nullable)
};

struct ClusterOutcome {
  std::uint64_t fingerprint = 0;  ///< == DistributedEngine::global_fingerprint
  std::uint64_t facts = 0;        ///< distinct fact contents cluster-wide
  std::uint64_t cycles = 0;       ///< barrier rounds driven
  bool halted = false;
  bool quiescent = false;
  ClusterStats stats;
};

/// One child being stopped. `conn` (nullable) is read until the child's
/// `ok cc-stop` or EOF; `pid` (-1 = nothing to reap, e.g. manual mode)
/// until the child exits.
struct StopWait {
  net::LineConn* conn = nullptr;
  int pid = -1;
};

/// Wait up to `timeout_ms`, in one poll set, for every entry's stop
/// reply and exit, watching exits through pidfds. An exited child is
/// reaped and its `pid` set to -1. A child still alive at the deadline,
/// or one whose pidfd could not be opened, keeps its pid: the caller
/// escalates to SIGKILL + waitpid.
void await_stops(std::span<StopWait> waits, int timeout_ms);

class ClusterDriver {
 public:
  /// Throws RuntimeError on config contradictions (crash plan without a
  /// journal dir, spawn mode without a site binary).
  ClusterDriver(const Program& program, ClusterConfig config);
  ~ClusterDriver();

  /// Drive the cluster to quiescence (or halt / cycle limit), collect
  /// the global fingerprint, and stop every site. Throws RuntimeError
  /// when the cluster cannot be assembled or a site stops responding.
  ClusterOutcome run();

 private:
  struct SiteProc {
    int pid = -1;  ///< -1 in manual mode
    net::LineConn conn;
    std::uint16_t port = 0;
    std::uint32_t epoch = 0;  ///< highest epoch this id has presented
    bool up = false;
    std::uint64_t down_until = 0;  ///< respawn barrier while killed
    // Last barrier-done report.
    std::uint64_t fired = 0, applied = 0, pending = 0, inbox = 0;
    bool halted = false;
    // Cumulative counters from the last report (retired into stats_
    // when the incarnation dies, so totals survive kills).
    ClusterStats live;
    /// Lines read ahead of the reply currently being waited for.
    std::vector<std::string> backlog;
  };

  void spawn_site(unsigned id);
  void wait_for_join(unsigned id);        // accept hellos until id is up
  bool try_accept_joins(int timeout_ms);  // one accept/hello round
  void broadcast_peers();
  void kill_site(unsigned id, std::uint64_t down_cycles);
  void retire_counters(SiteProc& site);
  bool barrier_round(std::uint64_t cycle);  // false = a site died mid-round
  void reap_dead();                         // waitpid bookkeeping
  std::uint64_t collect_fingerprint(std::uint64_t* facts);
  void stop_sites();
  ClusterStats totals() const;

  const Program& program_;
  ClusterConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::vector<SiteProc> sites_;
  std::vector<net::LineConn> handshaking_;
  std::vector<bool> crash_done_;
  ClusterStats stats_;      ///< retired counters + driver-side events
  std::uint64_t cycle_ = 0;
  bool halted_ = false;
};

}  // namespace parulel
