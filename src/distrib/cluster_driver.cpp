#include "distrib/cluster_driver.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ostream>
#include <unordered_set>

#include "distrib/wire.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "wm/fact.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

void await_stops(std::span<StopWait> waits, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  // A pidfd turns "has the child exited?" into readability, so exits and
  // stop replies share one poll set. No pidfd, no wait: that child is
  // left for the caller's SIGKILL.
  std::vector<int> pidfds(waits.size(), -1);
  for (std::size_t i = 0; i < waits.size(); ++i) {
    if (waits[i].pid >= 0) {
      pidfds[i] = static_cast<int>(::syscall(SYS_pidfd_open, waits[i].pid, 0));
    }
  }
  std::vector<pollfd> pfds;
  std::vector<std::string> lines;
  for (;;) {
    pfds.clear();
    for (std::size_t i = 0; i < waits.size(); ++i) {
      StopWait& w = waits[i];
      if (w.conn && w.conn->valid()) {
        lines.clear();
        const bool alive = w.conn->read_lines(lines);
        const bool acked = std::any_of(
            lines.begin(), lines.end(),
            [](const std::string& l) { return starts_with(l, "ok cc-stop"); });
        if (acked || !alive) {
          w.conn->close();
        } else {
          pfds.push_back({w.conn->fd(), POLLIN, 0});
        }
      }
      if (pidfds[i] >= 0) {
        if (::waitpid(w.pid, nullptr, WNOHANG) > 0) {
          ::close(pidfds[i]);
          pidfds[i] = -1;
          w.pid = -1;
        } else {
          pfds.push_back({pidfds[i], POLLIN, 0});
        }
      }
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (pfds.empty() || left.count() <= 0) break;
    if (::poll(pfds.data(), pfds.size(), static_cast<int>(left.count())) <
            0 &&
        errno != EINTR) {
      break;
    }
  }
  for (const int fd : pidfds) {
    if (fd >= 0) ::close(fd);
  }
}

ClusterDriver::ClusterDriver(const Program& program, ClusterConfig config)
    : program_(program), cfg_(std::move(config)) {
  if (cfg_.sites == 0) cfg_.sites = 1;
  if (!cfg_.faults.crashes.empty() && cfg_.journal_dir.empty()) {
    throw RuntimeError(
        "cluster crash plans require --journal-dir: killing a site without "
        "a WAL would genuinely lose its partition");
  }
  for (const auto& crash : cfg_.faults.crashes) {
    if (crash.site >= cfg_.sites) {
      throw RuntimeError("fault plan crashes site " +
                         std::to_string(crash.site) + " but only " +
                         std::to_string(cfg_.sites) + " sites exist");
    }
  }
  if (cfg_.spawn && cfg_.site_bin.empty()) {
    throw RuntimeError("cluster spawn mode needs the parulel_site binary "
                       "(--cluster-bin or PARULEL_SITE_BIN)");
  }
  if (cfg_.spawn && cfg_.program_path.empty()) {
    throw RuntimeError("cluster spawn mode needs the program file path");
  }
  sites_.resize(cfg_.sites);
  crash_done_.assign(cfg_.faults.crashes.size(), false);
}

ClusterDriver::~ClusterDriver() {
  stop_sites();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void ClusterDriver::spawn_site(unsigned id) {
  std::vector<std::string> args;
  args.push_back(cfg_.site_bin);
  args.push_back("--program");
  args.push_back(cfg_.program_path);
  args.push_back("--site-id");
  args.push_back(std::to_string(id));
  args.push_back("--sites");
  args.push_back(std::to_string(cfg_.sites));
  args.push_back("--driver");
  args.push_back("127.0.0.1:" + std::to_string(listen_port_));
  if (!cfg_.journal_dir.empty()) {
    args.push_back("--journal");
    args.push_back(cfg_.journal_dir + "/site-" + std::to_string(id) + ".wal");
  }
  if (!cfg_.partition_spec.empty()) {
    args.push_back("--partition");
    args.push_back(cfg_.partition_spec);
  }
  if (!cfg_.fault_spec.empty()) {
    args.push_back("--fault-plan");
    args.push_back(cfg_.fault_spec);
  }
  args.push_back("--checkpoint-every");
  args.push_back(std::to_string(cfg_.checkpoint_every));
  if (!cfg_.fsync) args.push_back("--no-fsync");

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int pid = ::fork();
  if (pid < 0) {
    throw RuntimeError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the parent sees a join timeout
  }
  sites_[id].pid = pid;
  ++stats_.spawns;
  if (cfg_.log) {
    *cfg_.log << "cluster: spawned site " << id << " (pid " << pid << ")\n";
  }
}

bool ClusterDriver::try_accept_joins(int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& conn : handshaking_) {
    if (conn.valid()) pfds.push_back({conn.fd(), POLLIN, 0});
  }
  int rc;
  do {
    rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);

  for (;;) {
    const int fd = net::accept_conn(listen_fd_);
    if (fd < 0) break;
    handshaking_.emplace_back(fd);
  }

  bool joined = false;
  for (auto& conn : handshaking_) {
    if (!conn.valid()) continue;
    std::vector<std::string> lines;
    const bool alive = conn.read_lines(lines);
    if (lines.empty()) {
      if (!alive) conn.close();
      continue;
    }
    const std::string& hello = lines.front();
    if (!starts_with(hello, "cluster-hello parulel/2")) {
      conn.write_line("err protocol expected cluster-hello");
      conn.close();
      continue;
    }
    const std::uint64_t id = wire_field_u64(hello, "site", cfg_.sites);
    const auto epoch =
        static_cast<std::uint32_t>(wire_field_u64(hello, "epoch"));
    const auto port =
        static_cast<std::uint16_t>(wire_field_u64(hello, "port"));
    if (id >= cfg_.sites) {
      // A site id this cluster has no slot for: whoever it is, it is
      // not one of ours.
      conn.write_line("err site-unreachable");
      conn.close();
      continue;
    }
    SiteProc& site = sites_[id];
    if (epoch < site.epoch) {
      // Zombie fence: an older incarnation (stalled, then resumed after
      // its replacement joined) must not re-enter the run.
      conn.write_line("err epoch-stale");
      conn.close();
      continue;
    }
    conn.write_line("ok cluster-hello sites=" + std::to_string(cfg_.sites) +
                    " cycle=" + std::to_string(cycle_));
    site.conn = std::move(conn);
    site.port = port;
    site.epoch = epoch;
    site.up = true;
    site.backlog.clear();
    // Force at least one full barrier round before this site's report
    // can contribute to a quiescence verdict — a recovered site owes
    // its refires first.
    site.fired = 1;
    joined = true;
    if (cfg_.log) {
      *cfg_.log << "cluster: site " << id << " joined (epoch " << epoch
                << ", port " << port << ")\n";
    }
  }
  std::erase_if(handshaking_,
                [](const net::LineConn& c) { return !c.valid(); });
  return joined;
}

void ClusterDriver::wait_for_join(unsigned id) {
  Timer deadline;
  const std::uint64_t limit_ns =
      static_cast<std::uint64_t>(cfg_.join_timeout_s) * 1'000'000'000ull;
  while (!sites_[id].up) {
    try_accept_joins(100);
    if (cfg_.spawn && deadline.elapsed_ns() > limit_ns) {
      throw RuntimeError("site " + std::to_string(id) +
                         " did not join within " +
                         std::to_string(cfg_.join_timeout_s) + "s");
    }
  }
}

void ClusterDriver::broadcast_peers() {
  std::string line = "cluster-peers";
  for (unsigned s = 0; s < cfg_.sites; ++s) {
    line += " " + std::to_string(s) + "=127.0.0.1:" +
            std::to_string(sites_[s].port);
  }
  for (SiteProc& site : sites_) {
    if (site.up) site.conn.write_line(line);
  }
}

void ClusterDriver::retire_counters(SiteProc& site) {
  stats_.sent += site.live.sent;
  stats_.applied += site.live.applied;
  stats_.dup_suppressed += site.live.dup_suppressed;
  stats_.retries += site.live.retries;
  stats_.dropped += site.live.dropped;
  stats_.delayed += site.live.delayed;
  stats_.redials += site.live.redials;
  stats_.batches += site.live.batches;
  stats_.snapshots += site.live.snapshots;
  stats_.firings += site.live.firings;
  site.live = ClusterStats{};
}

ClusterStats ClusterDriver::totals() const {
  ClusterStats t = stats_;
  for (const SiteProc& site : sites_) {
    t.sent += site.live.sent;
    t.applied += site.live.applied;
    t.dup_suppressed += site.live.dup_suppressed;
    t.retries += site.live.retries;
    t.dropped += site.live.dropped;
    t.delayed += site.live.delayed;
    t.redials += site.live.redials;
    t.batches += site.live.batches;
    t.snapshots += site.live.snapshots;
    t.firings += site.live.firings;
  }
  return t;
}

void ClusterDriver::kill_site(unsigned id, std::uint64_t down_cycles) {
  SiteProc& site = sites_[id];
  if (!site.up || site.pid < 0) return;
  ::kill(site.pid, SIGKILL);
  ::waitpid(site.pid, nullptr, 0);
  if (cfg_.log) {
    *cfg_.log << "cluster: kill -9 site " << id << " at cycle " << cycle_
              << " (down " << down_cycles << ")\n";
  }
  site.pid = -1;
  site.up = false;
  site.conn.close();
  site.down_until = cycle_ + std::max<std::uint64_t>(1, down_cycles);
  retire_counters(site);
  ++stats_.kills;
}

void ClusterDriver::reap_dead() {
  for (unsigned s = 0; s < cfg_.sites; ++s) {
    SiteProc& site = sites_[s];
    if (!site.up) continue;
    bool dead = !site.conn.valid();
    if (!dead && site.pid >= 0) {
      dead = ::waitpid(site.pid, nullptr, WNOHANG) > 0;
      if (dead) site.pid = -1;
    }
    if (!dead) continue;
    // An unscheduled death (external kill -9, OOM, crash bug): treat it
    // like a planned kill with an immediate respawn appointment.
    if (site.pid >= 0) {
      ::waitpid(site.pid, nullptr, 0);
      site.pid = -1;
    }
    site.up = false;
    site.conn.close();
    site.down_until = cycle_ + 1;
    retire_counters(site);
    ++stats_.deaths;
    if (cfg_.log) {
      *cfg_.log << "cluster: site " << s << " died unexpectedly at cycle "
                << cycle_ << "\n";
    }
  }
}

bool ClusterDriver::barrier_round(std::uint64_t cycle) {
  bool all_answered = true;
  for (unsigned s = 0; s < cfg_.sites; ++s) {
    SiteProc& site = sites_[s];
    if (!site.up) continue;
    if (!site.conn.write_line("barrier " + std::to_string(cycle))) {
      site.up = false;
      all_answered = false;
    }
  }
  for (unsigned s = 0; s < cfg_.sites; ++s) {
    SiteProc& site = sites_[s];
    if (!site.up) continue;
    std::string reply;
    // Generous per-site deadline: a barrier is one local cycle plus a
    // few loopback writes; anything past this is a dead process.
    Timer deadline;
    bool got = false;
    while (deadline.elapsed_ns() < 60'000'000'000ull) {
      if (!site.backlog.empty()) {
        reply = std::move(site.backlog.front());
        site.backlog.erase(site.backlog.begin());
        if (!starts_with(reply, "barrier-done")) continue;
        got = true;
        break;
      }
      std::vector<std::string> lines;
      const bool alive = site.conn.read_lines(lines);
      site.backlog.insert(site.backlog.end(),
                          std::make_move_iterator(lines.begin()),
                          std::make_move_iterator(lines.end()));
      if (!site.backlog.empty()) continue;
      if (!alive) break;
      pollfd pfd{site.conn.fd(), POLLIN, 0};
      ::poll(&pfd, 1, 100);
    }
    if (!got) {
      site.up = false;
      all_answered = false;
      continue;
    }
    site.fired = wire_field_u64(reply, "fired");
    site.applied = wire_field_u64(reply, "applied");
    site.pending = wire_field_u64(reply, "pending");
    site.inbox = wire_field_u64(reply, "inbox");
    site.halted = wire_field_u64(reply, "halted") != 0;
    site.live.sent = wire_field_u64(reply, "sent");
    site.live.applied = wire_field_u64(reply, "applied-total");
    site.live.dup_suppressed = wire_field_u64(reply, "dup");
    site.live.retries = wire_field_u64(reply, "retries");
    site.live.dropped = wire_field_u64(reply, "dropped");
    site.live.delayed = wire_field_u64(reply, "delayed");
    site.live.redials = wire_field_u64(reply, "redials");
    site.live.batches = wire_field_u64(reply, "batches");
    site.live.snapshots = wire_field_u64(reply, "snapshots");
    site.live.firings = wire_field_u64(reply, "firings");
    if (site.halted) halted_ = true;
  }
  ++stats_.barriers;
  return all_answered;
}

ClusterOutcome ClusterDriver::run() {
  // One clock, lapped at each phase boundary: the four phases sum to
  // run()'s wall time exactly.
  LapTimer clock;
  std::string error;
  listen_fd_ = net::listen_tcp(cfg_.port, &listen_port_, &error);
  if (listen_fd_ < 0) throw RuntimeError("cluster driver: " + error);
  if (cfg_.log) {
    *cfg_.log << "cluster: driver listening on 127.0.0.1:" << listen_port_
              << " (" << cfg_.sites << " sites, "
              << (cfg_.spawn ? "spawning" : "manual") << ")\n";
  }

  if (cfg_.spawn) {
    for (unsigned s = 0; s < cfg_.sites; ++s) spawn_site(s);
  }
  for (unsigned s = 0; s < cfg_.sites; ++s) wait_for_join(s);
  broadcast_peers();
  clock.lap(stats_.join_ns);

  ClusterOutcome outcome;
  for (cycle_ = 0; cycle_ < cfg_.max_cycles; ++cycle_) {
    // Scheduled kills land at the barrier boundary — a real SIGKILL
    // between two cycles, which is exactly "kill -9 at a batch
    // boundary".
    for (std::size_t i = 0; i < cfg_.faults.crashes.size(); ++i) {
      const FaultPlan::Crash& crash = cfg_.faults.crashes[i];
      if (crash_done_[i] || crash.at_cycle != cycle_) continue;
      crash_done_[i] = true;
      kill_site(crash.site, crash.down_cycles);
    }
    reap_dead();
    // Keep servicing the control listener in steady state: zombie
    // incarnations redialing mid-run must be fenced (`err epoch-stale`)
    // rather than left hanging until some site goes down.
    try_accept_joins(0);
    // Respawn appointments falling due (and, in manual mode, wait for
    // the operator's restarted site to dial back in).
    bool rejoined = false;
    for (unsigned s = 0; s < cfg_.sites; ++s) {
      SiteProc& site = sites_[s];
      if (site.up || cycle_ < site.down_until) continue;
      if (cfg_.spawn) spawn_site(s);
      wait_for_join(s);
      ++stats_.restores;
      rejoined = true;
    }
    if (rejoined) broadcast_peers();

    if (!barrier_round(cycle_)) {
      // Someone died mid-round; survivors carry on, the dead rejoin
      // next cycle via reap_dead + the respawn path above.
      continue;
    }
    if (halted_) break;

    bool quiescent = true;
    for (const SiteProc& site : sites_) {
      if (!site.up || site.fired || site.applied || site.pending ||
          site.inbox) {
        quiescent = false;
        break;
      }
    }
    if (quiescent) {
      outcome.quiescent = true;
      break;
    }
  }

  clock.lap(stats_.barrier_ns);

  outcome.halted = halted_;
  outcome.cycles = stats_.barriers;
  outcome.fingerprint = collect_fingerprint(&outcome.facts);
  clock.lap(stats_.dump_ns);
  stop_sites();
  for (SiteProc& site : sites_) retire_counters(site);
  clock.lap(stats_.stop_ns);
  outcome.stats = totals();
  return outcome;
}

std::uint64_t ClusterDriver::collect_fingerprint(std::uint64_t* facts) {
  // Canonical wire bytes double as the dedup key: two sites holding the
  // same replicated fact dump byte-identical tokens. Decode each
  // distinct token and fold its content hash exactly the way
  // DistributedEngine::global_fingerprint() does.
  //
  // Every site is asked first and all replies are read in one poll
  // loop, so no site sits blocked on a full socket while the driver
  // drains another.
  struct Reply {
    bool waiting = false;
    bool head = false;  ///< `ok cc-dump` seen
    std::uint64_t want = 0, got = 0;
  };
  std::vector<Reply> replies(cfg_.sites);
  for (unsigned s = 0; s < cfg_.sites; ++s) {
    SiteProc& site = sites_[s];
    replies[s].waiting = site.up && site.conn.write_line("cc-dump");
  }
  std::unordered_set<std::string> seen;
  std::vector<pollfd> pfds;
  std::vector<std::string> lines;
  Timer deadline;
  while (deadline.elapsed_ns() < 30'000'000'000ull) {
    pfds.clear();
    for (unsigned s = 0; s < cfg_.sites; ++s) {
      Reply& r = replies[s];
      if (!r.waiting) continue;
      net::LineConn& conn = sites_[s].conn;
      lines.clear();
      const bool alive = conn.read_lines(lines);
      for (std::string& line : lines) {
        if (!r.head) {
          if (starts_with(line, "ok cc-dump")) {
            r.want = wire_field_u64(line, "n");
            r.head = true;
          }
        } else if (starts_with(line, "fact ")) {
          line.erase(0, 5);
          seen.insert(std::move(line));
          ++r.got;
        }
      }
      r.waiting = alive && !(r.head && r.got >= r.want);
      if (r.waiting) pfds.push_back({conn.fd(), POLLIN, 0});
    }
    if (pfds.empty()) break;
    ::poll(pfds.data(), pfds.size(), 100);
  }
  std::uint64_t fp = WorkingMemory::kFingerprintSeed;
  for (const std::string& hex : seen) {
    auto [tmpl, slots] =
        decode_fact_wire(from_hex(hex), *program_.symbols, program_.schema);
    fp ^= fingerprint_mix(fact_content_hash(tmpl, slots));
  }
  if (facts) *facts = seen.size();
  return fp;
}

void ClusterDriver::stop_sites() {
  std::vector<StopWait> waits(sites_.size());
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteProc& site = sites_[s];
    if (site.up && site.conn.write_line("cc-stop")) {
      waits[s].conn = &site.conn;
    }
    waits[s].pid = site.pid;
  }
  // A stop-refusing child would wedge the driver; bounded patience,
  // then SIGKILL.
  await_stops(waits, 2000);
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    SiteProc& site = sites_[s];
    if (waits[s].pid >= 0) {
      ::kill(waits[s].pid, SIGKILL);
      ::waitpid(waits[s].pid, nullptr, 0);
    }
    site.pid = -1;
    site.conn.close();
    site.up = false;
  }
}

}  // namespace parulel
