// Multi-process cluster tests: real-socket sites, partitioned durable
// state, and the headline convergence invariant.
//
// The claim under test (the tentpole): for any eventually-delivering
// fault plan PLUS kill -9 of any site at any barrier boundary, a 3-site
// process cluster reproduces the fault-free single-process
// DistributedEngine::global_fingerprint() bit for bit. The chaos sweep
// below runs it across seeds x fault plans x kill boundaries, with each
// killed site recovering from its WAL and rejoining under a bumped
// epoch. Alongside: wire codec round-trips, site WAL recovery, the
// protocol's error rows (`err site-unreachable`, `err epoch-stale`),
// and driver config refusals.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "distrib/cluster_driver.hpp"
#include "distrib/dist_engine.hpp"
#include "distrib/site_journal.hpp"
#include "distrib/wire.hpp"
#include "lang/parser.hpp"
#include "net/cluster.hpp"
#include "service/journal.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "wm/fact.hpp"
#include "workloads/workloads.hpp"

#ifndef PARULEL_SITE_BIN
#error "PARULEL_SITE_BIN must point at the parulel_site binary"
#endif

namespace parulel {
namespace {

namespace fs = std::filesystem;

/// A throwaway directory, removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    char buf[] = "/tmp/parulel_cluster_XXXXXX";
    path = ::mkdtemp(buf);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string write_program(const TempDir& dir, const std::string& source) {
  const fs::path p = dir.path / "program.clp";
  std::ofstream out(p);
  out << source;
  return p.string();
}

/// Fault-free single-process reference: the fingerprint every chaos run
/// must reproduce.
std::uint64_t reference_fingerprint(const workloads::Workload& wl,
                                    unsigned sites) {
  const Program program = parse_program(wl.source);
  DistConfig cfg;
  cfg.sites = sites;
  cfg.max_cycles = 10'000;
  PartitionScheme scheme(program, wl.partition);
  DistributedEngine engine(program, std::move(scheme), cfg);
  engine.assert_initial_facts();
  engine.run();
  return engine.global_fingerprint();
}

std::string partition_spec_of(const workloads::Workload& wl) {
  std::string spec;
  for (const auto& [tmpl, slot] : wl.partition) {
    if (!spec.empty()) spec += ",";
    spec += tmpl + "=" + slot;
  }
  return spec;
}

/// One driver run; `run_ns` (nullable) receives run()'s wall time as the
/// caller sees it.
ClusterOutcome run_cluster(const workloads::Workload& wl, unsigned sites,
                           const std::string& fault_spec,
                           const TempDir& dir, bool journal,
                           std::uint64_t* run_ns = nullptr) {
  const Program program = parse_program(wl.source);
  ClusterConfig cfg;
  cfg.sites = sites;
  cfg.program_path = write_program(dir, wl.source);
  cfg.site_bin = PARULEL_SITE_BIN;
  if (journal) {
    const fs::path wal_dir = dir.path / "wal";
    fs::create_directories(wal_dir);
    cfg.journal_dir = wal_dir.string();
  }
  cfg.partition_spec = partition_spec_of(wl);
  cfg.fault_spec = fault_spec;
  if (!fault_spec.empty()) cfg.faults = FaultPlan::parse(fault_spec);
  cfg.max_cycles = 10'000;
  cfg.checkpoint_every = 4;  // small, so sweeps exercise snapshot rewrites
  cfg.fsync = false;         // durability ordering still holds; CI speed
  ClusterDriver driver(program, cfg);
  Timer wall;
  ClusterOutcome out = driver.run();
  if (run_ns) *run_ns = wall.elapsed_ns();
  return out;
}

/// The driver's phases are laps of one clock inside run(): each is
/// nonzero, and together they fill run()'s wall time as measured around
/// the call, up to the call's own overhead.
void expect_phases_fill_run(const ClusterStats& s, std::uint64_t run_ns,
                            const std::string& what) {
  EXPECT_GT(s.join_ns, 0u) << what;
  EXPECT_GT(s.barrier_ns, 0u) << what;
  EXPECT_GT(s.dump_ns, 0u) << what;
  EXPECT_GT(s.stop_ns, 0u) << what;
  const std::uint64_t sum = s.join_ns + s.barrier_ns + s.dump_ns + s.stop_ns;
  EXPECT_LE(sum, run_ns) << what;
  EXPECT_LT(run_ns - std::min(sum, run_ns), 10'000'000u)
      << what << ": phases sum to " << sum << " ns of a " << run_ns
      << " ns run";
}

// ---------------------------------------------------------------------
// Wire codec

TEST(ClusterWire, FactRoundTrip) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  const auto& fact = program.initial_facts.front();

  const std::string bytes = encode_fact_wire(fact.tmpl, fact.slots,
                                             *program.symbols, program.schema);
  const std::string hex = to_hex(bytes);
  EXPECT_EQ(from_hex(hex), bytes);

  auto [tmpl, slots] = decode_fact_wire(bytes, *program.symbols,
                                        program.schema);
  EXPECT_EQ(tmpl, fact.tmpl);
  EXPECT_EQ(fact_content_hash(tmpl, slots),
            fact_content_hash(fact.tmpl, fact.slots));
}

TEST(ClusterWire, OpRoundTripAndFieldParsing) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  const auto& fact = program.initial_facts.front();

  ClusterOp op{ClusterOp::Kind::Retract, fact.tmpl,
               {fact.slots.begin(), fact.slots.end()}};
  const std::string hex = encode_op_hex(op, *program.symbols, program.schema);
  const ClusterOp back = decode_op_hex(hex, *program.symbols, program.schema);
  EXPECT_EQ(back.kind, ClusterOp::Kind::Retract);
  EXPECT_EQ(back.tmpl, op.tmpl);
  EXPECT_EQ(fact_content_hash(back.tmpl, back.slots),
            fact_content_hash(op.tmpl, op.slots));

  const std::string line = "cc-batch from=2 epoch=7 seq=41 kind=assert";
  EXPECT_EQ(wire_field_u64(line, "from", 99), 2u);
  EXPECT_EQ(wire_field_u64(line, "epoch", 99), 7u);
  EXPECT_EQ(wire_field_u64(line, "seq", 99), 41u);
  EXPECT_EQ(wire_field_u64(line, "nope", 99), 99u);
  EXPECT_EQ(wire_field_str(line, "kind"), "assert");
}

TEST(ClusterWire, DecodeRejectsGarbage) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  EXPECT_THROW(decode_fact_wire("not a wire fact", *program.symbols,
                                program.schema),
               RuntimeError);
  EXPECT_THROW(from_hex("abc"), RuntimeError);   // odd length
  EXPECT_THROW(from_hex("zz"), RuntimeError);    // non-hex
}

// Hostile bytes: every truncation, every single-bit flip and every
// 4-byte field set to 0xffffffff (which covers both length fields) of
// each tc fact's encoded op. Each input must fail closed with a
// RuntimeError, or decode to an op that re-encodes to exactly the input.
// A length lie must be rejected before it sizes the slot vector.
TEST(ClusterWire, HostileOpBytesFailClosed) {
  std::size_t inputs = 0, rejected = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto wl = workloads::make_tc(5, 8, seed);
    const Program program = parse_program(wl.source);
    SymbolTable& symbols = *program.symbols;
    auto check = [&](const std::string& bytes) {
      ++inputs;
      try {
        const ClusterOp op = decode_op_wire(bytes, symbols, program.schema);
        EXPECT_EQ(encode_op_wire(op, symbols, program.schema), bytes);
      } catch (const RuntimeError&) {
        ++rejected;
      }
    };
    for (const auto& fact : program.initial_facts) {
      for (const auto kind :
           {ClusterOp::Kind::Assert, ClusterOp::Kind::Retract}) {
        const std::string bytes = encode_op_wire(
            {kind, fact.tmpl, {fact.slots.begin(), fact.slots.end()}},
            symbols, program.schema);
        for (std::size_t n = 0; n < bytes.size(); ++n) {
          check(bytes.substr(0, n));
        }
        for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
          std::string flipped = bytes;
          flipped[bit / 8] =
              static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
          check(flipped);
        }
        for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
          std::string lie = bytes;
          lie.replace(at, 4, 4, '\xff');
          check(lie);
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, inputs);
}

// ---------------------------------------------------------------------
// Site WAL

TEST(SiteJournal, BatchAndSnapshotRoundTripThroughRecovery) {
  const auto wl = workloads::make_tc(5, 8, 3);
  const Program program = parse_program(wl.source);
  TempDir dir;
  const std::string path = (dir.path / "site-0.wal").string();

  {
    auto journal = service::SessionJournal::create(path, "site-0", wl.source,
                                                   /*fsync=*/false, nullptr);
    SiteBatchRecord rec;
    rec.seq = 1;
    rec.epoch = 1;
    rec.cycle = 0;
    for (const auto& fact : program.initial_facts) {
      rec.local.push_back({ClusterOp::Kind::Assert, fact.tmpl, fact.slots});
    }
    // One peer message in the same batch: dedup state must survive too.
    SiteAppliedMsg msg;
    msg.from = 1;
    msg.epoch = 2;
    msg.seq = 5;
    msg.op = rec.local.front();
    msg.op.kind = ClusterOp::Kind::Assert;
    rec.applied.push_back(msg);
    journal->append(encode_site_batch(rec, *program.symbols, program.schema));
  }

  SiteRecovery rec = recover_site_wal(path, program, wl.source, 3);
  ASSERT_NE(rec.wm, nullptr);
  // The fence covers the site's OWN stream: record epoch 1 -> next is
  // 2. Peer message epochs (the applied msg carries epoch 2) are dedup
  // keys, not incarnation evidence.
  EXPECT_EQ(rec.next_epoch, 2u);
  EXPECT_EQ(rec.last_seq, 1u);
  EXPECT_GE(rec.wm->alive_count(), program.initial_facts.size());
  ASSERT_EQ(rec.recv.size(), 3u);
  // The replayed dedup state suppresses a redelivery of (1, e2, s5).
  EXPECT_TRUE(rec.recv[1].by_epoch.at(2).contains(5));
}

TEST(SiteJournal, RejectsProgramMismatchAndSeqGaps) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  TempDir dir;
  const std::string path = (dir.path / "site-0.wal").string();
  {
    auto journal = service::SessionJournal::create(path, "site-0", wl.source,
                                                   /*fsync=*/false, nullptr);
    SiteBatchRecord rec;
    rec.seq = 2;  // gap: recovery expects 1
    rec.epoch = 1;
    rec.cycle = 1;
    journal->append(encode_site_batch(rec, *program.symbols, program.schema));
  }
  EXPECT_THROW(recover_site_wal(path, program, "other program", 2),
               service::JournalError);
  EXPECT_THROW(recover_site_wal(path, program, wl.source, 2),
               service::JournalError);
}

// ---------------------------------------------------------------------
// Driver config refusals

TEST(ClusterDriverConfig, RefusesCrashPlanWithoutJournalDir) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  ClusterConfig cfg;
  cfg.sites = 3;
  cfg.site_bin = PARULEL_SITE_BIN;
  cfg.program_path = "/dev/null";
  cfg.faults = FaultPlan::parse("seed=1,crash=1@2+2");
  EXPECT_THROW(ClusterDriver(program, cfg), RuntimeError);
}

TEST(ClusterDriverConfig, RefusesSpawnWithoutBinary) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  ClusterConfig cfg;
  cfg.sites = 2;
  cfg.spawn = true;  // but no site_bin
  EXPECT_THROW(ClusterDriver(program, cfg), RuntimeError);
}

// ---------------------------------------------------------------------
// Line IO over a socketpair

/// Both ends of a connected stream socketpair as LineConns.
std::pair<net::LineConn, net::LineConn> conn_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  return {net::LineConn(fds[0]), net::LineConn(fds[1])};
}

/// Poll `conn` and collect lines until `want` arrived, EOF, or ~5 s.
bool read_until(net::LineConn& conn, std::vector<std::string>& lines,
                std::size_t want) {
  bool alive = true;
  for (int tries = 0; tries < 100 && alive && lines.size() < want; ++tries) {
    pollfd pfd{conn.fd(), POLLIN, 0};
    ::poll(&pfd, 1, 50);
    alive = conn.read_lines(lines);
  }
  return alive;
}

TEST(ClusterLineConn, LineSplitAcrossTwoReads) {
  auto [a, b] = conn_pair();
  ASSERT_TRUE(a.write_all("barrier-do"));
  pollfd pfd{b.fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
  std::vector<std::string> lines;
  EXPECT_TRUE(b.read_lines(lines));
  EXPECT_TRUE(lines.empty());  // the fragment stays buffered
  ASSERT_TRUE(a.write_all("ne cycle=3\nok"));
  EXPECT_TRUE(read_until(b, lines, 1));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "barrier-done cycle=3");
  ASSERT_TRUE(a.write_line(" cc-stop"));
  EXPECT_TRUE(read_until(b, lines, 2));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "ok cc-stop");
}

TEST(ClusterLineConn, ManyLinesInOneRead) {
  auto [a, b] = conn_pair();
  std::string burst;
  for (int i = 0; i < 200; ++i) burst += "fact " + std::to_string(i) + "\n";
  burst += "\n";  // an empty line is still a line
  ASSERT_TRUE(a.write_all(burst));
  std::vector<std::string> lines;
  EXPECT_TRUE(read_until(b, lines, 201));
  ASSERT_EQ(lines.size(), 201u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(lines[i], "fact " + std::to_string(i));
  }
  EXPECT_EQ(lines[200], "");
}

TEST(ClusterLineConn, MebibyteOfLinesArrivesCompleteAndInOrder) {
  auto [a, b] = conn_pair();
  std::string burst;
  std::size_t n = 0;
  while (burst.size() < (1u << 20)) {
    burst += "fact " + std::to_string(n++) + " 0123456789abcdef\n";
  }
  // The burst overflows the socket buffer: write_all must wait for the
  // reader to drain, so it writes from its own thread.
  bool wrote = false;
  std::thread writer([&] { wrote = a.write_all(burst); });
  std::vector<std::string> lines;
  const bool alive = read_until(b, lines, n);
  writer.join();
  EXPECT_TRUE(wrote);
  EXPECT_TRUE(alive);
  ASSERT_EQ(lines.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(lines[i], "fact " + std::to_string(i) + " 0123456789abcdef");
  }
}

TEST(ClusterLineConn, EofAfterPartialLineDropsTheFragment) {
  auto [a, b] = conn_pair();
  ASSERT_TRUE(a.write_all("one\ntwo\nthr"));
  a.close();
  std::vector<std::string> lines;
  EXPECT_FALSE(read_until(b, lines, 3));
  EXPECT_EQ(lines, (std::vector<std::string>{"one", "two"}));
  EXPECT_FALSE(b.valid());
}

// ---------------------------------------------------------------------
// Bounded reaping of stopped children

/// A forked child that sleeps `ms` then exits 0. The guard SIGKILLs and
/// reaps it if a test leaves it behind.
struct Child {
  int pid = -1;
  explicit Child(int ms) {
    pid = ::fork();
    if (pid == 0) {
      if (ms > 0) ::usleep(static_cast<useconds_t>(ms) * 1000);
      ::_exit(0);
    }
  }
  ~Child() {
    if (pid > 0 && ::waitpid(pid, nullptr, WNOHANG) == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

TEST(ClusterStop, ExitingChildIsReapedWellInsideTheDeadline) {
  Child child(0);
  ASSERT_GT(child.pid, 0);
  StopWait wait{nullptr, child.pid};
  Timer t;
  await_stops(std::span(&wait, 1), 2000);
  EXPECT_EQ(wait.pid, -1);
  EXPECT_LT(t.elapsed_ns(), 1'000'000'000u);
  // Reaped: the pid is no longer our child.
  EXPECT_EQ(::waitpid(child.pid, nullptr, WNOHANG), -1);
  child.pid = -1;
}

TEST(ClusterStop, ChildPastTheDeadlineIsLeftForSigkill) {
  Child child(30'000);
  ASSERT_GT(child.pid, 0);
  // Its stop conn never answers either.
  auto [driver_end, site_end] = conn_pair();
  StopWait wait{&driver_end, child.pid};
  Timer t;
  await_stops(std::span(&wait, 1), 100);
  const std::uint64_t waited = t.elapsed_ns();
  EXPECT_GE(waited, 100'000'000u);
  EXPECT_LT(waited, 1'000'000'000u);
  ASSERT_EQ(wait.pid, child.pid);  // not exited: the caller escalates
  EXPECT_TRUE(driver_end.valid());
  ASSERT_EQ(::kill(wait.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(wait.pid, &status, 0), child.pid);
  EXPECT_TRUE(WIFSIGNALED(status));
  child.pid = -1;
}

TEST(ClusterStop, StopReplyOrEofEndsTheConnWait) {
  auto [d1, s1] = conn_pair();
  auto [d2, s2] = conn_pair();
  ASSERT_TRUE(s1.write_line("ok cc-stop"));
  s2.close();
  StopWait waits[2] = {{&d1, -1}, {&d2, -1}};
  Timer t;
  await_stops(waits, 2000);
  EXPECT_LT(t.elapsed_ns(), 1'000'000'000u);
  EXPECT_FALSE(d1.valid());
  EXPECT_FALSE(d2.valid());
}

// ---------------------------------------------------------------------
// Protocol error rows, exercised against a real driver in manual mode

TEST(ClusterProtocol, StrayAndZombieHellosAreFenced) {
  const auto wl = workloads::make_tc(4, 6, 1);
  const Program program = parse_program(wl.source);
  const auto& fact = program.initial_facts.front();
  const std::string fact_hex = to_hex(encode_fact_wire(
      fact.tmpl, fact.slots, *program.symbols, program.schema));
  const std::uint64_t expect_fp =
      0x5bd1e995u ^ fingerprint_mix(fact_content_hash(fact.tmpl, fact.slots));

  // Pick a free port, then hand it to the driver (tiny reuse race,
  // acceptable in tests).
  std::uint16_t port = 0;
  {
    std::string err;
    const int fd = net::listen_tcp(0, &port, &err);
    ASSERT_GE(fd, 0) << err;
    ::close(fd);
  }

  ClusterConfig cfg;
  cfg.sites = 2;
  cfg.spawn = false;  // manual deployment: we play the sites
  cfg.port = port;
  cfg.max_cycles = 100;
  cfg.log = &std::cerr;
  ClusterOutcome outcome;
  std::thread driver_thread([&] {
    ClusterDriver driver(program, cfg);
    outcome = driver.run();
  });

  auto dial = [&]() {
    std::string err;
    int fd = -1;
    for (int tries = 0; tries < 100 && fd < 0; ++tries) {
      fd = net::dial_tcp("127.0.0.1", port, &err, 1000);
      if (fd < 0) ::usleep(20'000);
    }
    EXPECT_GE(fd, 0) << err;
    return net::LineConn(fd);
  };
  auto read_one = [](net::LineConn& conn) {
    std::vector<std::string> lines;
    for (int tries = 0; tries < 200 && lines.empty(); ++tries) {
      if (!conn.read_lines(lines) && lines.empty()) break;
      if (lines.empty()) {
        pollfd pfd{conn.fd(), POLLIN, 0};
        ::poll(&pfd, 1, 50);
      }
    }
    return lines;
  };

  // A site id outside the cluster is turned away.
  {
    net::LineConn stray = dial();
    stray.write_line("cluster-hello parulel/2 site=9 epoch=1 port=1");
    const auto lines = read_one(stray);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.front(), "err site-unreachable");
  }

  // Site 0 joins at epoch 7; a zombie incarnation presenting epoch 6
  // afterwards is fenced.
  // Lines that arrive bundled with the hello reply (cluster-peers, an
  // early barrier) must reach the serve loops below, not be dropped.
  std::vector<std::string> spill0, spill1;

  net::LineConn site0 = dial();
  site0.write_line("cluster-hello parulel/2 site=0 epoch=7 port=1000");
  {
    auto lines = read_one(site0);
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(lines.front().rfind("ok cluster-hello", 0) == 0)
        << lines.front();
    EXPECT_EQ(wire_field_u64(lines.front(), "sites"), 2u);
    spill0.assign(std::make_move_iterator(lines.begin() + 1),
                  std::make_move_iterator(lines.end()));
  }
  {
    net::LineConn zombie = dial();
    zombie.write_line("cluster-hello parulel/2 site=0 epoch=6 port=1001");
    const auto lines = read_one(zombie);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines.front(), "err epoch-stale");
  }

  net::LineConn site1 = dial();
  site1.write_line("cluster-hello parulel/2 site=1 epoch=1 port=1001");
  {
    auto lines = read_one(site1);
    ASSERT_FALSE(lines.empty());
    EXPECT_TRUE(lines.front().rfind("ok cluster-hello", 0) == 0);
    spill1.assign(std::make_move_iterator(lines.begin() + 1),
                  std::make_move_iterator(lines.end()));
  }

  // Both fake sites now serve the driver's barrier loop: always-zero
  // reports make round 1 quiescent (round 0 can't be: joins force one
  // extra round); then answer cc-dump with one SHARED fact each — the
  // driver must dedup replicated contents, not double-count them.
  auto serve = [&](net::LineConn& conn, std::vector<std::string> lines) {
    bool running = true;
    bool alive = true;
    while (running) {
      for (const std::string& line : lines) {
        if (line.rfind("barrier ", 0) == 0) {
          const std::string cycle = line.substr(8);
          conn.write_line(
              "barrier-done cycle=" + cycle +
              " fired=0 applied=0 pending=0 inbox=0 halted=0 facts=1"
              " sent=0 applied-total=0 dup=0 retries=0 dropped=0 delayed=0"
              " redials=0 batches=0 snapshots=0 firings=0");
        } else if (line.rfind("cc-dump", 0) == 0) {
          conn.write_line("ok cc-dump n=1 fingerprint=0");
          conn.write_line("fact " + fact_hex);
        } else if (line.rfind("cc-stop", 0) == 0) {
          conn.write_line("ok cc-stop");
          running = false;
        }
      }
      if (!alive || !running) break;
      {
        pollfd pfd{conn.fd(), POLLIN, 0};
        ::poll(&pfd, 1, 50);
      }
      lines.clear();
      alive = conn.read_lines(lines);
    }
  };
  std::thread t0([&] { serve(site0, std::move(spill0)); });
  std::thread t1([&] { serve(site1, std::move(spill1)); });
  driver_thread.join();
  t0.join();
  t1.join();

  EXPECT_TRUE(outcome.quiescent);
  EXPECT_EQ(outcome.facts, 1u);  // the shared fact counted once
  EXPECT_EQ(outcome.fingerprint, expect_fp);
}

// ---------------------------------------------------------------------
// The headline invariant

TEST(ClusterConvergence, FaultFreeMatchesSimulatedEngine) {
  const auto wl = workloads::make_tc(10, 18, 5);
  const std::uint64_t want = reference_fingerprint(wl, 3);
  TempDir dir;
  std::uint64_t run_ns = 0;
  const ClusterOutcome out =
      run_cluster(wl, 3, "", dir, /*journal=*/false, &run_ns);
  EXPECT_TRUE(out.quiescent);
  EXPECT_EQ(out.fingerprint, want);
  EXPECT_EQ(out.stats.dropped, 0u);
  EXPECT_EQ(out.stats.retries, 0u);
  // First dials to each peer are start-up, not reconnects.
  EXPECT_EQ(out.stats.redials, 0u);
  expect_phases_fill_run(out.stats, run_ns, "fault-free");
  // Sites exit right after `ok cc-stop` and the driver wakes on each
  // exit: well under the 20 ms that one sleep between exit polls cost.
  // (Typically ~1 ms; the bound leaves room for a loaded host.)
  EXPECT_LT(out.stats.stop_ns, 15'000'000u);
}

TEST(ClusterConvergence, SingleSiteDegenerateCluster) {
  const auto wl = workloads::make_tc(8, 14, 2);
  const std::uint64_t want = reference_fingerprint(wl, 1);
  TempDir dir;
  const ClusterOutcome out = run_cluster(wl, 1, "", dir, /*journal=*/true);
  EXPECT_TRUE(out.quiescent);
  EXPECT_EQ(out.fingerprint, want);
  EXPECT_EQ(out.stats.sent, 0u);  // one site: nothing to ship
}

// The acceptance sweep: >=8 seeds x >=3 fault plans x kill -9 at >=2
// distinct barrier boundaries (cycles 1 and 3; the third plan kills at
// BOTH, plus a second site). Every run must land on the fault-free
// fingerprint exactly.
TEST(ClusterConvergence, ChaosSweepKillNineAtBatchBoundaries) {
  const auto wl = workloads::make_tc(10, 18, 5);
  const std::uint64_t want = reference_fingerprint(wl, 3);

  const std::string plans[] = {
      "loss=0.15,dup=0.05,crash=1@1+2",             // kill site 1 at cycle 1
      "loss=0.2,delay=0.15,maxdelay=2,crash=2@3+2",  // kill site 2 at cycle 3
      "dup=0.1,delay=0.2,maxdelay=3,crash=0@1+1,crash=1@3+2",  // two kills
  };
  std::uint64_t redials = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const std::string& plan : plans) {
      const std::string spec = plan + ",seed=" + std::to_string(seed);
      TempDir dir;
      std::uint64_t run_ns = 0;
      const ClusterOutcome out =
          run_cluster(wl, 3, spec, dir, /*journal=*/true, &run_ns);
      expect_phases_fill_run(out.stats, run_ns, spec);
      redials += out.stats.redials;
      EXPECT_TRUE(out.quiescent) << spec;
      EXPECT_EQ(out.fingerprint, want)
          << "diverged under " << spec << ": kills=" << out.stats.kills
          << " restores=" << out.stats.restores
          << " retries=" << out.stats.retries;
      EXPECT_GE(out.stats.kills, 1u) << spec;
      EXPECT_EQ(out.stats.kills, out.stats.restores) << spec;
    }
  }
  // Survivors reconnect to every respawned site.
  EXPECT_GT(redials, 0u);
}

}  // namespace
}  // namespace parulel
