// TCP front-end tests: protocol robustness and stdin/TCP equivalence.
//
// Two gates. The robustness half throws hostile inputs at a live
// NetServer — malformed frames, partial writes, oversized lines,
// mid-request disconnects, interleaved pipelined clients, connection
// caps, idle timeouts — and requires structured `err` responses and a
// healthy server afterwards, never a crash or cross-client corruption.
//
// The equivalence half is the contract that makes the TCP front-end
// trustworthy: the same command script fed through the stdin serve()
// loop and through a TCP connection must produce byte-identical
// response streams, because both wrap the same ServeProtocol over a
// synchronous service. Swept over the orderbook and monitor example
// programs (paths resolved via the PARULEL_SOURCE_DIR compile
// definition).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <filesystem>
#include <memory>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/net_server.hpp"
#include "net/retry_client.hpp"
#include "service/protocol.hpp"
#include "service/serve.hpp"
#include "support/error.hpp"

namespace parulel::net {
namespace {

constexpr const char* kCopySource = R"((deftemplate item (slot id))
(deftemplate seen (slot id))
(defrule copy
  (item (id ?i))
  (not (seen (id ?i)))
  =>
  (assert (seen (id ?i))))
)";

/// Poll `pred` for up to `ms` milliseconds.
bool eventually(std::uint64_t ms, const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::string write_temp_program() {
  const std::string path = "/tmp/parulel_test_net.clp";
  std::ofstream out(path);
  out << kCopySource;
  return path;
}

/// A NetServer on an ephemeral port with its run() loop on a thread.
struct ServerFixture {
  explicit ServerFixture(NetServerConfig cfg = {}) : server(std::move(cfg)) {
    start_ok = server.start();
    EXPECT_TRUE(start_ok) << server.error();
    if (start_ok) {
      thread = std::thread([this] { server.run(); });
    }
  }
  ~ServerFixture() {
    if (start_ok) {
      server.stop();
      thread.join();
    }
  }
  NetServer server;
  std::thread thread;
  bool start_ok = false;
};

/// A deliberately low-level client for sending hostile byte sequences
/// the well-behaved NetClient cannot produce.
struct RawClient {
  int fd = -1;

  ~RawClient() { close(); }

  bool connect(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    timeval tv{5, 0};  // every recv in these tests is bounded
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool send(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Read until `lines` newline-terminated lines arrived (or timeout /
  /// EOF); returns everything read.
  std::string recv_lines(std::size_t lines) {
    std::string out;
    std::size_t seen = 0;
    char buf[4096];
    while (seen < lines) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] == '\n') ++seen;
      }
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Read until the server closes the connection (or timeout).
  std::string recv_all() {
    std::string out;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  void close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

// ------------------------------------------------------------ handshake

TEST(NetHello, VersionNegotiation) {
  ServerFixture fx;
  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));
  // Bare hello gets the current revision; an explicit version is echoed
  // back (a parulel/1 client keeps seeing parulel/1); unknown versions
  // are refused with the full menu.
  ASSERT_TRUE(c.send("hello\nhello parulel/1\nhello parulel/2\n"
                     "hello parulel/99\n"));
  const std::string out = c.recv_lines(4);
  EXPECT_EQ(out,
            "ok hello parulel/2\n"
            "ok hello parulel/1\n"
            "ok hello parulel/2\n"
            "err unsupported protocol version: parulel/99 "
            "(server speaks parulel/2, parulel/1)\n");
}

TEST(NetHello, NetClientHandshakesOnConnect) {
  ServerFixture fx;
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()))
      << client.error();
  EXPECT_EQ(client.server_version(),
            service::ServeProtocol::kProtocolVersion);
}

// ----------------------------------------------------------- robustness

TEST(NetRobustness, MalformedFramesGetStructuredErrors) {
  ServerFixture fx;
  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));
  // Garbage command, binary bytes, missing arguments, bogus session —
  // every one must produce exactly one `err` line, and the connection
  // must stay usable afterwards.
  ASSERT_TRUE(c.send("frobnicate\n"));
  ASSERT_TRUE(c.send("\x01\x02\xff\xfe\n"));
  ASSERT_TRUE(c.send("open\n"));
  ASSERT_TRUE(c.send("assert nosuch item 1\n"));
  const std::string errors = c.recv_lines(4);
  EXPECT_EQ(4u, static_cast<std::size_t>(
                    std::count(errors.begin(), errors.end(), '\n')));
  std::istringstream lines(errors);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("err ", 0), 0u) << line;
  }
  ASSERT_TRUE(c.send("hello\n"));
  EXPECT_EQ(c.recv_lines(1), "ok hello parulel/2\n");
}

TEST(NetRobustness, PartialWritesReassembleIntoOneRequest) {
  ServerFixture fx;
  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));
  for (const char* piece : {"hel", "lo par", "ulel/1"}) {
    ASSERT_TRUE(c.send(piece));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(c.send("\n"));
  EXPECT_EQ(c.recv_lines(1), "ok hello parulel/1\n");
}

TEST(NetRobustness, OversizedLinesAreDiscardedWithError) {
  NetServerConfig cfg;
  cfg.max_line_bytes = 64;
  ServerFixture fx(cfg);
  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));

  // Terminated oversize line: one error, then normal service resumes.
  ASSERT_TRUE(c.send(std::string(200, 'x') + "\nhello\n"));
  EXPECT_EQ(c.recv_lines(2), "err line-too-long\nok hello parulel/2\n");

  // Unterminated flood: the error arrives as soon as the cap is blown,
  // everything up to the eventual newline is discarded, and the line
  // after it is served normally.
  ASSERT_TRUE(c.send(std::string(300, 'y')));
  EXPECT_EQ(c.recv_lines(1), "err line-too-long\n");
  ASSERT_TRUE(c.send(std::string(100, 'y') + "\nhello\n"));
  EXPECT_EQ(c.recv_lines(1), "ok hello parulel/2\n");

  const NetStats stats = fx.server.stats_snapshot();
  EXPECT_EQ(stats.oversize_lines, 2u);
}

TEST(NetRobustness, MidRequestDisconnectLeavesServerHealthy) {
  const std::string program = write_temp_program();
  ServerFixture fx;
  {
    RawClient dropper;
    ASSERT_TRUE(dropper.connect(fx.server.port()));
    ASSERT_TRUE(dropper.send("open s " + program + "\n"));
    EXPECT_EQ(dropper.recv_lines(1).rfind("ok open", 0), 0u);
    // Die mid-line, with a request fragment in the server's buffer and
    // a session open in this connection's namespace.
    ASSERT_TRUE(dropper.send("assert s it"));
    dropper.close();
  }

  // The server must keep serving, and the dropped connection's session
  // must be reaped (sessions_closed catches up with sessions_opened).
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()));
  // The reap runs on the server's loop; under a loaded host it can take
  // well over a second, so wait on the event with a generous deadline.
  Response r;
  const bool reaped = eventually(10'000, [&] {
    if (!client.request("stats", r) || !r.ok()) return false;
    return r.status.find("sessions_opened=1") != std::string::npos &&
           r.status.find("sessions_closed=1") != std::string::npos;
  });
  EXPECT_TRUE(reaped) << client.error() << " " << r.status;

  // And a fresh connection can reuse the dropped client's session name.
  ASSERT_TRUE(client.request("open s " + program, r));
  EXPECT_TRUE(r.ok()) << r.status;
}

TEST(NetRobustness, InterleavedPipelinedClientsStayIsolated) {
  const std::string program = write_temp_program();
  ServerFixture fx;

  // Both clients use the session name "s": names are per-connection
  // namespaces, so their working memories must never mix.
  NetClient a, b;
  ASSERT_TRUE(a.connect("127.0.0.1", fx.server.port()));
  ASSERT_TRUE(b.connect("127.0.0.1", fx.server.port()));
  Response r;
  ASSERT_TRUE(a.request("open s " + program, r));
  ASSERT_TRUE(r.ok()) << r.status;
  ASSERT_TRUE(b.request("open s " + program, r));
  ASSERT_TRUE(r.ok()) << r.status;

  // Interleave pipelined bursts: each client sends its whole batch,
  // then reads its responses, with the other client's traffic in
  // flight on the shared event loop.
  ASSERT_TRUE(a.send_line("assert s item 1"));
  ASSERT_TRUE(b.send_line("assert s item 2"));
  ASSERT_TRUE(a.send_line("run s"));
  ASSERT_TRUE(b.send_line("run s"));
  ASSERT_TRUE(a.send_line("query s seen"));
  ASSERT_TRUE(b.send_line("query s seen"));
  for (NetClient* c : {&a, &b}) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(c->read_response(r)) << c->error();
      EXPECT_TRUE(r.ok()) << r.status;
    }
  }
  ASSERT_TRUE(a.read_response(r));
  ASSERT_EQ(r.status, "ok query n=1");
  ASSERT_EQ(r.details.size(), 1u);
  EXPECT_NE(r.details[0].find("(id 1)"), std::string::npos) << r.details[0];
  ASSERT_TRUE(b.read_response(r));
  ASSERT_EQ(r.status, "ok query n=1");
  ASSERT_EQ(r.details.size(), 1u);
  EXPECT_NE(r.details[0].find("(id 2)"), std::string::npos) << r.details[0];
}

TEST(NetRobustness, ServerFullRejectsWithStructuredError) {
  NetServerConfig cfg;
  cfg.max_connections = 1;
  ServerFixture fx(cfg);

  NetClient first;
  ASSERT_TRUE(first.connect("127.0.0.1", fx.server.port()));

  RawClient second;
  ASSERT_TRUE(second.connect(fx.server.port()));
  EXPECT_EQ(second.recv_all(), "err server-full\n");

  // The admitted connection is unaffected.
  Response r;
  ASSERT_TRUE(first.request("hello", r));
  EXPECT_TRUE(r.ok());
  const NetStats stats = fx.server.stats_snapshot();
  EXPECT_EQ(stats.rejected_full, 1u);
}

TEST(NetRobustness, IdleConnectionsAreCollected) {
  NetServerConfig cfg;
  cfg.idle_timeout_ms = 50;
  ServerFixture fx(cfg);

  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));
  ASSERT_TRUE(c.send("hello\n"));
  EXPECT_EQ(c.recv_lines(1), "ok hello parulel/2\n");
  // Go quiet; the server must close us.
  EXPECT_EQ(c.recv_all(), "");
  const NetStats stats = fx.server.stats_snapshot();
  EXPECT_EQ(stats.idle_closed, 1u);
}

TEST(NetShutdown, DrainFlushesQueuedResponses) {
  ServerFixture fx;
  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));

  // Pipeline a burst; once the first response is back, the server has
  // processed the whole buffered burst (the loop drains a readable
  // connection's buffer before writing). stop() must still deliver
  // every queued response before closing.
  constexpr int kBurst = 100;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += "hello\n";
  ASSERT_TRUE(c.send(burst));
  const std::string first = c.recv_lines(1);
  EXPECT_EQ(first.rfind("ok hello parulel/2\n", 0), 0u) << first;
  fx.server.stop();
  const std::string rest = c.recv_all();
  EXPECT_EQ(static_cast<int>(std::count(first.begin(), first.end(), '\n')) +
                static_cast<int>(std::count(rest.begin(), rest.end(), '\n')),
            kBurst);
}

// --------------------------------------------- stdin / TCP equivalence

std::string serve_via_stdin(const std::string& script) {
  std::istringstream in(script);
  std::ostringstream out;
  service::serve(in, out);
  return out.str();
}

std::string serve_via_tcp(const std::string& script,
                          NetServerConfig cfg = {}) {
  ServerFixture fx(std::move(cfg));
  RawClient c;
  EXPECT_TRUE(c.connect(fx.server.port()));
  EXPECT_TRUE(c.send(script));
  // Every script ends in `quit`, so the server closes after flushing.
  return c.recv_all();
}

std::string example_path(const char* name) {
  return std::string(PARULEL_SOURCE_DIR) + "/examples/programs/" + name;
}

TEST(NetEquivalence, OrderbookScriptIsByteIdentical) {
  const std::string script =
      "hello parulel/1\n"
      "open book " + example_path("orderbook.clp") + "\n"
      "run book\n"
      "assert book buy 101 acme 55 10\n"
      "assert book buy 102 acme 48 20\n"
      "assert book sell 201 acme 50 10\n"
      "run book\n"
      "query book trade\n"
      "query book trade sym=acme\n"
      "query book buy sym=acme\n"
      "snapshot book\n"
      "assert book sell 202 acme 40 20\n"
      "run book\n"
      "query book trade\n"
      "restore book\n"
      "query book trade\n"
      "stats book\n"
      "# bare `stats` is omitted: its latency percentiles are wall-clock\n"
      "# a comment line produces no response\n"
      "\n"
      "bogus-command book\n"
      "close book\n"
      "quit\n";
  const std::string via_stdin = serve_via_stdin(script);
  const std::string via_tcp = serve_via_tcp(script);
  EXPECT_EQ(via_stdin, via_tcp);
  EXPECT_NE(via_stdin.find("ok open book"), std::string::npos) << via_stdin;
  EXPECT_NE(via_stdin.find("ok query"), std::string::npos) << via_stdin;
  EXPECT_NE(via_stdin.find("err unknown command"), std::string::npos)
      << via_stdin;
}

TEST(NetEquivalence, MonitorScriptIsByteIdentical) {
  const std::string script =
      "open mon " + example_path("monitor.clp") + "\n"
      "run mon\n"
      "assert mon event mallory fail 10\n"
      "assert mon event mallory fail 11\n"
      "assert mon event mallory fail 12\n"
      "run mon\n"
      "query mon alert\n"
      "assert mon event mallory login 20\n"
      "run mon\n"
      "query mon incident\n"
      "query mon incident user=mallory\n"
      "stats mon\n"
      "close mon\n"
      "quit\n";
  const std::string via_stdin = serve_via_stdin(script);
  const std::string via_tcp = serve_via_tcp(script);
  EXPECT_EQ(via_stdin, via_tcp);
  EXPECT_NE(via_stdin.find("ok query n=1"), std::string::npos) << via_stdin;
}

TEST(NetEquivalence, EchoModeMatchesToo) {
  const std::string program = write_temp_program();
  const std::string script =
      "open s " + program + "\n"
      "assert s item 7\n"
      "run s\n"
      "query s seen\n"
      "quit\n";

  std::istringstream in(script);
  std::ostringstream out;
  service::ServeOptions sopts;
  sopts.echo = true;
  service::serve(in, out, sopts);

  NetServerConfig cfg;
  cfg.echo = true;
  ServerFixture fx(cfg);
  RawClient c;
  ASSERT_TRUE(c.connect(fx.server.port()));
  ASSERT_TRUE(c.send(script));
  EXPECT_EQ(out.str(), c.recv_all());
}

// The sharded server's byte-identity contract: the SAME script through
// the stdin serve() loop, a single-shard server, and multi-shard
// servers must produce identical response streams — sharding is a
// throughput feature, never a semantics change.
TEST(NetEquivalence, ShardCountNeverChangesResponseBytes) {
  const std::string script =
      "hello parulel/2\n"
      "open book " + example_path("orderbook.clp") + "\n"
      "assert book buy 101 acme 55 10\n"
      "assert book sell 201 acme 50 10\n"
      "run book\n"
      "query book trade\n"
      "open mon " + example_path("monitor.clp") + "\n"
      "assert mon event mallory fail 10\n"
      "run mon\n"
      "query mon alert\n"
      "close mon\n"
      "close book\n"
      "quit\n";
  const std::string via_stdin = serve_via_stdin(script);
  for (const unsigned shards : {1u, 2u, 4u}) {
    NetServerConfig cfg;
    cfg.shards = shards;
    EXPECT_EQ(via_stdin, serve_via_tcp(script, std::move(cfg)))
        << "shards=" << shards;
  }
}

/// Journal directory for one sweep leg, wiped on entry.
std::string fresh_sweep_dir(const std::string& tag) {
  const std::string dir = std::string("/tmp/parulel_net_shards_") + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// The journaled variant is the interesting one: with shards > 1 the
// names below live on DIFFERENT shards (s->0, t->1 of 2; s->0, t->1,
// a->2, b->3 of 4 under the pinning hash), so one connection's script
// exercises the forwarding handshake — and the bytes still cannot
// differ from stdin.
TEST(NetEquivalence, ShardedDurableScriptIsByteIdentical) {
  const std::string program = write_temp_program();
  std::string script = "hello parulel/2\n";
  for (const char* name : {"s", "t", "a", "b"}) {
    script += std::string("open ") + name + " " + program + "\n";
    script += std::string("@1 assert ") + name + " item 7\n";
    script += std::string("@2 run ") + name + "\n";
    script += std::string("query ") + name + " seen\n";
  }
  script += "quit\n";

  std::string via_stdin;
  {
    const std::string dir = fresh_sweep_dir("stdin");
    std::istringstream in(script);
    std::ostringstream out;
    service::ServeOptions sopts;
    sopts.service.journal.dir = dir;
    sopts.service.journal.fsync = false;
    service::serve(in, out, sopts);
    via_stdin = out.str();
  }
  ASSERT_NE(via_stdin.find("ok run"), std::string::npos) << via_stdin;

  for (const unsigned shards : {1u, 2u, 4u}) {
    NetServerConfig cfg;
    cfg.shards = shards;
    cfg.service.journal.dir =
        fresh_sweep_dir("tcp" + std::to_string(shards));
    cfg.service.journal.fsync = false;
    EXPECT_EQ(via_stdin, serve_via_tcp(script, std::move(cfg)))
        << "shards=" << shards;
  }
}

// ------------------------------------------------------------ sharding

TEST(NetSharding, CrossShardSessionsForwardAndStayConsistent) {
  const std::string program = write_temp_program();
  NetServerConfig cfg;
  cfg.shards = 2;
  cfg.service.journal.dir = fresh_sweep_dir("forward");
  cfg.service.journal.fsync = false;
  ServerFixture fx(cfg);
  ASSERT_EQ(fx.server.shards(), 2u);

  // One connection lands on one shard but addresses both names; the
  // name homed on the other shard ("s" -> 0, "t" -> 1) must be served
  // through the forwarding handshake.
  ASSERT_NE(service::shard_for_name("s", 2), service::shard_for_name("t", 2));
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()));
  Response r;
  for (const char* name : {"s", "t"}) {
    ASSERT_TRUE(client.request(std::string("open ") + name + " " + program,
                               r));
    ASSERT_TRUE(r.ok()) << r.status;
    ASSERT_TRUE(client.request(std::string("@1 assert ") + name + " item 4",
                               r));
    ASSERT_TRUE(r.ok()) << r.status;
    ASSERT_TRUE(client.request(std::string("@2 run ") + name, r));
    ASSERT_TRUE(r.ok()) << r.status;
    ASSERT_TRUE(client.request(std::string("query ") + name + " seen", r));
    ASSERT_EQ(r.status, "ok query n=1") << r.status;
  }
  const NetStats stats = fx.server.stats_snapshot();
  EXPECT_EQ(stats.shards, 2u);
  EXPECT_GT(stats.forwarded, 0u) << "no line crossed shards";
}

TEST(NetSharding, CrossShardResumeAfterRestart) {
  const std::string program = write_temp_program();
  const std::string dir = fresh_sweep_dir("resume");

  auto extract_fp = [](const std::string& status) {
    const std::size_t at = status.find("fingerprint=");
    EXPECT_NE(at, std::string::npos) << status;
    if (at == std::string::npos) return std::string();
    const std::size_t end = status.find(' ', at);
    return status.substr(at, end == std::string::npos ? end : end - at);
  };

  std::string fp_s, fp_t;
  NetServerConfig cfg;
  cfg.shards = 2;
  cfg.service.journal.dir = dir;
  cfg.service.journal.fsync = false;
  std::uint16_t port = 0;
  {
    ServerFixture fx(cfg);
    port = fx.server.port();
    NetClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", port));
    Response r;
    for (const char* name : {"s", "t"}) {
      ASSERT_TRUE(client.request(std::string("open ") + name + " " + program,
                                 r));
      ASSERT_TRUE(r.ok()) << r.status;
      ASSERT_TRUE(client.request(std::string("@1 assert ") + name + " item 9",
                                 r));
      ASSERT_TRUE(r.ok()) << r.status;
      ASSERT_TRUE(client.request(std::string("@2 run ") + name, r));
      ASSERT_TRUE(r.ok()) << r.status;
      (name[0] == 's' ? fp_s : fp_t) = extract_fp(r.status);
    }
  }  // fixture teardown drains; the journals survive

  // Restart over the same directory: each shard recovers its own names,
  // and ONE connection resumes both — whichever shard it lands on, at
  // least one resume crosses shards.
  ServerFixture fx(cfg);
  ASSERT_TRUE(fx.start_ok);
  ASSERT_EQ(fx.server.recovery_reports().size(), 2u);
  for (const auto& report : fx.server.recovery_reports()) {
    EXPECT_TRUE(report.ok) << report.name << ": " << report.error;
  }
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()));
  Response r;
  ASSERT_TRUE(client.request("resume s", r));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_NE(r.status.find(fp_s), std::string::npos) << r.status;
  ASSERT_TRUE(client.request("resume t", r));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_NE(r.status.find(fp_t), std::string::npos) << r.status;
  EXPECT_GT(fx.server.stats_snapshot().forwarded, 0u);
}

TEST(NetSharding, QuarantinedResumeAnswersJournalCorrupt) {
  const std::string program = write_temp_program();
  const std::string dir = fresh_sweep_dir("quarantine");

  // Build a journal for "s", then corrupt it mid-file.
  {
    service::ServiceConfig scfg;
    scfg.journal.dir = dir;
    scfg.journal.fsync = false;
    service::RuleService svc(scfg);
    service::ServeProtocol proto(svc);
    std::string out;
    proto.handle_line("open s " + program, out);
    proto.handle_line("@1 assert s item 5", out);
    proto.handle_line("@2 run s", out);
    proto.handle_line("@3 assert s item 7", out);
    proto.handle_line("@4 run s", out);
  }
  const std::string wal = dir + "/s.wal";
  std::string bytes;
  {
    std::ifstream in(wal, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x40;
  {
    std::ofstream out(wal, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // A sharded server quarantines it on the name's home shard, and a
  // connection on ANY shard must get the structured verdict: resume and
  // re-open both answer `err journal-corrupt`, never `err internal`.
  NetServerConfig cfg;
  cfg.shards = 2;
  cfg.service.journal.dir = dir;
  cfg.service.journal.fsync = false;
  ServerFixture fx(cfg);
  ASSERT_EQ(fx.server.recovery_reports().size(), 1u);
  EXPECT_FALSE(fx.server.recovery_reports()[0].ok);

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", fx.server.port()));
  Response r;
  ASSERT_TRUE(client.request("resume s", r));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.rfind("err journal-corrupt", 0), 0u) << r.status;
  ASSERT_TRUE(client.request("open s " + program, r));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.rfind("err journal-corrupt", 0), 0u) << r.status;
}

// ------------------------------------------------- fault-plan parsing

TEST(NetFaultPlan, ParsesSpecs) {
  const NetFaultPlan plan =
      NetFaultPlan::parse("seed=7,drop=0.25,ackloss=0.1,delay=0.5,maxdelay=80");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(plan.ack_loss_rate, 0.1);
  EXPECT_DOUBLE_EQ(plan.delay_rate, 0.5);
  EXPECT_EQ(plan.max_delay_ms, 80u);
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(NetFaultPlan{}.enabled());

  EXPECT_THROW(NetFaultPlan::parse("drop=1.5"), ParseError);
  EXPECT_THROW(NetFaultPlan::parse("frobnicate=1"), ParseError);
  EXPECT_THROW(NetFaultPlan::parse("drop"), ParseError);
}

// --------------------------------- durable retry across server restarts

constexpr const char* kConsumeSource = R"((deftemplate item (slot v))
(deftemplate tally (slot n))
(defrule consume
  ?i <- (item (v ?x))
  ?t <- (tally (n ?c))
  =>
  (retract ?i)
  (retract ?t)
  (assert (tally (n (+ ?c ?x)))))
(deffacts init (tally (n 0))))";

std::string write_consume_program() {
  const std::string path = "/tmp/parulel_test_net_consume.clp";
  std::ofstream out(path);
  out << kConsumeSource;
  return path;
}

/// Journal directory for one test, wiped on entry.
std::string fresh_journal_dir(const char* tag) {
  const std::string dir = std::string("/tmp/parulel_net_journal_") + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

NetServerConfig durable_server_config(const std::string& dir,
                                      std::uint16_t port = 0) {
  NetServerConfig cfg;
  cfg.port = port;
  cfg.service.journal.dir = dir;
  cfg.service.journal.fsync = false;  // kill -9 semantics are enough here
  return cfg;
}

TEST(RetryRecovery, SurvivesServerRestartWithExactlyOnceReplay) {
  const std::string program = write_consume_program();
  const std::string dir = fresh_journal_dir("restart");

  auto first = std::make_unique<ServerFixture>(durable_server_config(dir));
  const std::uint16_t port = first->server.port();

  RetryConfig rcfg;
  rcfg.port = port;
  rcfg.max_attempts = 40;  // the restart window below needs patience
  rcfg.backoff_base_ms = 5;
  rcfg.backoff_max_ms = 100;
  RetryClient client(rcfg);
  Response r;
  ASSERT_TRUE(client.exec("open s " + program, r)) << client.error();
  ASSERT_TRUE(r.ok()) << r.status;
  ASSERT_TRUE(client.exec("assert s item 3", r));
  ASSERT_TRUE(client.exec("run s", r));
  ASSERT_TRUE(r.ok()) << r.status;

  // Crash the server (the fixture join is a hard stop from the client's
  // point of view: its connection dies), restart on the same port over
  // the same journal directory, and keep going — the client must
  // reconnect, resume, and the session must carry its state.
  first.reset();
  ServerFixture second(durable_server_config(dir, port));
  ASSERT_TRUE(second.start_ok);
  ASSERT_EQ(second.server.recovery_reports().size(), 1u);
  EXPECT_TRUE(second.server.recovery_reports()[0].ok)
      << second.server.recovery_reports()[0].error;

  ASSERT_TRUE(client.exec("assert s item 4", r)) << client.error();
  ASSERT_TRUE(r.ok()) << r.status;
  ASSERT_TRUE(client.exec("run s", r));
  ASSERT_TRUE(r.ok()) << r.status;
  ASSERT_TRUE(client.exec("query s tally", r));
  ASSERT_EQ(r.status, "ok query n=1");
  ASSERT_EQ(r.details.size(), 1u);
  EXPECT_NE(r.details[0].find("(n 7)"), std::string::npos) << r.details[0];
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_GE(client.stats().resumed, 1u);
  EXPECT_EQ(client.unacked(), 0u);
}

TEST(RetryRecovery, InjectedFaultsAreHealedByRetry) {
  const std::string program = write_consume_program();
  const std::string dir = fresh_journal_dir("faults");

  // Aggressive connection-killing faults: drops cut the connection
  // before execution, ack losses execute then eat the response. The
  // retry client must converge to the exact no-fault state anyway.
  NetServerConfig cfg = durable_server_config(dir);
  cfg.faults = NetFaultPlan::parse("seed=11,drop=0.15,ackloss=0.15");
  ServerFixture fx(cfg);

  RetryConfig rcfg;
  rcfg.port = fx.server.port();
  rcfg.max_attempts = 60;
  rcfg.backoff_base_ms = 1;
  rcfg.backoff_max_ms = 20;
  RetryClient client(rcfg);
  Response r;
  ASSERT_TRUE(client.exec("open s " + program, r)) << client.error();
  ASSERT_TRUE(r.ok()) << r.status;
  int expected = 0;
  for (int v : {3, 1, 4, 1, 5, 9, 2, 6}) {
    expected += v;
    ASSERT_TRUE(client.exec("assert s item " + std::to_string(v), r))
        << client.error();
    ASSERT_TRUE(r.ok()) << r.status;
    ASSERT_TRUE(client.exec("run s", r)) << client.error();
    ASSERT_TRUE(r.ok()) << r.status;
  }
  ASSERT_TRUE(client.exec("query s tally", r)) << client.error();
  ASSERT_EQ(r.status, "ok query n=1");
  ASSERT_EQ(r.details.size(), 1u);
  EXPECT_NE(r.details[0].find("(n " + std::to_string(expected) + ")"),
            std::string::npos)
      << r.details[0];
  EXPECT_EQ(client.unacked(), 0u);

  const NetStats stats = fx.server.stats_snapshot();
  EXPECT_GT(stats.fault_dropped, 0u) << "fault plan never fired";
}

// ------------------------------------ failover: bounded retry, replication

/// A loopback port with nothing listening on it (bind ephemeral, read
/// the number back, close — nothing re-binds it during the test).
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(RetryBackoff, FullJitterStaysInWindowAndSaturatesInsteadOfOverflowing) {
  RetryConfig cfg;
  cfg.backoff_base_ms = 100;
  cfg.backoff_max_ms = 1'000;
  cfg.seed = 42;
  RetryClient client(cfg);

  // Attempt k draws uniform in [0, min(base * 2^(k-1), max)]; sample
  // each window enough that a mis-sized window would show.
  const std::uint64_t windows[] = {100, 200, 400, 800, 1'000, 1'000};
  for (unsigned attempt = 1; attempt <= 6; ++attempt) {
    const std::uint64_t ceiling = windows[attempt - 1];
    std::uint64_t seen_max = 0;
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t d = client.backoff_delay_ms(attempt);
      EXPECT_LE(d, ceiling) << "attempt=" << attempt;
      seen_max = std::max(seen_max, d);
    }
    // Full jitter uses the WHOLE window (not e.g. [ceiling/2, ceiling]).
    EXPECT_GT(seen_max, ceiling / 2) << "attempt=" << attempt;
  }

  // The exponent saturates: attempt 200 would shift 2^199 and wrap to a
  // near-zero delay (a tight retry hammer) if computed naively.
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(client.backoff_delay_ms(200), 1'000u);
  }

  // A base already past max clamps down rather than doubling away.
  RetryConfig big;
  big.backoff_base_ms = 50'000;
  big.backoff_max_ms = 300;
  RetryClient clamped(big);
  for (unsigned attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_LE(clamped.backoff_delay_ms(attempt), 300u);
  }
}

TEST(RetryFailover, DeadClusterYieldsTerminalGiveUp) {
  // Every endpoint refuses: exec() must rotate through the whole list,
  // burn its bounded attempt budget, and return false — the terminal
  // `err unavailable` path — instead of retrying forever.
  RetryConfig rcfg;
  rcfg.port = dead_port();
  rcfg.endpoints = {{"127.0.0.1", dead_port()}};
  rcfg.max_attempts = 4;
  rcfg.backoff_base_ms = 1;
  rcfg.backoff_max_ms = 5;
  RetryClient client(rcfg);
  Response r;
  EXPECT_FALSE(client.exec("hello", r));
  EXPECT_FALSE(client.error().empty());
  EXPECT_EQ(client.stats().giveups, 1u);
  // The cursor rotated: with 2 endpoints and 4 attempts each endpoint
  // was tried, and every failed dial advanced the cursor.
  EXPECT_GE(client.stats().failovers, 3u);
  EXPECT_EQ(client.stats().reconnects, 4u);
}

/// Read a whole file as bytes ("" when absent).
std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

NetServerConfig replica_config(const std::string& dir,
                               std::uint16_t primary_port) {
  NetServerConfig cfg;
  cfg.service.journal.dir = dir;
  cfg.service.journal.fsync = false;
  cfg.replica_of = "127.0.0.1:" + std::to_string(primary_port);
  // Longer than a chaos cut heals (the applier redials within 200ms),
  // much shorter than the retry budget a failed-over client brings.
  cfg.promote_grace_ms = 600;
  return cfg;
}

TEST(Replication, ShippedJournalsAreByteIdenticalAndRemovable) {
  const std::string program = write_consume_program();
  const std::string pdir = fresh_journal_dir("ship_primary");
  const std::string rdir = fresh_journal_dir("ship_replica");

  NetServerConfig pcfg = durable_server_config(pdir);
  pcfg.service.journal.snapshot_every = 2;  // exercise rewrite shipping
  pcfg.repl_timeout_ms = 5'000;
  ServerFixture primary(pcfg);
  ServerFixture replica(replica_config(rdir, primary.server.port()));

  // The replica dials in and the channel comes up.
  ASSERT_TRUE(eventually(5'000, [&] {
    return primary.server.repl_stats_snapshot().replica_connects > 0;
  }));

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", primary.server.port()));
  Response r;
  ASSERT_TRUE(client.request("open s " + program, r));
  ASSERT_TRUE(r.ok()) << r.status;
  std::uint64_t req = 1;
  for (int v : {3, 1, 4, 1, 5}) {
    ASSERT_TRUE(client.request("@" + std::to_string(req++) + " assert s item " +
                                   std::to_string(v),
                               r));
    ASSERT_TRUE(r.ok()) << r.status;
    ASSERT_TRUE(client.request("@" + std::to_string(req++) + " run s", r));
    ASSERT_TRUE(r.ok()) << r.status;
    // Semi-sync: the `ok` above waited for the replica's ack, so the
    // backup's file is ALREADY byte-identical — through appends and
    // through the snapshot_every=2 whole-file rewrites.
    ASSERT_TRUE(eventually(5'000, [&] { return primary.server.repl_caught_up(); }));
    const std::string want = slurp(pdir + "/s.wal");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(slurp(rdir + "/s.wal"), want) << "after batch " << (req - 1) / 2;
  }

  const ReplStats ship = primary.server.repl_stats_snapshot();
  EXPECT_GT(ship.batches_shipped + ship.snapshots_shipped, 0u);
  EXPECT_GT(ship.sync_commits, 0u);
  EXPECT_EQ(ship.repl_degraded, 0u);
  const ReplStats apply = replica.server.repl_stats_snapshot();
  EXPECT_GT(apply.applied_batches + apply.applied_snapshots, 0u);
  EXPECT_EQ(apply.apply_errors, 0u);

  // A clean close unlinks BOTH copies: the replica must not resurrect a
  // session the client deliberately ended.
  ASSERT_TRUE(client.request("close s", r));
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_TRUE(eventually(5'000, [&] { return slurp(rdir + "/s.wal").empty(); }));
}

// The chaos gate: kill the primary at a batch boundary, fail the client
// over to the hot standby, and require the exact state an uninterrupted
// run reaches — across replication-channel fault schedules (channel
// cuts force full resyncs, eaten acks force semi-sync degrades, delays
// stall frames). Zero duplicate, zero lost mutations.
TEST(Replication, KillPrimaryFailoverMatchesUninterruptedRun) {
  const std::string program = write_consume_program();
  const std::vector<int> load = {3, 1, 4, 1, 5, 9, 2, 6};

  // Drive (assert, run) pairs [from, to) through a RetryClient.
  auto drive_pairs = [&](RetryClient& client, std::size_t from,
                         std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      Response r;
      const std::uint64_t req = 2 * i + 1;
      ASSERT_TRUE(client.exec("assert s item " + std::to_string(load[i]), r))
          << client.error();
      ASSERT_TRUE(r.ok()) << r.status << " req " << req;
      ASSERT_TRUE(client.exec("run s", r)) << client.error();
      ASSERT_TRUE(r.ok()) << r.status;
    }
  };

  // Detach-and-resume: close the driving client's connection, then read
  // the session's resume line from a fresh connection (fingerprint and
  // committed/acked watermarks).
  auto final_resume_line = [&](std::uint16_t port) {
    std::string status;
    EXPECT_TRUE(eventually(5'000, [&] {
      NetClient reader;
      if (!reader.connect("127.0.0.1", port)) return false;
      Response r;
      if (!reader.request("resume s", r)) return false;
      status = r.status;
      return r.ok();  // "attached" until the server reaps the old conn
    })) << status;
    return status;
  };

  auto strip_id = [](std::string line) {
    // `id=N` differs across servers (shared counter); everything else
    // must match: facts, committed, acked, fingerprint.
    const std::size_t at = line.find(" id=");
    if (at == std::string::npos) return line;
    const std::size_t end = line.find(' ', at + 1);
    line.erase(at, end - at);
    return line;
  };

  // Reference: the uninterrupted run on a lone durable server.
  std::string reference;
  {
    const std::string dir = fresh_journal_dir("failover_ref");
    ServerFixture fx(durable_server_config(dir));
    {
      RetryConfig rcfg;
      rcfg.port = fx.server.port();
      rcfg.backoff_base_ms = 1;
      RetryClient client(rcfg);
      Response r;
      ASSERT_TRUE(client.exec("open s " + program, r)) << client.error();
      ASSERT_TRUE(r.ok()) << r.status;
      drive_pairs(client, 0, load.size());
      ASSERT_EQ(client.unacked(), 0u);
    }  // close the driving connection so the session detaches
    reference = strip_id(final_resume_line(fx.server.port()));
  }
  ASSERT_NE(reference.find("fingerprint="), std::string::npos) << reference;

  const std::vector<std::string> chaos = {
      "",
      "seed=5,drop=0.2",
      "seed=9,ackloss=0.3",
      "seed=13,delay=0.3,maxdelay=10",
  };
  for (const std::string& spec : chaos) {
    for (const std::size_t kill : {2u, 5u}) {
      const std::string tag =
          "failover_" + std::to_string(kill) + "_" +
          std::to_string(std::hash<std::string>{}(spec) % 1000);
      const std::string pdir = fresh_journal_dir((tag + "_p").c_str());
      const std::string rdir = fresh_journal_dir((tag + "_r").c_str());

      NetServerConfig pcfg = durable_server_config(pdir);
      pcfg.repl_timeout_ms = 200;  // an eaten ack degrades quickly
      if (!spec.empty()) pcfg.faults = NetFaultPlan::parse(spec);
      auto primary = std::make_unique<ServerFixture>(pcfg);
      ASSERT_TRUE(primary->start_ok);
      ServerFixture replica(
          replica_config(rdir, primary->server.port()));
      ASSERT_TRUE(replica.start_ok);

      {
        RetryConfig rcfg;
        rcfg.port = primary->server.port();
        rcfg.endpoints = {{"127.0.0.1", replica.server.port()}};
        rcfg.max_attempts = 60;  // client-facing chaos rides the same plan
        rcfg.backoff_base_ms = 1;
        rcfg.backoff_max_ms = 20;
        RetryClient client(rcfg);
        Response r;
        ASSERT_TRUE(client.exec("open s " + program, r)) << client.error();
        ASSERT_TRUE(r.ok()) << r.status;
        drive_pairs(client, 0, kill);

        // The kill -9 contract needs the standby current at the
        // boundary: wait until every shipped frame is acked (chaos cuts
        // heal via reconnect + full resync), then pull the plug without
        // drain niceties toward the client.
        // Byte equality is the contract the kill relies on; caught_up
        // alone would hang on an ackloss leg whose LAST ack was eaten
        // (cumulative acks only heal when another frame flows).
        ASSERT_TRUE(eventually(10'000, [&] {
          const std::string p = slurp(pdir + "/s.wal");
          return !p.empty() && p == slurp(rdir + "/s.wal");
        })) << "spec=" << spec << " kill=" << kill;
        primary.reset();

        // Finish the script: the client fails over to the replica, which
        // promotes `s` from its shipped journal on resume.
        drive_pairs(client, kill, load.size());
        EXPECT_EQ(client.unacked(), 0u);
        EXPECT_GE(client.stats().failovers, 1u);
        EXPECT_GE(client.stats().resumed, 1u);
      }  // close the driving connection so the session detaches
      const std::string line =
          strip_id(final_resume_line(replica.server.port()));
      EXPECT_EQ(line, reference) << "spec=" << spec << " kill=" << kill;
      const ReplStats apply = replica.server.repl_stats_snapshot();
      EXPECT_EQ(apply.apply_errors, 0u) << "spec=" << spec;
    }
  }
}

// --------------------------------------------------- client timeouts

TEST(NetTimeouts, SilentServerTripsTheIoTimeout) {
  // A listener that accepts and then says nothing: the handshake must
  // fail with a timeout, not hang.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  NetClient::Options opts;
  opts.connect_timeout_ms = 1'000;
  opts.io_timeout_ms = 100;
  NetClient client(opts);
  EXPECT_FALSE(client.connect("127.0.0.1", ntohs(addr.sin_port)));
  EXPECT_TRUE(client.timed_out()) << client.error();
  ::close(lfd);
}

}  // namespace
}  // namespace parulel::net
