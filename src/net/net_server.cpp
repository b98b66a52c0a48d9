#include "net/net_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <filesystem>

#include "distrib/faults.hpp"
#include "net/replication.hpp"
#include "service/protocol.hpp"
#include "support/error.hpp"

namespace parulel::net {

namespace {

constexpr std::string_view kServerFull = "err server-full\n";
constexpr std::string_view kLineTooLong = "err line-too-long\n";
constexpr std::string_view kBackpressure = "err backpressure\n";

double parse_rate(const std::string& key, const std::string& value) {
  double rate = 0.0;
  auto [p, ec] =
      std::from_chars(value.data(), value.data() + value.size(), rate);
  if (ec != std::errc() || p != value.data() + value.size() || rate < 0.0 ||
      rate >= 1.0) {
    throw ParseError("net-fault-plan: " + key + " wants a rate in [0, 1), got " +
                     value);
  }
  return rate;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t out = 0;
  auto [p, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || p != value.data() + value.size()) {
    throw ParseError("net-fault-plan: " + key + " wants an integer, got " +
                     value);
  }
  return out;
}

/// The session NAME a request line addresses, or empty when the line is
/// connection-local (hello/quit/bare stats), nameless, or malformed.
/// Mirrors the protocol tokenizer: whitespace-split, '#' starts a
/// comment, an optional '@N' request-id token precedes the command.
std::string_view route_name(std::string_view line) {
  std::string_view tok[3];
  std::size_t ntok = 0;
  std::size_t i = 0;
  while (i < line.size() && ntok < 3) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    std::size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j]))) {
      ++j;
    }
    const std::string_view t = line.substr(i, j - i);
    if (t.front() == '#') break;
    tok[ntok++] = t;
    i = j;
  }
  if (ntok == 0) return {};
  std::size_t c = 0;
  if (tok[0].front() == '@') c = 1;  // parulel/2 request-id prefix
  if (ntok <= c + 1) return {};
  const std::string_view cmd = tok[c];
  if (cmd == "open" || cmd == "resume" || cmd == "assert" ||
      cmd == "retract" || cmd == "run" || cmd == "query" ||
      cmd == "snapshot" || cmd == "restore" || cmd == "close" ||
      cmd == "stats") {
    return tok[c + 1];
  }
  return {};
}

}  // namespace

NetFaultPlan NetFaultPlan::parse(const std::string& spec) {
  NetFaultPlan plan;
  std::istringstream in(spec);
  std::string pair;
  while (std::getline(in, pair, ',')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw ParseError("net-fault-plan: want key=value, got " + pair);
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else if (key == "drop") {
      plan.drop_rate = parse_rate(key, value);
    } else if (key == "ackloss") {
      plan.ack_loss_rate = parse_rate(key, value);
    } else if (key == "delay") {
      plan.delay_rate = parse_rate(key, value);
    } else if (key == "maxdelay") {
      plan.max_delay_ms =
          static_cast<unsigned>(std::max<std::uint64_t>(1, parse_u64(key, value)));
    } else {
      throw ParseError("net-fault-plan: unknown key: " + key);
    }
  }
  return plan;
}

/// One live client connection: socket, its protocol conversation, the
/// framing buffers, and per-connection accounting. Owned by exactly one
/// shard; only that shard's thread ever touches it.
struct NetServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;  ///< server-unique; keys cross-shard conversations
  std::unique_ptr<service::ServeProtocol> protocol;

  std::string rbuf;       ///< bytes received, not yet framed into lines
  std::string wbuf;       ///< response bytes not yet written
  std::size_t woff = 0;   ///< consumed prefix of wbuf

  std::uint64_t last_active_ms = 0;
  std::uint64_t hold_until_ms = 0;  ///< fault-injected response delay
  bool read_done = false;          ///< client half-closed (EOF seen)
  bool closing = false;            ///< flush wbuf, then close
  bool skipping_oversize = false;  ///< discarding up to the next newline
  bool dead = false;               ///< swept by the event loop
  bool awaiting_forward = false;   ///< parked: a line is executing on its
                                   ///< session's home shard
  bool did_forward = false;        ///< remote conversations may exist
  bool fwd_ack_loss = false;       ///< rolled verdict held for the reply
  unsigned fwd_delay_ms = 0;       ///< rolled verdict held for the reply
  int prev_errors = 0;             ///< protocol error count already folded

  std::size_t pending_write() const { return wbuf.size() - woff; }
};

/// One cross-thread mailbox message. The acceptor posts NewConn, Drain,
/// and Terminate; shards post Forward / Reply / CloseRemote to each
/// other. Each mailbox is FIFO, which is the ordering the protocol
/// relies on (a connection's Forwards precede its CloseRemote).
struct NetServer::Msg {
  enum class Kind : std::uint8_t {
    NewConn,      ///< acceptor hands over a socket (fd, conn_id)
    Forward,      ///< execute `line` for conn_id; reply to `origin`
    Reply,        ///< a Forward's response bytes coming home
    CloseRemote,  ///< conn_id died: destroy its remote conversation
    Drain,        ///< graceful shutdown: flush and close
    Terminate,    ///< drain complete everywhere: exit the loop
  };
  Kind kind = Kind::NewConn;
  int fd = -1;
  std::uint64_t conn_id = 0;
  unsigned origin = 0;
  std::string line;
  std::string response;
  int error_delta = 0;
  bool quit = false;
};

/// One event-loop shard: its own RuleService, poll loop, connections,
/// fault injector, stats row, and the remote conversations it executes
/// on behalf of connections owned by other shards. Everything here is
/// confined to the shard thread except the mailbox and the stats row.
struct NetServer::Shard {
  NetServer* server = nullptr;
  unsigned index = 0;
  unsigned nshards = 1;
  std::unique_ptr<service::RuleService> service;
  std::unique_ptr<FaultInjector> injector;  ///< null = no fault plan
  int wake_read_fd = -1;
  int wake_write_fd = -1;
  std::thread thread;

  std::mutex mbox_mutex;
  std::deque<Msg> mbox;

  std::vector<std::unique_ptr<Conn>> conns;
  std::unordered_map<std::uint64_t, Conn*> by_id;
  /// conn id -> the protocol conversation executing that connection's
  /// forwarded lines against THIS shard's service (echo off: the origin
  /// shard echoes). Destroyed by CloseRemote or Terminate, which
  /// detaches durable sessions exactly like a local disconnect.
  std::unordered_map<std::uint64_t, std::unique_ptr<service::ServeProtocol>>
      remote;

  bool draining = false;
  bool terminate = false;
  std::uint64_t drain_deadline = 0;

  mutable std::mutex stats_mutex;
  NetStats stats;

  ~Shard() {
    for (auto& conn : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  void loop();
  void handle_msg(Msg& msg);
  void drain_mailbox();
  void sweep_dead();
  void handle_line(Conn& conn, std::string_view line);
  void handle_repl_hello(Conn& conn, std::string_view line);
  void execute_local(Conn& conn, std::string_view line,
                     const FaultVerdict& verdict);
  void forward(Conn& conn, unsigned home, std::string_view line,
               const FaultVerdict& verdict);
  void process_lines(Conn& conn);
  void conn_readable(Conn& conn);
  void conn_writable(Conn& conn);
};

NetServer::NetServer(NetServerConfig config) : config_(std::move(config)) {
  config_.service.workers = 0;  // synchronous: responses are a pure
                                // function of each connection's stream
  config_.service.session_ids = &session_ids_;
  if (config_.shards == 0) config_.shards = 1;
  if (config_.service.journal.enabled()) {
    // Any journaled server can be a replication primary: the hub sits
    // idle until a replica dials in with `repl-hello`. Created before
    // the shard services so their ship hooks can bind it. The hub's
    // chaos injector rolls its own stream (seed + 1009, clear of the
    // per-shard seed + i streams) so schedules stay deterministic.
    std::unique_ptr<FaultInjector> injector;
    if (config_.faults.enabled()) {
      FaultPlan plan;
      plan.seed = config_.faults.seed + 1009;
      plan.loss_rate = config_.faults.drop_rate;
      plan.duplicate_rate = config_.faults.ack_loss_rate;
      plan.delay_rate = config_.faults.delay_rate;
      plan.max_delay_cycles = config_.faults.max_delay_ms;
      injector = std::make_unique<FaultInjector>(plan);
    }
    hub_ = std::make_unique<ReplicationHub>(config_.repl_timeout_ms,
                                            std::move(injector));
    const std::string dir = config_.service.journal.dir;
    config_.service.on_batch_durable =
        [this, dir](const std::string& name, std::uint64_t seq,
                    const std::string& payload) {
          const std::string path =
              (std::filesystem::path(dir) / (name + ".wal")).string();
          hub_->ship_batch(name, seq, payload, path);
        };
    config_.service.on_journal_rewritten =
        [this](const std::string& name, const std::string& path) {
          hub_->ship_file(name, path);
        };
    config_.service.on_journal_removed = [this](const std::string& name) {
      hub_->ship_remove(name);
    };
  }
  if (!config_.replica_of.empty()) {
    // Promotion fence: while this standby's replication link is up (or
    // only briefly down — a chaos cut, not a dead primary), refuse to
    // promote shadow files or open fresh durable names. Serving a name
    // the primary still owns is split-brain. The applier is created in
    // start(); until then the guard reports not-replicating, which is
    // fine — no connection is accepted before start() either.
    config_.service.promotion_guard = [this]() -> std::string {
      if (applier_ && applier_->replicating(config_.promote_grace_ms)) {
        return "still replicating from " + config_.replica_of;
      }
      return std::string();
    };
  }
  shards_.reserve(config_.shards);
  for (unsigned i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->server = this;
    shard->index = i;
    shard->nshards = config_.shards;
    shard->service = std::make_unique<service::RuleService>(config_.service);
    if (config_.faults.enabled()) {
      // Reuse the distributed engine's seed-driven injector: loss maps
      // to a pre-execution drop, duplication to post-execution ack
      // loss, and delay cycles to milliseconds of response hold. Each
      // shard gets its own stream (seed + index) so schedules stay
      // deterministic per (load, seed, shard) without shards sharing a
      // generator; with shards == 1 this is the old schedule exactly.
      FaultPlan plan;
      plan.seed = config_.faults.seed + i;
      plan.loss_rate = config_.faults.drop_rate;
      plan.duplicate_rate = config_.faults.ack_loss_rate;
      plan.delay_rate = config_.faults.delay_rate;
      plan.max_delay_cycles = config_.faults.max_delay_ms;
      shard->injector = std::make_unique<FaultInjector>(plan);
    }
    shards_.push_back(std::move(shard));
  }
  stats_.shards = config_.shards;
}

NetServer::~NetServer() {
  if (applier_) applier_->stop();
  if (hub_) hub_->shutdown();
  shards_.clear();  // closes shard-owned sockets and wake pipes
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_read_fd_ >= 0) ::close(stop_read_fd_);
  if (stop_write_fd_ >= 0) ::close(stop_write_fd_);
}

std::uint64_t NetServer::now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t NetServer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t NetServer::busy_clock_ns() {
  // Per-thread CPU time, not wall time: busy_ns feeds the R-S4
  // slowest-shard makespan model, and on an oversubscribed host a shard
  // thread preempted mid-request would otherwise charge its wait to
  // "busy". CPU time measures the work itself wherever it's scheduled.
  struct timespec ts;
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
  return now_ns();
}

service::RuleService& NetServer::shard_service(unsigned i) {
  return *shards_.at(i)->service;
}

bool NetServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    error_ = "bad bind address: " + config_.host;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    error_ = "bind " + config_.host + ":" + std::to_string(config_.port) +
             ": " + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }

  int pipefds[2];
  if (::pipe2(pipefds, O_NONBLOCK | O_CLOEXEC) != 0) {
    error_ = std::string("pipe2: ") + std::strerror(errno);
    return false;
  }
  stop_read_fd_ = pipefds[0];
  stop_write_fd_ = pipefds[1];

  for (auto& shard : shards_) {
    if (::pipe2(pipefds, O_NONBLOCK | O_CLOEXEC) != 0) {
      error_ = std::string("pipe2: ") + std::strerror(errno);
      return false;
    }
    shard->wake_read_fd = pipefds[0];
    shard->wake_write_fd = pipefds[1];
  }

  if (!config_.replica_of.empty()) {
    // Hot standby: no startup recovery — the shipped *.wal files stay
    // passive shadow copies until a failed-over client resumes a name
    // (lazy promotion through resume_durable). Eager recovery here
    // would fight the applier for the files it is still appending to.
    if (!config_.service.journal.enabled()) {
      error_ = "--replica-of requires --journal-dir";
      return false;
    }
    const std::size_t colon = config_.replica_of.rfind(':');
    std::uint16_t rport = 0;
    if (colon != std::string::npos) {
      const std::string p = config_.replica_of.substr(colon + 1);
      std::uint64_t v = 0;
      auto [end, ec] = std::from_chars(p.data(), p.data() + p.size(), v);
      if (ec == std::errc() && end == p.data() + p.size() && v > 0 &&
          v <= 65535) {
        rport = static_cast<std::uint16_t>(v);
      }
    }
    if (colon == std::string::npos || rport == 0) {
      error_ = "bad --replica-of (want HOST:PORT): " + config_.replica_of;
      return false;
    }
    ReplicaApplier::Config rcfg;
    rcfg.host = config_.replica_of.substr(0, colon);
    rcfg.port = rport;
    rcfg.journal_dir = config_.service.journal.dir;
    rcfg.fsync = config_.service.journal.fsync;
    applier_ = std::make_unique<ReplicaApplier>(
        rcfg, [this](const std::string& name) {
          const unsigned n = static_cast<unsigned>(shards_.size());
          return shard_service(service::shard_for_name(name, n))
              .has_durable(name);
        });
    applier_->start();
  } else if (config_.service.journal.enabled()) {
    // Rebuild durable sessions before the first connection: a client
    // may lead with `resume NAME` the moment we accept. Each shard's
    // service recovers exactly the names the pinning hash assigns it,
    // so a name's journal (and any quarantine verdict) lives on its
    // home shard. Reports merge sorted by name for stable output.
    for (unsigned i = 0; i < shards_.size(); ++i) {
      const unsigned n = static_cast<unsigned>(shards_.size());
      auto reports = shards_[i]->service->recover_journals(
          [i, n](const std::string& name) {
            return service::shard_for_name(name, n) == i;
          });
      recovery_reports_.insert(recovery_reports_.end(),
                               std::make_move_iterator(reports.begin()),
                               std::make_move_iterator(reports.end()));
    }
    std::sort(recovery_reports_.begin(), recovery_reports_.end(),
              [](const service::RecoveryReport& a,
                 const service::RecoveryReport& b) { return a.name < b.name; });
  }
  return true;
}

void NetServer::stop() {
  if (stop_write_fd_ < 0) return;
  const char byte = 's';
  // Async-signal-safe by construction: one write, result ignored (the
  // pipe being full already means a stop is pending).
  [[maybe_unused]] ssize_t n = ::write(stop_write_fd_, &byte, 1);
}

NetStats NetServer::stats_snapshot() const {
  NetStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out = stats_;
  }
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->stats_mutex);
    for (const auto& f : obs::net_fields()) {
      out.*f.member += shard->stats.*f.member;
    }
  }
  return out;
}

std::vector<NetStats> NetServer::shard_stats() const {
  std::vector<NetStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->stats_mutex);
    out.push_back(shard->stats);
  }
  return out;
}

void NetServer::post(unsigned shard, Msg msg) {
  Shard& s = *shards_[shard];
  {
    std::lock_guard<std::mutex> lock(s.mbox_mutex);
    s.mbox.push_back(std::move(msg));
  }
  const char byte = 'w';
  // Nonblocking; a full pipe already means a wake is pending.
  [[maybe_unused]] ssize_t n = ::write(s.wake_write_fd, &byte, 1);
}

void NetServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient error): done for now
    if (live_conns_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      // Reject-not-block at the accept layer too: a one-line structured
      // refusal, then close. Best effort — the write may short-circuit.
      // Counted first: once the refusal is out, a client may read the
      // stats and must find it there.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.rejected_full;
      }
      [[maybe_unused]] ssize_t n =
          ::write(fd, kServerFull.data(), kServerFull.size());
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    live_conns_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.accepted;
    }
    Msg msg;
    msg.kind = Msg::Kind::NewConn;
    msg.fd = fd;
    msg.conn_id = next_conn_id_++;
    post(next_shard_, std::move(msg));
    next_shard_ = (next_shard_ + 1) % static_cast<unsigned>(shards_.size());
  }
}

void NetServer::run() {
  for (auto& shard : shards_) {
    shard->thread = std::thread([s = shard.get()] { s->loop(); });
  }

  // The acceptor: distribute sockets until stop() (or a poll failure).
  pollfd pfds[2];
  while (!draining_) {
    pfds[0] = {stop_read_fd_, POLLIN, 0};
    pfds[1] = {listen_fd_, POLLIN, 0};
    const int ready = ::poll(pfds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      {
        std::lock_guard<std::mutex> lock(error_mutex_);
        error_ = std::string("poll: ") + std::strerror(errno);
      }
      break;
    }
    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(stop_read_fd_, buf, sizeof(buf)) > 0) {
      }
      break;
    }
    if (pfds[1].revents & (POLLIN | POLLERR)) accept_ready();
  }
  draining_ = true;

  // Graceful drain: no new connections, every shard flushes what it
  // has (forwarded replies still in flight included), then terminate
  // once the last connection anywhere is gone. The per-shard drain
  // deadline bounds the wait.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (unsigned i = 0; i < shards_.size(); ++i) {
    Msg msg;
    msg.kind = Msg::Kind::Drain;
    post(i, std::move(msg));
  }
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] {
      return live_conns_.load(std::memory_order_relaxed) == 0;
    });
  }
  for (unsigned i = 0; i < shards_.size(); ++i) {
    Msg msg;
    msg.kind = Msg::Kind::Terminate;
    post(i, std::move(msg));
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  if (applier_) applier_->stop();
  if (hub_) hub_->shutdown();
}

ReplStats NetServer::repl_stats_snapshot() const {
  ReplStats out;
  const ReplStats rows[] = {
      hub_ ? hub_->stats_snapshot() : ReplStats{},
      applier_ ? applier_->stats_snapshot() : ReplStats{},
  };
  for (const ReplStats& row : rows) {
    for (const auto& f : obs::repl_fields()) {
      out.*f.member += row.*f.member;
    }
  }
  return out;
}

bool NetServer::repl_caught_up() const {
  return hub_ && hub_->caught_up();
}

void NetServer::Shard::handle_msg(Msg& msg) {
  switch (msg.kind) {
    case Msg::Kind::NewConn: {
      auto conn = std::make_unique<Conn>();
      conn->fd = msg.fd;
      conn->id = msg.conn_id;
      service::ServeProtocol::Options popts;
      popts.echo = server->config_.echo;
      conn->protocol =
          std::make_unique<service::ServeProtocol>(*service, popts);
      conn->last_active_ms = now_ms();
      if (draining) {
        // Raced a shutdown: nothing was served, close on the sweep.
        conn->closing = true;
        conn->dead = true;
      }
      by_id[conn->id] = conn.get();
      conns.push_back(std::move(conn));
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats.active = conns.size();
      break;
    }
    case Msg::Kind::Forward: {
      auto& proto = remote[msg.conn_id];
      if (!proto) {
        service::ServeProtocol::Options popts;
        popts.echo = false;  // the origin shard echoes
        proto = std::make_unique<service::ServeProtocol>(*service, popts);
      }
      Msg reply;
      reply.kind = Msg::Kind::Reply;
      reply.conn_id = msg.conn_id;
      const int errors_before = proto->errors();
      const std::uint64_t t0 = busy_clock_ns();
      try {
        const auto status = proto->handle_line(msg.line, reply.response);
        reply.quit = status == service::ServeProtocol::Status::Quit;
        reply.error_delta = proto->errors() - errors_before;
      } catch (const std::exception& e) {
        reply.response.assign("err internal: ");
        reply.response += e.what();
        reply.response += '\n';
        reply.error_delta = 1;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.busy_ns += busy_clock_ns() - t0;
      }
      server->post(msg.origin, std::move(reply));
      break;
    }
    case Msg::Kind::Reply: {
      auto it = by_id.find(msg.conn_id);
      if (it == by_id.end()) break;  // connection already gone
      Conn& conn = *it->second;
      conn.awaiting_forward = false;
      const bool ack_loss = conn.fwd_ack_loss;
      const unsigned delay = conn.fwd_delay_ms;
      conn.fwd_ack_loss = false;
      conn.fwd_delay_ms = 0;
      if (msg.error_delta != 0) {
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.protocol_errors += static_cast<std::uint64_t>(msg.error_delta);
      }
      if (conn.dead) break;
      if (ack_loss) {
        // Ack loss: the request RAN on its home shard but the response
        // is discarded and the connection cut — the retry path must
        // answer the replayed id from the dedup window.
        conn.dead = true;
        std::lock_guard<std::mutex> lock(stats_mutex);
        ++stats.fault_dropped;
        break;
      }
      if (!msg.response.empty()) {
        conn.wbuf += msg.response;
        std::lock_guard<std::mutex> lock(stats_mutex);
        ++stats.responses_out;
      }
      if (msg.quit) conn.closing = true;
      if (delay > 0) {
        conn.hold_until_ms = std::max(conn.hold_until_ms, now_ms() + delay);
        std::lock_guard<std::mutex> lock(stats_mutex);
        ++stats.fault_delayed;
      }
      // Unparked: pipelined lines may already be buffered behind the
      // forwarded one; resume framing where process_lines left off.
      process_lines(conn);
      if (conn.read_done && !conn.awaiting_forward) conn.closing = true;
      break;
    }
    case Msg::Kind::CloseRemote:
      remote.erase(msg.conn_id);  // detaches durable sessions
      break;
    case Msg::Kind::Drain: {
      if (draining) break;
      draining = true;
      drain_deadline = now_ms() + server->config_.drain_timeout_ms;
      // Stop reading everywhere; connections with nothing queued and
      // nothing in flight close now, the rest get until the deadline.
      // Fault-injected response holds are void during drain.
      for (auto& conn : conns) {
        conn->closing = true;
        conn->hold_until_ms = 0;
        if (conn->pending_write() == 0 && !conn->awaiting_forward) {
          conn->dead = true;
        }
      }
      break;
    }
    case Msg::Kind::Terminate:
      terminate = true;
      break;
  }
}

void NetServer::Shard::drain_mailbox() {
  std::deque<Msg> batch;
  {
    std::lock_guard<std::mutex> lock(mbox_mutex);
    batch.swap(mbox);
  }
  for (Msg& msg : batch) handle_msg(msg);
}

void NetServer::Shard::sweep_dead() {
  const std::size_t before = conns.size();
  std::erase_if(conns, [&](const std::unique_ptr<Conn>& conn) {
    if (!conn->dead) return false;
    ::close(conn->fd);
    conn->fd = -1;
    by_id.erase(conn->id);
    if (conn->did_forward) {
      // Tear down the remote conversations (detaching their durable
      // sessions). Mailbox FIFO ensures any in-flight Forward for this
      // connection executes before its CloseRemote arrives.
      for (unsigned i = 0; i < nshards; ++i) {
        if (i == index) continue;
        Msg msg;
        msg.kind = Msg::Kind::CloseRemote;
        msg.conn_id = conn->id;
        server->post(i, std::move(msg));
      }
    }
    server->live_conns_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.closed;
    if (draining) ++stats.drained;
    return true;
  });
  if (conns.size() != before) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats.active = conns.size();
    }
    // The acceptor may be waiting for the last connection to go.
    {
      std::lock_guard<std::mutex> lock(server->drain_mutex_);
    }
    server->drain_cv_.notify_all();
  }
}

void NetServer::Shard::forward(Conn& conn, unsigned home,
                               std::string_view line,
                               const FaultVerdict& verdict) {
  if (server->config_.echo) {
    // Echo belongs to the origin (it owns the response ordering); the
    // remote conversation runs with echo off.
    conn.wbuf += "> ";
    conn.wbuf += line;
    conn.wbuf += '\n';
  }
  conn.awaiting_forward = true;
  conn.did_forward = true;
  conn.fwd_ack_loss = verdict.duplicate;
  conn.fwd_delay_ms = verdict.delay;
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.forwarded;
  }
  Msg msg;
  msg.kind = Msg::Kind::Forward;
  msg.conn_id = conn.id;
  msg.origin = index;
  msg.line.assign(line);
  server->post(home, std::move(msg));
}

void NetServer::Shard::handle_line(Conn& conn, std::string_view line) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.lines_in;
  }
  if (conn.pending_write() >= server->config_.write_buffer_reject) {
    conn.wbuf += kBackpressure;
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.backpressure_rejects;
    return;
  }
  if (line.rfind("repl-hello", 0) == 0) {
    // A replica is dialing in: this connection stops being a protocol
    // conversation and becomes the replication channel. Never
    // fault-injected — the chaos plan targets the channel's own frame
    // stream (hub injector), not the handshake.
    handle_repl_hello(conn, line);
    return;
  }
  FaultVerdict verdict;
  if (injector) verdict = injector->roll();
  if (verdict.drop) {
    // Cut BEFORE the request executes: the client sees a dead
    // connection with no state change — a plain resend is safe.
    conn.dead = true;
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.fault_dropped;
    return;
  }
  if (nshards > 1 && server->config_.service.journal.enabled()) {
    // Journaled sessions are pinned to shards by name hash; a line
    // addressing a name homed elsewhere is forwarded and the
    // connection parks until the reply (preserving in-order 1:1
    // pipelining). Plain servers never route: their session names are
    // per-connection namespaces that live and die on this shard.
    const std::string_view name = route_name(line);
    if (!name.empty()) {
      const unsigned home = service::shard_for_name(name, nshards);
      if (home != index) {
        forward(conn, home, line, verdict);
        return;
      }
    }
  }
  execute_local(conn, line, verdict);
}

void NetServer::Shard::handle_repl_hello(Conn& conn, std::string_view line) {
  // Expect exactly "repl-hello parulel/2".
  std::istringstream in{std::string(line)};
  std::string cmd;
  std::string version;
  std::string extra;
  in >> cmd >> version >> extra;
  if (version != service::ServeProtocol::kProtocolVersion || !extra.empty()) {
    conn.wbuf += "err unsupported protocol version: " + version +
                 " (replication speaks " +
                 std::string(service::ServeProtocol::kProtocolVersion) + ")\n";
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.protocol_errors;
    ++stats.responses_out;
    return;
  }
  if (!server->hub_) {
    conn.wbuf += "err replication requires a journaled server\n";
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.protocol_errors;
    ++stats.responses_out;
    return;
  }
  // Detach the socket from the event loop: flip it to blocking, flush
  // anything queued plus the handshake reply, and hand it to the hub.
  // The Conn shell dies on the next sweep (fd -1: nothing to close).
  const int fd = conn.fd;
  conn.fd = -1;
  conn.dead = true;
  const int fl = ::fcntl(fd, F_GETFL, 0);
  if (fl >= 0) ::fcntl(fd, F_SETFL, fl & ~O_NONBLOCK);
  std::string response = conn.wbuf.substr(conn.woff);
  response += "ok repl-hello ";
  response += service::ServeProtocol::kProtocolVersion;
  response += '\n';
  conn.wbuf.clear();
  conn.woff = 0;
  const char* p = response.data();
  std::size_t left = response.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.responses_out;
  }
  server->hub_->adopt(fd);
  // Initial catch-up: full-sync every durable name the new channel has
  // not seen (all of them — the synced set is per-connection). Each
  // file read happens under its session's lock, so concurrent commits
  // serialize against it and nothing is lost in between: a name whose
  // commit beats the sync ships its file inline via ship_batch, and
  // sync_name skips names the connection already synced.
  for (unsigned i = 0; i < nshards; ++i) {
    auto& svc = server->shard_service(i);
    for (const std::string& name : svc.durable_names()) {
      std::string bytes;
      if (svc.read_journal_file(name, &bytes)) {
        server->hub_->sync_name(name, bytes);
      }
    }
  }
}

void NetServer::Shard::execute_local(Conn& conn, std::string_view line,
                                     const FaultVerdict& verdict) {
  const std::size_t before = conn.wbuf.size();
  service::ServeProtocol::Status status;
  const std::uint64_t t0 = busy_clock_ns();
  try {
    status = conn.protocol->handle_line(line, conn.wbuf);
  } catch (const std::exception& e) {
    // One client's runtime failure must never take the server down —
    // surface it as a structured error on that connection only.
    conn.wbuf.resize(before);
    conn.wbuf += "err internal: ";
    conn.wbuf += e.what();
    conn.wbuf += '\n';
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.protocol_errors;
    ++stats.responses_out;
    stats.busy_ns += busy_clock_ns() - t0;
    return;
  }
  const int errors_now = conn.protocol->errors();
  {
    std::lock_guard<std::mutex> lock(stats_mutex);
    if (conn.wbuf.size() > before) ++stats.responses_out;
    stats.protocol_errors +=
        static_cast<std::uint64_t>(errors_now - conn.prev_errors);
    stats.busy_ns += busy_clock_ns() - t0;
  }
  conn.prev_errors = errors_now;
  if (status == service::ServeProtocol::Status::Quit) {
    conn.closing = true;
  }
  if (verdict.duplicate) {
    // Ack loss, the nastiest case for exactly-once: the request RAN
    // (durable state changed, journal written) but its response is
    // discarded and the connection cut — the client must retry the same
    // request id and be answered from the dedup window.
    conn.wbuf.resize(before);
    conn.dead = true;
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.fault_dropped;
  } else if (verdict.delay > 0) {
    conn.hold_until_ms =
        std::max(conn.hold_until_ms, now_ms() + verdict.delay);
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.fault_delayed;
  }
}

void NetServer::Shard::process_lines(Conn& conn) {
  while (!conn.closing && !conn.dead && !conn.awaiting_forward) {
    if (conn.skipping_oversize) {
      const std::size_t nl = conn.rbuf.find('\n');
      if (nl == std::string::npos) {
        conn.rbuf.clear();
        return;
      }
      conn.rbuf.erase(0, nl + 1);
      conn.skipping_oversize = false;
      continue;
    }
    const std::size_t nl = conn.rbuf.find('\n');
    if (nl == std::string::npos) {
      if (conn.rbuf.size() > server->config_.max_line_bytes) {
        // The line already exceeds the cap with no end in sight:
        // answer now, discard until the newline eventually arrives.
        conn.rbuf.clear();
        conn.skipping_oversize = true;
        conn.wbuf += kLineTooLong;
        std::lock_guard<std::mutex> lock(stats_mutex);
        ++stats.oversize_lines;
      }
      return;
    }
    std::string line = conn.rbuf.substr(0, nl);
    conn.rbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    conn.last_active_ms = now_ms();
    if (line.size() > server->config_.max_line_bytes) {
      conn.wbuf += kLineTooLong;
      std::lock_guard<std::mutex> lock(stats_mutex);
      ++stats.oversize_lines;
      continue;
    }
    handle_line(conn, line);
  }
}

void NetServer::Shard::conn_readable(Conn& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.rbuf.append(buf, static_cast<std::size_t>(n));
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats.bytes_in += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n == 0) {
      // Half-close: the client sent everything and shut down its write
      // side. Finish the lines we have, flush responses, then close.
      conn.read_done = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.dead = true;  // reset / hard error: nothing left to salvage
    return;
  }
  process_lines(conn);
  // A parked connection keeps its EOF pending: the forwarded reply (and
  // any lines buffered behind it) must land before the close.
  if (conn.read_done && !conn.awaiting_forward) conn.closing = true;
}

void NetServer::Shard::conn_writable(Conn& conn) {
  while (conn.pending_write() > 0) {
    const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                             conn.pending_write(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.woff += static_cast<std::size_t>(n);
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // EPIPE / reset: the reader is gone
    return;
  }
  if (conn.pending_write() == 0) {
    conn.wbuf.clear();
    conn.woff = 0;
    if (conn.closing && !conn.awaiting_forward) conn.dead = true;
  } else if (conn.pending_write() > server->config_.write_buffer_close) {
    conn.dead = true;
    std::lock_guard<std::mutex> lock(stats_mutex);
    ++stats.overflow_closed;
  }
}

void NetServer::Shard::loop() {
  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;

  for (;;) {
    drain_mailbox();
    if (terminate) {
      // Drain completed everywhere (the acceptor saw zero live
      // connections): destroy the remote conversations (detaching
      // their durable sessions) and exit. conns is empty by now save
      // for pathological force-kills, which close unceremoniously.
      for (auto& conn : conns) {
        ::close(conn->fd);
        conn->fd = -1;
        server->live_conns_.fetch_sub(1, std::memory_order_relaxed);
      }
      conns.clear();
      by_id.clear();
      remote.clear();
      std::lock_guard<std::mutex> lock(stats_mutex);
      stats.active = 0;
      return;
    }
    sweep_dead();

    pfds.clear();
    polled.clear();
    pfds.push_back({wake_read_fd, POLLIN, 0});
    const std::uint64_t poll_now = now_ms();
    std::uint64_t hold_wake = 0;  ///< earliest fault-hold expiry, 0 = none
    for (auto& conn : conns) {
      if (conn->hold_until_ms > poll_now) {
        // Fault-injected delay: the response (and further reads) wait
        // until the hold expires; the poll timeout wakes us for it.
        if (hold_wake == 0 || conn->hold_until_ms < hold_wake) {
          hold_wake = conn->hold_until_ms;
        }
        continue;
      }
      conn->hold_until_ms = 0;
      short events = 0;
      if (!conn->closing && !conn->read_done && !conn->awaiting_forward) {
        events |= POLLIN;
      }
      if (conn->pending_write() > 0) events |= POLLOUT;
      if (events == 0) {
        if (!conn->awaiting_forward) {
          // closing with nothing left to write: close on the next sweep
          conn->dead = true;
        }
        // parked with nothing to write: the mailbox wake unparks it
        continue;
      }
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn.get());
    }

    int timeout = -1;
    const std::uint64_t now = now_ms();
    if (draining) {
      if (!conns.empty()) {
        timeout = drain_deadline > now ? static_cast<int>(drain_deadline - now)
                                       : 0;
      }
      // empty while draining: block on the wake pipe until Terminate
      // (or a Forward from a shard still draining its connections).
    } else if (server->config_.idle_timeout_ms > 0) {
      std::uint64_t next = server->config_.idle_timeout_ms;
      for (const auto& conn : conns) {
        const std::uint64_t age = now - conn->last_active_ms;
        const std::uint64_t left =
            age >= server->config_.idle_timeout_ms
                ? 0
                : server->config_.idle_timeout_ms - age;
        next = std::min(next, left);
      }
      timeout = static_cast<int>(next);
    }
    if (hold_wake != 0) {
      const std::uint64_t left = hold_wake > now ? hold_wake - now : 0;
      if (timeout < 0 || static_cast<std::uint64_t>(timeout) > left) {
        timeout = static_cast<int>(left);
      }
    }

    const int ready = ::poll(pfds.data(), pfds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      // A shard's poll failing is a server-level failure: record it and
      // drain everything.
      {
        std::lock_guard<std::mutex> lock(server->error_mutex_);
        if (server->error_.empty()) {
          server->error_ = std::string("poll: ") + std::strerror(errno);
        }
      }
      server->stop();
      continue;
    }

    if (pfds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_read_fd, buf, sizeof(buf)) > 0) {
      }
      // The mailbox drains at the top of the next iteration.
    }

    for (std::size_t i = 0; i < polled.size(); ++i) {
      Conn& conn = *polled[i];
      if (conn.dead) continue;
      const short revents = pfds[1 + i].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        // POLLHUP with readable data still pending is delivered along
        // with POLLIN; drain reads first, then let recv() see the EOF.
        if (!(revents & POLLIN)) {
          conn.dead = true;
          continue;
        }
      }
      if (revents & POLLIN) conn_readable(conn);
      if (!conn.dead && (conn.pending_write() > 0 ||
                         (conn.closing && !conn.awaiting_forward))) {
        conn_writable(conn);
      }
    }

    // Idle collection (not during drain — drain has its own deadline;
    // not while parked — a forwarded line is actively in flight).
    if (!draining && server->config_.idle_timeout_ms > 0) {
      const std::uint64_t cutoff = now_ms();
      for (auto& conn : conns) {
        if (conn->dead || conn->closing || conn->awaiting_forward) continue;
        if (cutoff - conn->last_active_ms >=
            server->config_.idle_timeout_ms) {
          conn->dead = true;
          std::lock_guard<std::mutex> lock(stats_mutex);
          ++stats.idle_closed;
        }
      }
    }
    if (draining && !conns.empty() && now_ms() >= drain_deadline) {
      for (auto& conn : conns) conn->dead = true;
    }
  }
}

}  // namespace parulel::net
