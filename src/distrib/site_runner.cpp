#include "distrib/site_runner.hpp"

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "engine/actions.hpp"
#include "support/error.hpp"

namespace parulel {

namespace {

// Retransmission backoff in barrier cycles — the same 2..16 doubling
// the simulated engine uses (dist_engine.cpp): a batch sent at cycle c
// is normally acked by c+2, so the first timeout fires then.
constexpr std::uint64_t kInitialBackoff = 2;
constexpr std::uint64_t kMaxBackoff = 16;

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Derive the per-site injector seed: every site draws an independent
/// stream, but (plan seed, site id) always yields the same one.
std::uint64_t site_seed(std::uint64_t plan_seed, unsigned site_id) {
  std::uint64_t z = plan_seed + 0x9E3779B97F4A7C15ull * (site_id + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// Block until one line arrives on `conn` (handshakes only — steady
/// state is fully nonblocking). Extra lines that rode the same read
/// land in `spill` for the caller to dispatch.
bool wait_line(net::LineConn& conn, int timeout_ms, std::string& line,
               std::vector<std::string>& spill) {
  const int step = 50;
  for (int waited = 0; waited <= timeout_ms; waited += step) {
    std::vector<std::string> lines;
    const bool alive = conn.read_lines(lines);
    if (!lines.empty()) {
      line = std::move(lines.front());
      spill.insert(spill.end(), std::make_move_iterator(lines.begin() + 1),
                   std::make_move_iterator(lines.end()));
      return true;
    }
    if (!alive) return false;
    pollfd pfd{conn.fd(), POLLIN, 0};
    ::poll(&pfd, 1, step);
  }
  return false;
}

}  // namespace

SiteRunner::SiteRunner(const Program& program, std::string program_text,
                       SiteOptions options)
    : program_(program),
      program_text_(std::move(program_text)),
      opt_(std::move(options)),
      scheme_(program_, opt_.partition),
      meta_(program_) {
  if (opt_.sites == 0) opt_.sites = 1;
  if (opt_.site_id >= opt_.sites) {
    throw RuntimeError("site id " + std::to_string(opt_.site_id) +
                       " out of range for " + std::to_string(opt_.sites) +
                       " sites");
  }
  if (opt_.faults.any_network_faults()) {
    FaultPlan plan = opt_.faults;
    plan.crashes.clear();  // real kills are the driver's job
    plan.seed = site_seed(plan.seed, opt_.site_id);
    injector_ = std::make_unique<FaultInjector>(plan);
  }
}

SiteRunner::~SiteRunner() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SiteRunner::assert_initial_facts() {
  std::vector<ClusterOp> local;
  for (const auto& fact : program_.initial_facts) {
    const bool mine =
        scheme_.replicated(fact.tmpl) ||
        scheme_.site_of(fact.tmpl, fact.slots, opt_.sites) == opt_.site_id;
    if (!mine) continue;
    wm_->assert_fact(fact.tmpl, fact.slots);
    local.push_back({ClusterOp::Kind::Assert, fact.tmpl, fact.slots});
  }
  // Journal the initial slice even when empty: the record's existence is
  // what makes a site that crashes before its first real batch recover
  // with epoch >= 2, keeping old and new sequence streams disjoint.
  if (journal_) {
    SiteBatchRecord rec;
    rec.seq = ++wal_seq_;
    rec.epoch = epoch_;
    rec.cycle = 0;
    rec.local = std::move(local);
    journal_->append(
        encode_site_batch(rec, *program_.symbols, program_.schema));
    ++counters_.batches;
  }
}

bool SiteRunner::setup() {
  wm_ = std::make_unique<WorkingMemory>(program_.schema);
  matcher_ = make_matcher(MatcherKind::Treat, program_);
  recv_.resize(opt_.sites);
  peers_.resize(opt_.sites);

  const std::string wal_name = "site-" + std::to_string(opt_.site_id);
  if (!opt_.journal_path.empty() && file_exists(opt_.journal_path)) {
    // Crashed (or restarted) incarnation: replay the WAL, bump the
    // epoch, and journal an epoch marker BEFORE talking to anyone.
    SiteRecovery rec = recover_site_wal(opt_.journal_path, program_,
                                        program_text_, opt_.sites);
    wm_ = std::move(rec.wm);
    recv_ = std::move(rec.recv);
    epoch_ = rec.next_epoch;
    wal_seq_ = rec.last_seq;
    journal_ = service::SessionJournal::open_append(
        opt_.journal_path, opt_.fsync, &journal_stats_);
    SiteBatchRecord marker;
    marker.seq = ++wal_seq_;
    marker.epoch = epoch_;
    marker.cycle = rec.cycle;
    journal_->append(
        encode_site_batch(marker, *program_.symbols, program_.schema));
    ++counters_.batches;
    std::string torn;
    if (rec.torn_bytes) {
      torn = " (torn " + rec.torn_kind + "@" +
             std::to_string(rec.torn_offset) + "+" +
             std::to_string(rec.torn_bytes) + ")";
    }
    std::fprintf(stderr,
                 "site %u: recovered %llu batches from %s, epoch %u%s\n",
                 opt_.site_id,
                 static_cast<unsigned long long>(rec.batches),
                 opt_.journal_path.c_str(), epoch_, torn.c_str());
  } else {
    if (!opt_.journal_path.empty()) {
      journal_ = service::SessionJournal::create(
          opt_.journal_path, wal_name, program_text_, opt_.fsync,
          &journal_stats_);
    }
    assert_initial_facts();
  }

  std::string error;
  listen_fd_ = net::listen_tcp(opt_.listen_port, &listen_port_, &error);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "site %u: %s\n", opt_.site_id, error.c_str());
    return false;
  }

  const int fd =
      net::dial_tcp(opt_.driver_host, opt_.driver_port, &error, 10000);
  if (fd < 0) {
    std::fprintf(stderr, "site %u: driver: %s\n", opt_.site_id,
                 error.c_str());
    return false;
  }
  driver_ = net::LineConn(fd);
  driver_.write_line("cluster-hello parulel/2 site=" +
                     std::to_string(opt_.site_id) +
                     " epoch=" + std::to_string(epoch_) +
                     " port=" + std::to_string(listen_port_));
  std::string reply;
  std::vector<std::string> spill;
  if (!wait_line(driver_, 15000, reply, spill)) {
    std::fprintf(stderr, "site %u: driver closed during hello\n",
                 opt_.site_id);
    return false;
  }
  if (!starts_with(reply, "ok cluster-hello")) {
    std::fprintf(stderr, "site %u: driver refused hello: %s\n", opt_.site_id,
                 reply.c_str());
    return false;
  }
  const std::uint64_t sites = wire_field_u64(reply, "sites");
  if (sites != opt_.sites) {
    std::fprintf(stderr, "site %u: driver runs %llu sites, we expect %u\n",
                 opt_.site_id, static_cast<unsigned long long>(sites),
                 opt_.sites);
    return false;
  }
  for (const std::string& line : spill) handle_driver_line(line);
  return true;
}

int SiteRunner::run() {
  try {
    if (!setup()) return 4;
    while (!stopping_) {
      if (!pump(1000)) break;
    }
    return 0;
  } catch (const service::JournalError& e) {
    std::fprintf(stderr, "site %u: journal: %s\n", opt_.site_id, e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "site %u: %s\n", opt_.site_id, e.what());
    return 4;
  }
}

void SiteRunner::accept_pending() {
  for (;;) {
    const int fd = net::accept_conn(listen_fd_);
    if (fd < 0) break;
    handshaking_.emplace_back(fd);
  }
}

// Accept new inbound conns and answer any cc-hello waiting on them.
// Called from pump() AND from inside ensure_peer_conn's wait loop: when
// every site dials its peers at the same barrier, each must keep
// answering inbound hellos while waiting for its own outbound one, or
// the whole ring deadlocks until the handshake timeout.
void SiteRunner::process_handshakes() {
  accept_pending();
  // The epoch fence turns a zombie incarnation's redial away with
  // `err epoch-stale`; stray dialers get `err site-unreachable`.
  for (auto& conn : handshaking_) {
    if (!conn.valid()) continue;
    std::vector<std::string> lines;
    const bool alive = conn.read_lines(lines);
    if (lines.empty()) {
      if (!alive) conn.close();
      continue;
    }
    const std::string& hello = lines.front();
    const std::uint64_t from = wire_field_u64(hello, "from", opt_.sites);
    const auto epoch =
        static_cast<std::uint32_t>(wire_field_u64(hello, "epoch"));
    if (!starts_with(hello, "cc-hello") || from >= opt_.sites ||
        from == opt_.site_id) {
      conn.write_line("err site-unreachable");
      conn.close();
      continue;
    }
    Peer& peer = peers_[from];
    if (epoch < peer.epoch_seen) {
      conn.write_line("err epoch-stale");
      conn.close();
      continue;
    }
    peer.epoch_seen = epoch;
    conn.write_line("ok cc-hello");
    peer.in = std::move(conn);
    for (std::size_t i = 1; i < lines.size(); ++i) {
      handle_peer_line(static_cast<unsigned>(from), lines[i]);
    }
  }
  std::erase_if(handshaking_,
                [](const net::LineConn& c) { return !c.valid(); });
}

bool SiteRunner::pump(int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.push_back({driver_.fd(), POLLIN, 0});
  pfds.push_back({listen_fd_, POLLIN, 0});
  for (const auto& conn : handshaking_) {
    if (conn.valid()) pfds.push_back({conn.fd(), POLLIN, 0});
  }
  for (const Peer& p : peers_) {
    if (p.in.valid()) pfds.push_back({p.in.fd(), POLLIN, 0});
    if (p.out.valid()) pfds.push_back({p.out.fd(), POLLIN, 0});
  }
  int rc;
  do {
    rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (rc < 0 && errno == EINTR);

  process_handshakes();

  for (unsigned s = 0; s < peers_.size(); ++s) {
    Peer& p = peers_[s];
    if (p.in.valid()) {
      std::vector<std::string> lines;
      p.in.read_lines(lines);
      for (const std::string& line : lines) handle_peer_line(s, line);
    }
    if (p.out.valid()) {
      std::vector<std::string> lines;
      p.out.read_lines(lines);
      for (const std::string& line : lines) handle_ack_line(s, line);
    }
  }

  std::vector<std::string> lines;
  const bool driver_alive = driver_.read_lines(lines);
  for (const std::string& line : lines) {
    handle_driver_line(line);
    if (stopping_) break;
  }
  return driver_alive && !stopping_;
}

void SiteRunner::handle_driver_line(const std::string& line) {
  if (starts_with(line, "barrier ")) {
    const std::uint64_t cycle = std::strtoull(line.c_str() + 8, nullptr, 10);
    run_cycle(cycle);
    std::uint64_t pending = delayed_.size();
    for (const Peer& p : peers_) pending += p.pending.size();
    driver_.write_line(
        "barrier-done cycle=" + std::to_string(cycle) +
        " fired=" + std::to_string(fired_this_cycle_) +
        " applied=" + std::to_string(applied_this_cycle_) +
        " pending=" + std::to_string(pending) +
        " inbox=" + std::to_string(inbox_.size()) +
        " halted=" + std::to_string(halted_ ? 1 : 0) +
        " facts=" + std::to_string(wm_->alive_count()) +
        " sent=" + std::to_string(counters_.sent) +
        " applied-total=" + std::to_string(counters_.applied) +
        " dup=" + std::to_string(counters_.dup) +
        " retries=" + std::to_string(counters_.retries) +
        " dropped=" + std::to_string(counters_.dropped) +
        " delayed=" + std::to_string(counters_.delayed) +
        " redials=" + std::to_string(counters_.redials) +
        " batches=" + std::to_string(counters_.batches) +
        " snapshots=" + std::to_string(counters_.snapshots) +
        " firings=" + std::to_string(counters_.firings));
  } else if (starts_with(line, "cluster-peers")) {
    // `cluster-peers 0=host:port 1=host:port ...` — rebroadcast after
    // every (re)join, so ports track respawned incarnations.
    std::size_t at = line.find(' ');
    while (at != std::string::npos) {
      const std::size_t end = line.find(' ', at + 1);
      const std::string tok = line.substr(
          at + 1, end == std::string::npos ? std::string::npos : end - at - 1);
      at = end;
      const std::size_t eq = tok.find('=');
      const std::size_t colon = tok.rfind(':');
      if (eq == std::string::npos || colon == std::string::npos ||
          colon < eq) {
        continue;
      }
      const unsigned idx =
          static_cast<unsigned>(std::strtoul(tok.c_str(), nullptr, 10));
      if (idx >= opt_.sites || idx == opt_.site_id) continue;
      Peer& p = peers_[idx];
      const std::string host = tok.substr(eq + 1, colon - eq - 1);
      const auto port = static_cast<std::uint16_t>(
          std::strtoul(tok.c_str() + colon + 1, nullptr, 10));
      if (host != p.host || port != p.port) {
        p.host = host;
        p.port = port;
        p.out.close();  // old incarnation's conn, if any, is dead anyway
      }
    }
  } else if (starts_with(line, "cc-dump")) {
    dump(driver_);
  } else if (starts_with(line, "cc-stop")) {
    driver_.write_line("ok cc-stop");
    stopping_ = true;
  }
}

void SiteRunner::handle_peer_line(unsigned from, const std::string& line) {
  if (!starts_with(line, "cc-batch")) return;
  try {
    InboxMsg msg;
    msg.from = from;
    msg.epoch = static_cast<std::uint32_t>(wire_field_u64(line, "epoch", 1));
    msg.seq = wire_field_u64(line, "seq");
    const std::string kind = wire_field_str(line, "kind");
    const std::string fact = wire_field_str(line, "fact");
    auto [tmpl, slots] =
        decode_fact_wire(from_hex(fact), *program_.symbols, program_.schema);
    msg.op.kind = kind == "retract" ? ClusterOp::Kind::Retract
                                    : ClusterOp::Kind::Assert;
    msg.op.tmpl = tmpl;
    msg.op.slots = std::move(slots);
    if (msg.epoch > peers_[from].epoch_seen) {
      peers_[from].epoch_seen = msg.epoch;
    }
    inbox_.push_back(std::move(msg));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "site %u: bad cc-batch from %u: %s\n", opt_.site_id,
                 from, e.what());
  }
}

void SiteRunner::handle_ack_line(unsigned to, const std::string& line) {
  if (!starts_with(line, "cc-ack")) return;
  const auto epoch = static_cast<std::uint32_t>(wire_field_u64(line, "epoch"));
  if (epoch != epoch_) return;  // ack for an incarnation we are not
  AppliedSeqs acked;
  acked.floor = wire_field_u64(line, "floor");
  const std::string sparse = wire_field_str(line, "sparse");
  std::size_t at = 0;
  while (at < sparse.size()) {
    const std::size_t comma = sparse.find(',', at);
    acked.sparse.insert(std::strtoull(sparse.c_str() + at, nullptr, 10));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  // Ack-after-durable: everything the receiver acked is in its WAL, so
  // pruning here is final — no replay obligation survives (contrast the
  // simulated engine, which retains acked entries until the receiver
  // checkpoints).
  std::erase_if(peers_[to].pending, [&](const auto& kv) {
    return acked.contains(kv.first);
  });
}

void SiteRunner::route_op(const BufferedOp& op,
                          std::vector<ClusterOp>& local_ops) {
  // Ops this site owns apply in place, preserving op order here, and
  // are recorded for the WAL (replay must reproduce them); ops owned
  // elsewhere join their channel's pending map.
  auto route_assert = [&] {
    const std::span<const Value> slots = fired_.slots(op);
    auto deliver = [&](unsigned to) {
      if (to == opt_.site_id) {
        wm_->assert_hashed(op.tmpl, slots, fired_.slot_hashes(op),
                           op.content_hash);
        if (journal_) {
          local_ops.push_back(
              {ClusterOp::Kind::Assert, op.tmpl, {slots.begin(), slots.end()}});
        }
      } else {
        enqueue_send(to, {ClusterOp::Kind::Assert, op.tmpl,
                          {slots.begin(), slots.end()}});
      }
    };
    if (scheme_.replicated(op.tmpl)) {
      for (unsigned s = 0; s < opt_.sites; ++s) deliver(s);
    } else {
      deliver(scheme_.site_of(op.tmpl, slots, opt_.sites));
    }
  };
  // Retracts carry content: the retracted record stays readable.
  auto route_retract = [&] {
    const FactView fact = wm_->view(op.retract_id);
    auto deliver = [&](unsigned to) {
      if (to == opt_.site_id) {
        if (auto id = wm_->find(fact)) wm_->retract(*id);
        if (journal_) {
          local_ops.push_back(
              {ClusterOp::Kind::Retract, fact.tmpl(), fact.copy_slots()});
        }
      } else {
        enqueue_send(to, {ClusterOp::Kind::Retract, fact.tmpl(),
                          fact.copy_slots()});
      }
    };
    if (scheme_.replicated(fact.tmpl())) {
      for (unsigned s = 0; s < opt_.sites; ++s) deliver(s);
    } else {
      deliver(scheme_.site_of(fact, opt_.sites));
    }
  };
  switch (op.kind) {
    case BufferedOp::Kind::Assert:
      route_assert();
      break;
    case BufferedOp::Kind::Retract:
      route_retract();
      break;
    case BufferedOp::Kind::Modify:
      route_retract();
      route_assert();
      break;
  }
}

void SiteRunner::enqueue_send(unsigned to, ClusterOp op) {
  Peer& p = peers_[to];
  OutEntry entry;
  entry.op = std::move(op);
  entry.seq = p.next_seq++;
  entry.backoff = kInitialBackoff;
  entry.next_retry = cycle_;  // transmit this cycle
  const std::uint64_t seq = entry.seq;
  p.pending.emplace(seq, std::move(entry));
}

std::string SiteRunner::batch_line(const OutEntry& entry) const {
  return "cc-batch from=" + std::to_string(opt_.site_id) +
         " epoch=" + std::to_string(epoch_) +
         " seq=" + std::to_string(entry.seq) + " kind=" +
         (entry.op.kind == ClusterOp::Kind::Retract ? "retract" : "assert") +
         " fact=" +
         to_hex(encode_fact_wire(entry.op.tmpl, entry.op.slots,
                                 *program_.symbols, program_.schema));
}

void SiteRunner::ensure_peer_conn(unsigned to) {
  Peer& p = peers_[to];
  if (p.out.valid() || p.port == 0) return;
  std::string error;
  // Only a dial that replaces a conn this process once had is a redial;
  // a site's first dial to each peer is plain start-up.
  if (p.dialed) ++counters_.redials;
  const int fd = net::dial_tcp(p.host.empty() ? "127.0.0.1" : p.host, p.port,
                               &error, 2000);
  if (fd < 0) return;  // peer down; backoff retries cover it
  net::LineConn conn(fd);
  conn.write_line("cc-hello from=" + std::to_string(opt_.site_id) +
                  " epoch=" + std::to_string(epoch_));
  // Wait for the peer's verdict — but keep answering inbound hellos
  // meanwhile: at barrier 0 every site is inside this function dialing
  // someone, and only mutual service breaks the circular wait.
  std::string reply;
  std::vector<std::string> spill;
  bool got = false;
  for (int waited = 0; waited <= 2000; waited += 50) {
    process_handshakes();
    std::vector<std::string> lines;
    const bool alive = conn.read_lines(lines);
    if (!lines.empty()) {
      reply = std::move(lines.front());
      spill.insert(spill.end(), std::make_move_iterator(lines.begin() + 1),
                   std::make_move_iterator(lines.end()));
      got = true;
      break;
    }
    if (!alive) return;
    pollfd pfds[2] = {{conn.fd(), POLLIN, 0}, {listen_fd_, POLLIN, 0}};
    ::poll(pfds, 2, 50);
  }
  if (!got) return;
  if (starts_with(reply, "err epoch-stale")) {
    // The peer has heard from a NEWER incarnation of this site id: we
    // are a zombie (e.g. resumed after a long stall past our own
    // replacement). Participating would fork the sequence streams.
    std::fprintf(stderr, "site %u: fenced by peer %u (epoch-stale)\n",
                 opt_.site_id, to);
    stopping_ = true;
    return;
  }
  if (!starts_with(reply, "ok cc-hello")) return;
  p.out = std::move(conn);
  p.dialed = true;
  for (const std::string& line : spill) handle_ack_line(to, line);
}

void SiteRunner::transmit(unsigned to, OutEntry& entry) {
  Peer& p = peers_[to];
  if (entry.attempted) {
    ++counters_.retries;
    entry.backoff = std::min(entry.backoff * 2, kMaxBackoff);
  }
  entry.attempted = true;
  entry.next_retry = cycle_ + entry.backoff;
  ++counters_.sent;
  const FaultVerdict v = injector_ ? injector_->roll() : FaultVerdict{};
  if (v.drop) {
    ++counters_.dropped;
    return;
  }
  const std::string line = batch_line(entry);
  if (v.delay > 0) {
    ++counters_.delayed;
    delayed_.push_back({cycle_ + 1 + v.delay, to, line});
    return;
  }
  if (!p.out.valid() || !p.out.write_line(line)) {
    ++counters_.dropped;  // dead conn: lost on the wire, retried later
    return;
  }
  if (v.duplicate) {
    ++counters_.sent;
    p.out.write_line(line);
  }
}

void SiteRunner::send_due(std::uint64_t cycle) {
  std::vector<Delayed> keep;
  keep.reserve(delayed_.size());
  for (Delayed& d : delayed_) {
    if (d.due > cycle) {
      keep.push_back(std::move(d));
      continue;
    }
    ensure_peer_conn(d.to);
    Peer& p = peers_[d.to];
    if (p.out.valid()) p.out.write_line(d.line);
    // A dead conn drops the delayed copy; retransmission covers it.
  }
  delayed_.swap(keep);
}

void SiteRunner::journal_cycle(std::uint64_t cycle,
                               std::vector<SiteAppliedMsg> applied,
                               std::vector<ClusterOp> local_ops) {
  if (!journal_ || (applied.empty() && local_ops.empty())) return;
  SiteBatchRecord rec;
  rec.seq = ++wal_seq_;
  rec.epoch = epoch_;
  rec.cycle = cycle;
  rec.applied = std::move(applied);
  rec.local = std::move(local_ops);
  journal_->append(encode_site_batch(rec, *program_.symbols, program_.schema));
  ++counters_.batches;
  ++batches_since_snapshot_;
  if (opt_.checkpoint_every > 0 &&
      batches_since_snapshot_ >= opt_.checkpoint_every) {
    SiteSnapshotRecord snap;
    snap.seq = wal_seq_;
    snap.epoch = epoch_;
    snap.cycle = cycle;
    snap.facts.reserve(wm_->alive_count());
    for (FactId id = 1; id <= wm_->high_water(); ++id) {
      if (!wm_->alive(id)) continue;
      const FactView fact = wm_->view(id);
      snap.facts.emplace_back(fact.tmpl(), fact.copy_slots());
    }
    snap.recv = recv_;
    journal_->rewrite_with_snapshot(
        "site-" + std::to_string(opt_.site_id), program_text_,
        encode_site_snapshot(snap, *program_.symbols, program_.schema));
    batches_since_snapshot_ = 0;
    ++counters_.snapshots;
  }
}

void SiteRunner::send_acks() {
  for (unsigned s = 0; s < peers_.size(); ++s) {
    Peer& p = peers_[s];
    if (!p.ack_needed || !p.in.valid()) continue;
    const AppliedSeqs& a = recv_[s].by_epoch[p.ack_epoch];
    std::string line = "cc-ack epoch=" + std::to_string(p.ack_epoch) +
                       " floor=" + std::to_string(a.floor);
    if (!a.sparse.empty()) {
      line += " sparse=";
      bool first = true;
      for (const std::uint64_t seq : a.sparse) {
        if (!first) line += ',';
        line += std::to_string(seq);
        first = false;
      }
    }
    if (p.in.write_line(line)) p.ack_needed = false;
  }
}

void SiteRunner::run_cycle(std::uint64_t cycle) {
  cycle_ = cycle;
  fired_this_cycle_ = 0;
  applied_this_cycle_ = 0;

  // Phase 0: delayed transmissions falling due this cycle.
  send_due(cycle);

  // Phase 1: drain the inbox — dedup by (from, epoch, seq), apply fresh
  // messages, remember them for the WAL, and owe each sender an ack
  // (duplicates re-ack: the earlier ack may have predated a retransmit).
  std::vector<SiteAppliedMsg> applied;
  for (InboxMsg& msg : inbox_) {
    Peer& p = peers_[msg.from];
    p.ack_needed = true;
    p.ack_epoch = msg.epoch;
    AppliedSeqs& seqs = recv_[msg.from].by_epoch[msg.epoch];
    if (seqs.contains(msg.seq)) {
      ++counters_.dup;
      continue;
    }
    seqs.add(msg.seq);
    apply_cluster_op(*wm_, msg.op);
    applied.push_back({msg.from, msg.epoch, msg.seq, std::move(msg.op)});
  }
  inbox_.clear();
  applied_this_cycle_ = applied.size();
  counters_.applied += applied.size();

  // Phase 2: match + meta-redact + fire against the local snapshot —
  // the same recognize-act phase a simulated site runs (dist_engine.cpp
  // phase 2), minus the thread pool: this whole process IS one site.
  fired_.clear();
  matcher_->apply_delta(*wm_, wm_->drain_delta());
  ConflictSet& cs = matcher_->conflict_set();
  const std::vector<InstId> eligible = cs.alive_ids();
  if (!eligible.empty()) {
    const std::vector<InstId> to_fire = meta_.run(*wm_, cs, eligible).to_fire;
    for (std::size_t i = 0; i < to_fire.size(); ++i) {
      fire_buffered(program_, cs.get(to_fire[i]), *wm_, fired_);
      cs.mark_fired(to_fire[i]);
    }
    fired_this_cycle_ = to_fire.size();
    counters_.firings += to_fire.size();
  }

  // Phase 3: route buffered ops — local ops apply in place, remote ops
  // join their channel's pending map.
  std::vector<ClusterOp> local_ops;
  for (std::size_t f = 0; f < fired_.size(); ++f) {
    const BufferedFiring& firing = fired_.firing(f);
    for (const BufferedOp& op : fired_.ops(firing)) route_op(op, local_ops);
    const std::string_view text = fired_.text(firing);
    if (!text.empty()) {
      std::cout << text;
      std::cout.flush();
    }
    if (firing.halt) halted_ = true;
  }

  // Phase 4: make the cycle durable, THEN ack — ack-after-durable is
  // the invariant the whole pruning scheme rests on.
  journal_cycle(cycle, std::move(applied), std::move(local_ops));
  send_acks();

  // Phase 5: transmit everything due (new sends and backoff retries).
  for (unsigned to = 0; to < peers_.size(); ++to) {
    if (to == opt_.site_id) continue;
    Peer& p = peers_[to];
    if (p.pending.empty()) continue;
    ensure_peer_conn(to);
    for (auto& [seq, entry] : p.pending) {
      if (cycle < entry.next_retry) continue;
      transmit(to, entry);
    }
  }
}

void SiteRunner::dump(net::LineConn& to) {
  // One reply buffer, flushed whenever it passes kFlushBytes: a dump is
  // a handful of write(2) calls, not one per fact.
  constexpr std::size_t kFlushBytes = 64 * 1024;
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(wm_->content_fingerprint()));
  std::string out = "ok cc-dump n=" + std::to_string(wm_->alive_count()) +
                    " fingerprint=" + fp + "\n";
  for (FactId id = 1; id <= wm_->high_water(); ++id) {
    if (!wm_->alive(id)) continue;
    const FactView fact = wm_->view(id);
    out += "fact ";
    out += to_hex(encode_fact_wire(fact.tmpl(), fact.copy_slots(),
                                   *program_.symbols, program_.schema));
    out += '\n';
    if (out.size() >= kFlushBytes) {
      if (!to.write_all(out)) return;
      out.clear();
    }
  }
  to.write_all(out);
}

}  // namespace parulel
