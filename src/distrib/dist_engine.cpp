#include "distrib/dist_engine.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "distrib/checkpoint.hpp"
#include "meta/meta_engine.hpp"
#include "obs/report.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace parulel {

namespace {

// Retransmission backoff, in simulated cycles. A message sent at cycle
// c is drained (and acked) at c+1, so the first timeout fires at c+2;
// the backoff doubles per retry up to the cap, bounding the retry storm
// a long outage can cause while keeping recovery latency low.
constexpr std::uint64_t kInitialBackoff = 2;
constexpr std::uint64_t kMaxBackoff = 16;

}  // namespace

/// A content-addressed cross-site operation. Retracts carry content, not
/// ids — fact ids are site-local. The routing metadata (from/epoch/seq)
/// is stamped only on the reliable path; the fast path ignores it.
struct DistributedEngine::Message {
  enum class Kind : std::uint8_t { Assert, Retract };
  Kind kind = Kind::Assert;
  TemplateId tmpl = kInvalidTemplate;
  std::vector<Value> slots;

  unsigned from = 0;        ///< sender site
  std::uint32_t epoch = 0;  ///< sender incarnation when sent
  std::uint64_t seq = 0;    ///< per (from, to, epoch) sequence number
};

/// One sent-but-not-yet-stable message on a sender's channel. Retained
/// until the receiver checkpoints its effects (pruned then); `acked`
/// only stops retransmission — an acked entry must still be replayed if
/// the receiver crashes before its next checkpoint.
struct DistributedEngine::OutEntry {
  Message msg;
  bool acked = false;
  std::uint64_t next_retry = 0;
  std::uint64_t backoff = kInitialBackoff;
};

/// A delayed message in flight: delivered (or dropped, if the target is
/// down) once `due` arrives.
struct DistributedEngine::InFlight {
  std::uint64_t due = 0;
  unsigned to = 0;
  Message msg;
};

struct DistributedEngine::Site {
  /// Send side of one directed channel. Wiped by a crash of the sender —
  /// the replacement incarnation starts a fresh sequence stream under a
  /// new epoch, so stale seqs can never collide.
  struct ChannelOut {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, OutEntry> pending;
  };

  explicit Site(const Program& program)
      : wm(std::make_unique<WorkingMemory>(program.schema)),
        matcher(make_matcher(MatcherKind::Treat, program)),
        meta(program) {}

  std::unique_ptr<WorkingMemory> wm;
  std::unique_ptr<Matcher> matcher;
  MetaEngine meta;  ///< per site: sites run concurrently on the pool
  std::vector<Message> inbox;
  FiringBuffer fired;               ///< this cycle's buffered firings
  std::uint64_t firings = 0;
  std::uint64_t busy_ns = 0;        ///< this cycle's compute time
  std::uint64_t redactions_this_cycle = 0;
  bool work_done_this_cycle = false;

  // --- reliability state (used only under reliable routing) ---
  std::uint32_t epoch = 1;          ///< incarnation; bumped per restart
  bool down = false;
  std::uint64_t down_until = 0;     ///< restart cycle while down
  std::vector<ChannelRecvState> recv;  ///< per sender: applied seqs
  std::vector<ChannelOut> out;         ///< per destination
  SiteCheckpoint checkpoint;           ///< last durable snapshot
};

DistributedEngine::DistributedEngine(const Program& program,
                                     PartitionScheme scheme,
                                     DistConfig config)
    : program_(program),
      scheme_(std::move(scheme)),
      config_(config) {
  if (config_.sites == 0) config_.sites = 1;
  if (config_.strict_partitioning) {
    const auto offending = scheme_.validate(program_);
    if (!offending.empty()) {
      std::ostringstream os;
      os << "partition scheme cannot co-locate rules:";
      for (const auto& name : offending) os << ' ' << name;
      throw RuntimeError(os.str());
    }
  }
  for (const auto& crash : config_.faults.crashes) {
    if (crash.site >= config_.sites) {
      throw RuntimeError("fault plan crashes site " +
                         std::to_string(crash.site) + " but only " +
                         std::to_string(config_.sites) + " sites exist");
    }
  }
  const unsigned threads =
      config_.threads == 0 ? config_.sites : config_.threads;
  pool_ = std::make_unique<ThreadPool>(threads);
  sites_.reserve(config_.sites);
  for (unsigned s = 0; s < config_.sites; ++s) {
    sites_.push_back(std::make_unique<Site>(program_));
  }

  reliable_ = config_.faults.enabled() || config_.checkpoint_every > 0;
  if (reliable_) {
    if (config_.faults.any_network_faults()) {
      injector_ = std::make_unique<FaultInjector>(config_.faults);
    }
    crash_done_.assign(config_.faults.crashes.size(), false);
    for (auto& site : sites_) {
      site->recv.resize(config_.sites);
      site->out.resize(config_.sites);
    }
  }
}

DistributedEngine::~DistributedEngine() = default;

const WorkingMemory& DistributedEngine::site_wm(unsigned site) const {
  return *sites_[site]->wm;
}

void DistributedEngine::assert_initial_facts() {
  for (const auto& fact : program_.initial_facts) {
    if (scheme_.replicated(fact.tmpl)) {
      for (auto& site : sites_) {
        site->wm->assert_fact(fact.tmpl, fact.slots);
      }
    } else {
      const unsigned owner =
          scheme_.site_of(fact.tmpl, fact.slots, config_.sites);
      sites_[owner]->wm->assert_fact(fact.tmpl, fact.slots);
    }
  }
}

// ------------------------------------------------ reliable routing layer

void DistributedEngine::transmit(OutEntry& entry, unsigned to,
                                 DistStats& stats) {
  auto& f = stats.faults;
  ++f.sent;
  Site& dest = *sites_[to];
  const FaultVerdict v = injector_ ? injector_->roll() : FaultVerdict{};
  if (dest.down || v.drop) {
    // Lost on the wire (or the target isn't listening). The sender only
    // learns by ack timeout; the entry stays pending for retransmission.
    ++f.dropped;
  } else if (v.delay > 0) {
    ++f.delayed;
    in_flight_.push_back({now_ + 1 + v.delay, to, entry.msg});
  } else {
    ++f.delivered;
    dest.inbox.push_back(entry.msg);
    if (v.duplicate) {
      ++f.sent;
      ++f.delivered;
      dest.inbox.push_back(entry.msg);
    }
  }
  entry.next_retry = now_ + entry.backoff;
}

void DistributedEngine::send_reliable(unsigned from, unsigned to,
                                      Message msg, DistStats& stats) {
  Site& sender = *sites_[from];
  Site::ChannelOut& ch = sender.out[to];
  msg.from = from;
  msg.epoch = sender.epoch;
  msg.seq = ch.next_seq++;
  OutEntry entry;
  entry.msg = std::move(msg);
  transmit(entry, to, stats);
  ch.pending.emplace(entry.msg.seq, std::move(entry));
}

void DistributedEngine::resolve_in_flight(DistStats& stats) {
  if (in_flight_.empty()) return;
  std::vector<InFlight> keep;
  keep.reserve(in_flight_.size());
  for (auto& flight : in_flight_) {
    if (flight.due > now_) {
      keep.push_back(std::move(flight));
      continue;
    }
    Site& dest = *sites_[flight.to];
    if (dest.down) {
      ++stats.faults.dropped;  // arrived at a dead site; retry covers it
    } else {
      ++stats.faults.delivered;
      dest.inbox.push_back(std::move(flight.msg));
    }
  }
  in_flight_.swap(keep);
}

void DistributedEngine::drain_inbox_reliable(unsigned site_idx,
                                             DistStats& stats) {
  Site& site = *sites_[site_idx];
  for (auto& msg : site.inbox) {
    AppliedSeqs& applied = site.recv[msg.from].by_epoch[msg.epoch];
    if (applied.contains(msg.seq)) {
      ++stats.faults.dup_suppressed;
    } else {
      applied.add(msg.seq);
      ++stats.faults.applied;
      if (msg.kind == Message::Kind::Assert) {
        site.wm->assert_fact(msg.tmpl, std::move(msg.slots));
      } else if (auto id = site.wm->find(msg.tmpl, msg.slots)) {
        site.wm->retract(*id);
      }
    }
    // Ack, piggybacked on the cycle barrier: stop the sender's
    // retransmission. Duplicates re-ack — the earlier ack may have
    // predated a retransmit. Ignored if the sender restarted since
    // (epoch mismatch): its replacement stream owns those seqs now.
    Site& sender = *sites_[msg.from];
    if (!sender.down && sender.epoch == msg.epoch) {
      auto it = sender.out[site_idx].pending.find(msg.seq);
      if (it != sender.out[site_idx].pending.end()) it->second.acked = true;
    }
  }
  site.inbox.clear();
}

void DistributedEngine::retransmit_due(DistStats& stats) {
  for (unsigned s = 0; s < sites_.size(); ++s) {
    Site& sender = *sites_[s];
    if (sender.down) continue;
    for (unsigned to = 0; to < sites_.size(); ++to) {
      for (auto& [seq, entry] : sender.out[to].pending) {
        if (entry.acked || now_ < entry.next_retry) continue;
        ++stats.faults.retries;
        entry.backoff = std::min(entry.backoff * 2, kMaxBackoff);
        transmit(entry, to, stats);
      }
    }
  }
}

void DistributedEngine::take_checkpoint(unsigned site_idx,
                                        DistStats& stats) {
  Site& site = *sites_[site_idx];
  site.checkpoint = capture_checkpoint(now_, *site.wm, site.recv);
  ++stats.faults.checkpoints;
  // Everything acked (hence applied) at this site is now durable:
  // senders can forget it. Unacked entries stay retained for replay.
  for (auto& sender : sites_) {
    std::erase_if(sender->out[site_idx].pending,
                  [](const auto& kv) { return kv.second.acked; });
  }
}

void DistributedEngine::crash_site(unsigned site_idx,
                                   std::uint64_t down_cycles,
                                   DistStats& stats) {
  Site& site = *sites_[site_idx];
  site.down = true;
  site.down_until = now_ + std::max<std::uint64_t>(1, down_cycles);
  // Volatile state dies with the process: working memory, matcher,
  // undrained inbox, unfired pending ops, and both channel directions.
  stats.faults.wiped += site.inbox.size();
  site.inbox.clear();
  site.fired.clear();
  site.wm = std::make_unique<WorkingMemory>(program_.schema);
  site.matcher = make_matcher(MatcherKind::Treat, program_);
  site.recv.assign(config_.sites, ChannelRecvState{});
  site.out.assign(config_.sites, Site::ChannelOut{});
  site.busy_ns = 0;
  site.redactions_this_cycle = 0;
  site.work_done_this_cycle = false;
  ++stats.faults.crashes;
}

void DistributedEngine::restore_site(unsigned site_idx, DistStats& stats) {
  Site& site = *sites_[site_idx];
  site.down = false;
  site.down_until = 0;
  // New incarnation: a fresh sequence stream that can't collide with
  // seqs the old incarnation handed out before dying.
  site.epoch += 1;
  site.wm = restore_working_memory(program_.schema, site.checkpoint);
  site.matcher = make_matcher(MatcherKind::Treat, program_);
  site.recv = site.checkpoint.recv;
  if (site.recv.size() != config_.sites) site.recv.resize(config_.sites);
  site.out.assign(config_.sites, Site::ChannelOut{});
  ++stats.faults.restores;
  // Inbox replay: every message a peer retained (not yet covered by our
  // checkpoint) is retransmitted from the recorded sequence state on.
  // Acked-but-unpruned entries were applied only to the state we just
  // lost, so they go back on the wire too; the restored dedup state
  // suppresses any the checkpoint did cover.
  for (unsigned s = 0; s < sites_.size(); ++s) {
    if (s == site_idx) continue;
    Site& peer = *sites_[s];
    if (peer.down) continue;
    for (auto& [seq, entry] : peer.out[site_idx].pending) {
      entry.acked = false;
      entry.backoff = kInitialBackoff;
      entry.next_retry = now_;  // retransmit this cycle
    }
  }
}

void DistributedEngine::process_fault_timeline(DistStats& stats) {
  for (unsigned s = 0; s < sites_.size(); ++s) {
    if (sites_[s]->down && now_ >= sites_[s]->down_until) {
      restore_site(s, stats);
    }
  }
  for (std::size_t i = 0; i < config_.faults.crashes.size(); ++i) {
    const FaultPlan::Crash& crash = config_.faults.crashes[i];
    if (crash_done_[i] || crash.at_cycle != now_) continue;
    crash_done_[i] = true;
    if (!sites_[crash.site]->down) {
      crash_site(crash.site, crash.down_cycles, stats);
    }
  }
}

bool DistributedEngine::reliable_work_pending() const {
  if (!in_flight_.empty()) return true;
  for (const auto& site : sites_) {
    if (site->down) return true;
    for (const auto& ch : site->out) {
      for (const auto& [seq, entry] : ch.pending) {
        if (!entry.acked) return true;
      }
    }
  }
  return false;
}

// ----------------------------------------------------------- routing

void DistributedEngine::route_op(unsigned from_site,
                                 const FiringBuffer& buffer,
                                 const BufferedOp& op, DistStats& stats) {
  // Ops the firing site owns apply to its working memory at once,
  // preserving op order there; loopback never traverses the network, so
  // no faults apply. Ops owned elsewhere become messages.
  auto send = [&](unsigned to, Message msg) {
    if (!reliable_) {
      sites_[to]->inbox.push_back(std::move(msg));
    } else {
      send_reliable(from_site, to, std::move(msg), stats);
    }
    ++stats.messages;
  };
  auto route_assert = [&] {
    const std::span<const Value> slots = buffer.slots(op);
    auto deliver = [&](unsigned to) {
      if (to == from_site) {
        sites_[to]->wm->assert_hashed(op.tmpl, slots, buffer.slot_hashes(op),
                                      op.content_hash);
      } else {
        send(to,
             {Message::Kind::Assert, op.tmpl, {slots.begin(), slots.end()}});
      }
    };
    if (scheme_.replicated(op.tmpl)) {
      ++stats.broadcasts;
      for (unsigned s = 0; s < config_.sites; ++s) deliver(s);
    } else {
      deliver(scheme_.site_of(op.tmpl, slots, config_.sites));
    }
  };
  // Retracts carry content: the retracted record stays readable.
  auto route_retract = [&] {
    const FactView fact = sites_[from_site]->wm->view(op.retract_id);
    auto deliver = [&](unsigned to) {
      if (to == from_site) {
        WorkingMemory& wm = *sites_[to]->wm;
        if (auto id = wm.find(fact)) wm.retract(*id);
      } else {
        send(to, {Message::Kind::Retract, fact.tmpl(), fact.copy_slots()});
      }
    };
    if (scheme_.replicated(fact.tmpl())) {
      ++stats.broadcasts;
      for (unsigned s = 0; s < config_.sites; ++s) deliver(s);
    } else {
      deliver(scheme_.site_of(fact, config_.sites));
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

// ------------------------------------------------------------- cycle

bool DistributedEngine::cycle(DistStats& stats) {
  now_ = stats.run.cycles;
  if (reliable_) {
    // Phase 0: the fault timeline — restarts first (a site scheduled to
    // restart this cycle participates in it), then crashes; then any
    // delayed deliveries falling due.
    process_fault_timeline(stats);
    resolve_in_flight(stats);
  }

  // Phase 1 (sequential, ordered): drain inboxes.
  bool any_inbox = false;
  for (unsigned s = 0; s < sites_.size(); ++s) {
    Site& site = *sites_[s];
    if (site.inbox.empty()) continue;
    any_inbox = true;
    if (reliable_) {
      drain_inbox_reliable(s, stats);
      continue;
    }
    for (auto& msg : site.inbox) {
      if (msg.kind == Message::Kind::Assert) {
        site.wm->assert_fact(msg.tmpl, std::move(msg.slots));
      } else if (auto id = site.wm->find(msg.tmpl, msg.slots)) {
        site.wm->retract(*id);
      }
    }
    site.inbox.clear();
  }

  // Phase 2 (parallel): per-site match + redact + fire-buffered. Down
  // sites sit the cycle out; the survivors keep the run degrading
  // gracefully instead of stalling behind the failure.
  CycleStats cycle_stats;
  cycle_stats.cycle = now_;
  {
    ScopedAccumulator t(cycle_stats.match_ns);  // dominant phase
    std::vector<std::function<void(unsigned)>> jobs;
    jobs.reserve(sites_.size());
    for (auto& site_ptr : sites_) {
      Site* site = site_ptr.get();
      if (site->down) continue;
      jobs.push_back([this, site](unsigned) {
        Timer busy;
        site->fired.clear();
        site->work_done_this_cycle = false;
        site->redactions_this_cycle = 0;
        [&] {
          site->matcher->apply_delta(*site->wm, site->wm->drain_delta());
          ConflictSet& cs = site->matcher->conflict_set();
          const std::vector<InstId> eligible = cs.alive_ids();
          if (eligible.empty()) return;

          const MetaOutcome outcome = site->meta.run(*site->wm, cs, eligible);
          site->redactions_this_cycle = outcome.redacted.size();
          const std::vector<InstId>& to_fire = outcome.to_fire;
          if (to_fire.empty()) return;

          site->work_done_this_cycle = true;
          for (std::size_t i = 0; i < to_fire.size(); ++i) {
            fire_buffered(program_, cs.get(to_fire[i]), *site->wm,
                          site->fired);
            cs.mark_fired(to_fire[i]);
            ++site->firings;
          }
        }();
        site->busy_ns = busy.elapsed_ns();
      });
    }
    pool_->run_batch(jobs);
  }

  // Simulated concurrent wall time: sites overlap, routing is serial.
  std::uint64_t slowest_site = 0;
  for (const auto& site : sites_) {
    if (site->down) continue;
    slowest_site = std::max(slowest_site, site->busy_ns);
  }
  stats.sim_wall_ns += slowest_site;

  // Phase 3 (sequential, ordered): routing and local application.
  std::uint64_t cycle_messages_before = stats.messages;
  bool any_fired = false;
  {
    ScopedAccumulator t(cycle_stats.merge_ns);
    for (unsigned s = 0; s < sites_.size(); ++s) {
      Site& site = *sites_[s];
      if (site.down) continue;
      const FiringBuffer& fired = site.fired;
      for (std::size_t f = 0; f < fired.size(); ++f) {
        const BufferedFiring& firing = fired.firing(f);
        any_fired = true;
        for (const BufferedOp& op : fired.ops(firing)) {
          route_op(s, fired, op, stats);
        }
        const std::string_view text = fired.text(firing);
        if (config_.output && !text.empty()) *config_.output << text;
        if (firing.halt) halted_ = true;
        cycle_stats.fired += 1;
      }
      site.fired.clear();
    }
    if (reliable_) retransmit_due(stats);
  }

  // Routing/merge is serial in both the simulation and real deployments
  // (it models the coordinator applying the cycle's committed updates).
  stats.sim_wall_ns += cycle_stats.merge_ns;

  if (reliable_ && config_.checkpoint_every > 0 &&
      (now_ + 1) % config_.checkpoint_every == 0) {
    for (unsigned s = 0; s < sites_.size(); ++s) {
      if (!sites_[s]->down) take_checkpoint(s, stats);
    }
  }

  for (const auto& site : sites_) {
    if (site->down) continue;
    cycle_stats.conflict_set_size += site->matcher->conflict_set().size();
    cycle_stats.redacted += site->redactions_this_cycle;
  }
  stats.run.absorb(cycle_stats);
  if (config_.trace_cycles) {
    stats.run.per_cycle.push_back(cycle_stats);
    stats.per_cycle_messages.push_back(stats.messages -
                                       cycle_messages_before);
  }
  PARULEL_OBS_ONLY({
    if (config_.trace) {
      obs::CycleActivity activity;
      activity.engine = "distributed";
      activity.threads = pool_->thread_count();
      const PoolStatsSnapshot pool_now = pool_->stats();
      obs::fill_pool_activity(activity, pool_now, trace_prev_pool_);
      trace_prev_pool_ = pool_now;
      config_.trace->cycle(cycle_stats, activity);
    }
  })

  if (halted_) {
    stats.run.halted = true;
    return false;
  }
  // Quiescence: no firings, no pending inter-site traffic, and the
  // inboxes we drained this cycle were empty too. Under reliable
  // routing, additionally: nothing delayed on the wire, nothing
  // unacked, and every site up (a down site still owes its recovery
  // re-derivation). Crashes scheduled after quiescence never occur.
  bool inbox_pending = false;
  for (const auto& site : sites_) {
    if (!site->inbox.empty()) inbox_pending = true;
  }
  if (!any_fired && !inbox_pending && !any_inbox &&
      (!reliable_ || !reliable_work_pending())) {
    stats.run.quiescent = true;
    return false;
  }
  return true;
}

DistStats DistributedEngine::run() {
  DistStats stats;
  Timer wall;
  if (reliable_) {
    // The initial snapshot: the state a site crashed before its first
    // periodic checkpoint recovers to.
    now_ = 0;
    for (unsigned s = 0; s < sites_.size(); ++s) take_checkpoint(s, stats);
  }
  while (stats.run.cycles < config_.max_cycles) {
    if (!cycle(stats)) break;
  }
  stats.run.wall_ns = wall.elapsed_ns();
  stats.run.termination = stats.run.halted ? TerminationReason::Halted
                          : stats.run.quiescent
                              ? TerminationReason::Quiescent
                              : TerminationReason::CycleLimit;
  stats.per_site_firings.clear();
  for (const auto& site : sites_) {
    stats.per_site_firings.push_back(site->firings);
  }
  PARULEL_OBS_ONLY({
    if (config_.trace) {
      config_.trace->run(stats.run, "distributed",
                         reliable_ ? &stats.faults : nullptr);
    }
    if (config_.metrics) {
      stats.run.publish(*config_.metrics);
      stats.faults.publish(*config_.metrics);
      obs::publish_pool_stats(*config_.metrics, pool_->stats());
      config_.metrics->set("dist.sites", config_.sites);
      config_.metrics->set("dist.messages", stats.messages);
      config_.metrics->set("dist.broadcasts", stats.broadcasts);
    }
  })
  return stats;
}

std::uint64_t DistributedEngine::global_fingerprint() const {
  // Distinct alive contents across all sites (replicated facts dedupe).
  // Dedup verifies full content equality, never hash alone. Content
  // hashes come cached from each site's store.
  std::unordered_multimap<std::uint64_t, FactView> seen;
  std::uint64_t fp = WorkingMemory::kFingerprintSeed;
  for (const auto& site : sites_) {
    const WorkingMemory& wm = *site->wm;
    for (FactId id = 1; id <= wm.high_water(); ++id) {
      if (!wm.alive(id)) continue;
      const FactView fact = wm.view(id);
      const std::uint64_t raw = fact.content_hash();
      bool duplicate = false;
      auto [lo, hi] = seen.equal_range(raw);
      for (auto it = lo; it != hi; ++it) {
        if (it->second.same_content(fact)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) continue;
      seen.emplace(raw, fact);
      fp ^= fingerprint_mix(raw);
    }
  }
  return fp;
}

}  // namespace parulel
