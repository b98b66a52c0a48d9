#include "service/service.hpp"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "lang/parser.hpp"

namespace parulel::service {

namespace {
/// Bounded latency reservoir: percentile math stays O(64k) no matter
/// how many requests the service has served.
constexpr std::size_t kLatencyReservoir = 1 << 16;

/// Durable session names become journal filenames; restrict them so a
/// name can never traverse out of the journal directory.
bool valid_durable_name(const std::string& name) {
  if (name.empty() || name.size() > 128 || name.front() == '.') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t durable_name_hash(std::string_view name) {
  // FNV-1a 64-bit: tiny, dependency-free, and stable across platforms —
  // the pinning must agree between a server and its own restart.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

unsigned shard_for_name(std::string_view name, unsigned shards) {
  if (shards <= 1) return 0;
  return static_cast<unsigned>(durable_name_hash(name) % shards);
}

std::uint64_t RuleService::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

RuleService::RuleService(ServiceConfig config)
    : config_(config), pool_(std::max(1u, config.pool_threads)) {
  if (config_.journal.enabled()) {
    std::error_code ec;
    std::filesystem::create_directories(config_.journal.dir, ec);
  }
  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SessionConfig RuleService::session_config() {
  SessionConfig scfg;
  scfg.matcher = config_.matcher;
  scfg.pool = &pool_;
  scfg.cycle_quota = config_.cycle_quota;
  scfg.fact_quota = config_.fact_quota;
  scfg.output = config_.output;
  return scfg;
}

std::string RuleService::journal_path(const std::string& name) const {
  return (std::filesystem::path(config_.journal.dir) / (name + ".wal"))
      .string();
}

RuleService::~RuleService() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // workers_ (declared last) joins first, then sessions_ destruct.
}

SessionId RuleService::alloc_id() {
  if (config_.session_ids != nullptr) {
    return config_.session_ids->fetch_add(1, std::memory_order_relaxed);
  }
  return next_id_++;
}

SessionId RuleService::open_session(const Program& program) {
  std::unique_lock lock(mutex_);
  if (sessions_.size() >= config_.max_sessions) {
    evict_idle_locked(lock, /*force_one=*/true);
    if (sessions_.size() >= config_.max_sessions) return 0;
  }
  auto entry = std::make_unique<Entry>();
  entry->id = alloc_id();
  entry->session = std::make_unique<Session>(program, session_config());
  entry->last_active_tick = tick_;
  ++stats_.sessions_opened;
  const SessionId id = entry->id;
  sessions_.emplace(id, std::move(entry));
  return id;
}

bool RuleService::close_session(SessionId id) {
  std::unique_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->closing) return false;
  close_locked(lock, *it->second, /*evicting=*/false);
  return true;
}

void RuleService::close_locked(std::unique_lock<std::mutex>& lock,
                               Entry& entry, bool evicting) {
  entry.closing = true;  // rejects new submits; only one closer can win
  idle_cv_.wait(lock, [&entry] { return entry.busy == 0; });
  ++stats_.sessions_closed;
  if (evicting) ++stats_.evicted;
  if (entry.durable) {
    // Explicit close ends the durable state: keep the write/recovery
    // totals, drop the registry entry, delete the journal file.
    for (const auto& f : obs::journal_fields()) {
      jstats_.*f.member += entry.durable->jstats.*f.member;
    }
    durable_by_name_.erase(entry.durable->name);
    if (entry.durable->journal) {
      const std::string path = entry.durable->journal->path();
      entry.durable->journal.reset();
      // A quarantined journal is evidence and surviving state — never
      // unlink it on teardown, only on a clean explicit close.
      if (!entry.durable->quarantined) {
        ::unlink(path.c_str());
        if (config_.on_journal_removed) {
          config_.on_journal_removed(entry.durable->name);
        }
      }
    }
  }
  const SessionId id = entry.id;
  sessions_.erase(id);  // entry dangles from here on
  idle_cv_.notify_all();
}

SubmitResult RuleService::submit(SessionId id, Request request) {
  std::unique_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->closing) {
    return SubmitResult::NoSuchSession;
  }
  Entry& entry = *it->second;
  if (entry.queue.size() >= config_.queue_capacity) {
    ++stats_.rejected;
    return SubmitResult::QueueFull;
  }
  request.enqueued_ns = now_ns();
  ++stats_.requests;
  switch (request.kind) {
    case Request::Kind::Assert: ++stats_.asserts; break;
    case Request::Kind::Retract: ++stats_.retracts; break;
    case Request::Kind::Run: ++stats_.runs; break;
  }
  entry.queue.push_back(std::move(request));
  stats_.peak_queue_depth =
      std::max<std::uint64_t>(stats_.peak_queue_depth, entry.queue.size());
  if (config_.workers > 0 && !entry.scheduled) {
    entry.scheduled = true;
    ready_.push_back(id);
    work_cv_.notify_one();
  }
  return SubmitResult::Accepted;
}

void RuleService::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (stopping_) return;
    const SessionId id = ready_.front();
    ready_.pop_front();
    auto it = sessions_.find(id);
    if (it == sessions_.end()) continue;
    Entry& entry = *it->second;
    entry.scheduled = false;
    if (entry.closing || entry.queue.empty()) continue;
    commit_batch(lock, entry);
    idle_cv_.notify_all();
  }
}

void RuleService::commit_batch(std::unique_lock<std::mutex>& lock,
                               Entry& entry) {
  // Claim one batch off the queue; reschedule if requests remain.
  const std::size_t n = std::min(entry.queue.size(), config_.batch_max);
  std::vector<Request> batch;
  batch.reserve(n);
  std::move(entry.queue.begin(),
            entry.queue.begin() + static_cast<std::ptrdiff_t>(n),
            std::back_inserter(batch));
  entry.queue.erase(entry.queue.begin(),
                    entry.queue.begin() + static_cast<std::ptrdiff_t>(n));
  if (config_.workers > 0 && !entry.queue.empty() && !entry.scheduled &&
      !entry.closing) {
    entry.scheduled = true;
    ready_.push_back(entry.id);
    work_cv_.notify_one();
  }
  ++entry.busy;  // pins the entry: close_locked waits for busy == 0
  Session& session = *entry.session;
  std::mutex& session_mutex = entry.session_mutex;
  lock.unlock();

  std::uint64_t quota_rejected = 0;
  std::uint64_t commit_end_ns = 0;
  {
    std::scoped_lock session_lock(session_mutex);
    // Durable sessions journal every op AS SUBMITTED (absorbed and
    // quota-rejected asserts included): replay re-decides each through
    // the same Session entry points, reproducing state and counters.
    BatchSegment seg;
    const bool durable = entry.durable != nullptr;
    for (Request& request : batch) {
      switch (request.kind) {
        case Request::Kind::Assert:
          if (durable) {
            JournalOp op;
            op.kind = JournalOp::Kind::Assert;
            op.tmpl = request.tmpl;
            op.slots = request.slots;  // copy: assert_fact consumes them
            seg.ops.push_back(std::move(op));
          }
          if (session.assert_fact(request.tmpl, std::move(request.slots)) ==
              Session::AssertOutcome::QuotaRejected) {
            ++quota_rejected;
          }
          break;
        case Request::Kind::Retract:
          if (durable) {
            JournalOp op;
            op.kind = JournalOp::Kind::Retract;
            op.fact = request.fact;
            seg.ops.push_back(std::move(op));
          }
          session.retract(request.fact);
          break;
        case Request::Kind::Run:
          break;  // a pure commit barrier
      }
    }
    {
      // The shared pool's fork-join batches do not nest: one
      // recognize-act commit on it at a time, service-wide.
      std::scoped_lock pool_lock(pool_mutex_);
      session.run_to_quiescence();
    }
    if (durable) {
      // One segment per commit: replay must reproduce the exact
      // run_to_quiescence boundaries (and with them FactId assignment),
      // so a protocol batch split across commits journals as several
      // segments inside the next batch record.
      seg.fingerprint = session.fingerprint();
      seg.high_water = session.wm().high_water();
      entry.durable->pending_segments.push_back(std::move(seg));
    }
    commit_end_ns = now_ns();
  }

  lock.lock();
  --entry.busy;
  ++tick_;
  entry.last_active_tick = tick_;
  ++stats_.batches;
  stats_.batched_ops += batch.size();
  stats_.quota_rejected += quota_rejected;
  for (const Request& request : batch) {
    record_latency(commit_end_ns - request.enqueued_ns);
  }
}

bool RuleService::flush(SessionId id) {
  std::unique_lock lock(mutex_);
  if (sessions_.find(id) == sessions_.end()) return false;
  for (;;) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return true;  // closed while flushing
    Entry& entry = *it->second;
    if (!entry.queue.empty()) {
      if (config_.workers == 0) {
        commit_batch(lock, entry);
        idle_cv_.notify_all();
        continue;
      }
      if (!entry.scheduled) {
        entry.scheduled = true;
        ready_.push_back(id);
        work_cv_.notify_one();
      }
    } else if (entry.busy == 0 && !entry.scheduled) {
      return true;
    }
    idle_cv_.wait(lock);
  }
}

void RuleService::flush_all() {
  std::vector<SessionId> ids;
  {
    std::scoped_lock lock(mutex_);
    ids.reserve(sessions_.size());
    for (const auto& [id, entry] : sessions_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (SessionId id : ids) flush(id);
}

bool RuleService::with_session(SessionId id,
                               const std::function<void(Session&)>& fn) {
  std::unique_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || it->second->closing) return false;
  Entry& entry = *it->second;
  ++entry.busy;
  Session& session = *entry.session;
  std::mutex& session_mutex = entry.session_mutex;
  lock.unlock();
  {
    std::scoped_lock session_lock(session_mutex);
    fn(session);
  }
  lock.lock();
  --entry.busy;
  entry.last_active_tick = tick_;
  ++stats_.queries;
  idle_cv_.notify_all();
  return true;
}

std::size_t RuleService::evict_idle() {
  std::unique_lock lock(mutex_);
  return evict_idle_locked(lock, /*force_one=*/false);
}

std::size_t RuleService::evict_idle_locked(std::unique_lock<std::mutex>& lock,
                                           bool force_one) {
  auto idle = [this](const Entry& e) {
    // Durable sessions are never eviction fodder: evicting one would
    // delete its journal, destroying durable state on a timeout.
    return !e.closing && !e.durable && e.busy == 0 && !e.scheduled &&
           e.queue.empty();
  };
  std::vector<SessionId> victims;
  if (config_.idle_eviction_age > 0) {
    for (const auto& [id, entry] : sessions_) {
      if (idle(*entry) &&
          tick_ - entry->last_active_tick >= config_.idle_eviction_age) {
        victims.push_back(id);
      }
    }
  }
  if (victims.empty() && force_one) {
    // Capacity pressure: sacrifice the least-recently-active idle
    // session even if it has not aged out.
    const Entry* oldest = nullptr;
    for (const auto& [id, entry] : sessions_) {
      if (idle(*entry) &&
          (!oldest || entry->last_active_tick < oldest->last_active_tick)) {
        oldest = entry.get();
      }
    }
    if (oldest) victims.push_back(oldest->id);
  }
  std::sort(victims.begin(), victims.end());
  std::size_t closed = 0;
  for (SessionId id : victims) {
    auto it = sessions_.find(id);
    if (it == sessions_.end() || it->second->closing) continue;
    close_locked(lock, *it->second, /*evicting=*/true);
    ++closed;
  }
  return closed;
}

std::size_t RuleService::queue_depth(SessionId id) const {
  std::scoped_lock lock(mutex_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? 0 : it->second->queue.size();
}

std::size_t RuleService::session_count() const {
  std::scoped_lock lock(mutex_);
  return sessions_.size();
}

void RuleService::record_latency(std::uint64_t ns) {
  stats_.latency_max_ns = std::max(stats_.latency_max_ns, ns);
  if (latency_ring_.size() < kLatencyReservoir) {
    latency_ring_.push_back(ns);
  } else {
    latency_ring_[latency_next_] = ns;
    latency_next_ = (latency_next_ + 1) % kLatencyReservoir;
  }
}

SessionId RuleService::open_durable(const std::string& name,
                                    std::unique_ptr<Program> program,
                                    std::string text, std::string* err) {
  auto fail = [&](std::string why) {
    if (err) *err = std::move(why);
    return SessionId{0};
  };
  if (!config_.journal.enabled()) {
    return fail("journaling is disabled (start with --journal-dir)");
  }
  if (!valid_durable_name(name)) {
    return fail("invalid durable session name: " + name);
  }
  if (config_.promotion_guard) {
    // A standby shadowing a live primary must not create durable names
    // of its own — the primary may own (or later ship) the same name.
    if (std::string why = config_.promotion_guard(); !why.empty()) {
      return fail("not-primary: " + why);
    }
  }
  std::unique_lock lock(mutex_);
  if (auto q = quarantined_.find(name); q != quarantined_.end()) {
    return fail("journal-corrupt: " + q->second);
  }
  if (durable_by_name_.count(name)) {
    return fail("durable session exists: " + name);
  }
  if (sessions_.size() >= config_.max_sessions) {
    evict_idle_locked(lock, /*force_one=*/true);
    if (sessions_.size() >= config_.max_sessions) return fail("service full");
  }
  auto durable = std::make_unique<DurableState>();
  durable->name = name;
  durable->program = std::move(program);
  durable->program_text = std::move(text);
  try {
    durable->journal =
        SessionJournal::create(journal_path(name), name,
                               durable->program_text, config_.journal.fsync,
                               &durable->jstats, config_.journal.fail_writes);
  } catch (const JournalError& e) {
    return fail(e.what());
  }
  auto entry = std::make_unique<Entry>();
  entry->id = alloc_id();
  entry->session =
      std::make_unique<Session>(*durable->program, session_config());
  entry->durable = std::move(durable);
  entry->last_active_tick = tick_;
  ++stats_.sessions_opened;
  const SessionId id = entry->id;
  durable_by_name_[name] = id;
  sessions_.emplace(id, std::move(entry));
  if (config_.on_journal_rewritten) {
    // The freshly created header-only file — ship it so the replica has
    // the name on disk even before its first batch.
    config_.on_journal_rewritten(name, journal_path(name));
  }
  return id;
}

SessionId RuleService::resume_durable(const std::string& name,
                                      std::string* err) {
  auto fail = [&](std::string why) {
    if (err) *err = std::move(why);
    return SessionId{0};
  };
  std::unique_lock lock(mutex_);
  if (auto q = quarantined_.find(name); q != quarantined_.end()) {
    return fail("journal-corrupt: " + q->second);
  }
  auto it = durable_by_name_.find(name);
  if (it == durable_by_name_.end()) {
    // Failover path: no live session, but a journal file on disk — a
    // replica's shipped copy (or a startup scan that skipped this
    // shard). Recover it on the spot and resume the result.
    if (!config_.journal.enabled() || !valid_durable_name(name)) {
      return fail("no durable session: " + name);
    }
    const std::string path = journal_path(name);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
      return fail("no durable session: " + name);
    }
    if (config_.promotion_guard) {
      // The file is a standby's shadow copy and the primary is (or very
      // recently was) alive: refuse to promote. A client that lands
      // here prematurely must go back and find the primary.
      if (std::string why = config_.promotion_guard(); !why.empty()) {
        return fail("not-primary: " + why);
      }
    }
    lock.unlock();
    RecoveryReport rep = recover_one(path);
    lock.lock();
    if (!rep.ok) return fail("journal-corrupt: " + rep.error);
    it = durable_by_name_.find(name);
    if (it == durable_by_name_.end()) {
      return fail("no durable session: " + name);
    }
  }
  Entry& entry = *sessions_.at(it->second);
  if (entry.closing) return fail("no durable session: " + name);
  if (entry.durable->attached) {
    return fail("session attached to another conversation: " + name);
  }
  entry.durable->attached = true;
  entry.last_active_tick = tick_;
  return entry.id;
}

void RuleService::release_session(SessionId id) {
  {
    std::scoped_lock lock(mutex_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    if (it->second->durable && !it->second->closing) {
      it->second->durable->attached = false;
      it->second->last_active_tick = tick_;
      return;
    }
  }
  close_session(id);
}

bool RuleService::is_durable(SessionId id) const {
  std::scoped_lock lock(mutex_);
  auto it = sessions_.find(id);
  return it != sessions_.end() && it->second->durable != nullptr;
}

const Program* RuleService::durable_program(SessionId id) const {
  std::scoped_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second->durable) return nullptr;
  return it->second->durable->program.get();
}

bool RuleService::durable_status(SessionId id, DurableStatus* out) const {
  std::scoped_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second->durable) return false;
  const DurableState& d = *it->second->durable;
  if (out) {
    out->name = d.name;
    out->last_req = d.last_req;
    out->last_committed = d.last_committed;
  }
  return true;
}

void RuleService::window_insert(DurableState& d, std::uint64_t req,
                                std::string response) {
  if (!d.dedup.emplace(req, std::move(response)).second) return;
  d.dedup_order.push_back(req);
  while (d.dedup_order.size() > config_.journal.dedup_window) {
    d.dedup.erase(d.dedup_order.front());
    d.dedup_order.pop_front();
  }
}

DedupOutcome RuleService::dedup_check(SessionId id, std::uint64_t req,
                                      std::string* cached) {
  std::scoped_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second->durable) {
    return DedupOutcome::NotDurable;
  }
  DurableState& d = *it->second->durable;
  if (auto hit = d.dedup.find(req); hit != d.dedup.end()) {
    if (cached) *cached = hit->second;
    return DedupOutcome::Replay;
  }
  if (req <= d.last_req) return DedupOutcome::Stale;
  return DedupOutcome::Fresh;
}

bool RuleService::dedup_record(SessionId id, std::uint64_t req,
                               std::string_view response) {
  std::scoped_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second->durable) return false;
  DurableState& d = *it->second->durable;
  window_insert(d, req, std::string(response));
  d.pending_acks.push_back(JournalAck{req, std::string(response)});
  if (req > d.last_req) d.last_req = req;
  return true;
}

bool RuleService::durable_commit(SessionId id, std::uint64_t run_req,
                                 std::string_view run_response,
                                 std::string* err) {
  std::unique_lock lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end() || !it->second->durable) {
    if (err) *err = "not a durable session";
    return false;
  }
  Entry& entry = *it->second;
  DurableState& d = *entry.durable;
  ++entry.busy;  // pins the entry across the unlocked journal write
  lock.unlock();

  bool wrote = false;
  std::string io_reason;
  {
    std::scoped_lock session_lock(entry.session_mutex);
    BatchRecord rec;
    rec.seq = d.batch_seq + 1;
    rec.segments = std::move(d.pending_segments);
    d.pending_segments.clear();
    rec.acks = std::move(d.pending_acks);
    d.pending_acks.clear();
    if (run_req != 0) {
      rec.acks.push_back(JournalAck{run_req, std::string(run_response)});
    }
    const std::string payload = encode_batch(rec, *d.program->symbols);
    try {
      d.journal->append(payload);
      wrote = true;
      d.batch_seq = rec.seq;
      ++d.jstats.batches_logged;
      for (const BatchSegment& seg : rec.segments) {
        d.jstats.ops_logged += seg.ops.size();
      }
      if (config_.on_batch_durable) {
        // Semi-sync replication: still under the session lock, so the
        // hook (and any replica-ack wait inside it) completes before
        // the `ok` can leave the process.
        config_.on_batch_durable(d.name, rec.seq, payload);
      }
    } catch (const JournalError& e) {
      if (e.is_io()) {
        // The journal can no longer keep its ordering promise: fail
        // closed. The caller reports `err journal-io` and the session
        // is quarantined below.
        io_reason = e.what();
        if (err) *err = "journal-io: " + io_reason;
      } else if (err) {
        *err = e.what();
      }
      // Put everything back so a retried `run` re-attempts the
      // identical record — the state is applied in memory but NOT
      // durable, so it must not be acknowledged.
      if (run_req != 0) rec.acks.pop_back();
      d.pending_segments = std::move(rec.segments);
      d.pending_acks = std::move(rec.acks);
    }
  }

  lock.lock();
  --entry.busy;
  entry.last_active_tick = tick_;
  if (!io_reason.empty()) {
    d.quarantined = true;
    quarantined_[d.name] = io_reason;
    durable_by_name_.erase(d.name);
  }
  bool snapshot_due = false;
  SnapshotRecord snap;
  if (wrote) {
    if (run_req != 0) {
      window_insert(d, run_req, std::string(run_response));
      if (run_req > d.last_req) d.last_req = run_req;
    }
    d.last_committed = d.last_req;
    ++d.batches_since_snapshot;
    if (config_.journal.snapshot_every > 0 &&
        d.batches_since_snapshot >= config_.journal.snapshot_every) {
      snapshot_due = true;
      snap.seq = d.batch_seq;
      snap.last_req = d.last_req;
      snap.dedup.reserve(d.dedup_order.size());
      for (std::uint64_t r : d.dedup_order) {
        snap.dedup.push_back(JournalAck{r, d.dedup.at(r)});
      }
      ++entry.busy;
    }
  }
  idle_cv_.notify_all();
  if (!snapshot_due) return wrote;
  lock.unlock();

  bool truncated = false;
  {
    std::scoped_lock session_lock(entry.session_mutex);
    snap.state = entry.session->snapshot_exact();
    snap.fingerprint = entry.session->fingerprint();
    try {
      d.journal->rewrite_with_snapshot(
          d.name, d.program_text, encode_snapshot(snap, *d.program->symbols));
      truncated = true;
      if (config_.on_journal_rewritten) {
        config_.on_journal_rewritten(d.name, d.journal->path());
      }
    } catch (const JournalError&) {
      // Non-fatal: truncation failed, the journal keeps growing and
      // recovery replays the longer record stream instead.
    }
  }

  lock.lock();
  --entry.busy;
  if (truncated) d.batches_since_snapshot = 0;
  idle_cv_.notify_all();
  return wrote;
}

std::vector<RecoveryReport> RuleService::recover_journals(
    const std::function<bool(const std::string&)>& filter) {
  std::vector<RecoveryReport> reports;
  if (!config_.journal.enabled()) return reports;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& de :
       std::filesystem::directory_iterator(config_.journal.dir, ec)) {
    if (de.path().extension() != ".wal") continue;
    if (filter && !filter(de.path().stem().string())) continue;
    files.push_back(de.path().string());
  }
  std::sort(files.begin(), files.end());
  const std::uint64_t t0 = now_ns();
  reports.reserve(files.size());
  for (const std::string& path : files) reports.push_back(recover_one(path));
  std::scoped_lock lock(mutex_);
  jstats_.recovery_wall_ns += now_ns() - t0;
  return reports;
}

RecoveryReport RuleService::recover_one(const std::string& path) {
  RecoveryReport rep;
  rep.name = std::filesystem::path(path).stem().string();
  try {
    JournalScan scan = scan_journal(path);
    if (scan.header.name != rep.name) {
      throw JournalError("journal header names '" + scan.header.name +
                         "' but the file is '" + rep.name + ".wal'");
    }
    auto durable = std::make_unique<DurableState>();
    durable->name = scan.header.name;
    durable->program =
        std::make_unique<Program>(parse_program(scan.header.program_text));
    durable->program_text = scan.header.program_text;
    SymbolTable& symbols = *durable->program->symbols;

    // A snapshot carries the deffacts' effects inside its exact state;
    // replay-from-zero must re-assert them like the original open did.
    rep.from_snapshot = !scan.payloads.empty() &&
                        record_type(scan.payloads.front()) ==
                            RecordType::Snapshot;
    SessionConfig scfg = session_config();
    scfg.assert_initial_facts = !rep.from_snapshot;
    auto session = std::make_unique<Session>(*durable->program, scfg);

    std::uint64_t prev_seq = 0;
    bool at_head = true;
    for (const std::string& payload : scan.payloads) {
      switch (record_type(payload)) {
        case RecordType::Header:
          throw JournalError("duplicate header record");
        case RecordType::SiteBatch:
        case RecordType::SiteSnapshot:
          // A cluster site's WAL record: this is not a session journal.
          throw JournalError(
              std::string(record_kind_name(
                  static_cast<std::uint8_t>(record_type(payload)))) +
              " record in a session journal");
        case RecordType::Snapshot: {
          if (!at_head) {
            throw JournalError("snapshot record not at journal head");
          }
          SnapshotRecord snap = decode_snapshot(payload, symbols);
          {
            std::scoped_lock pool_lock(pool_mutex_);
            session->restore_exact(snap.state);
          }
          if (session->fingerprint() != snap.fingerprint ||
              session->wm().high_water() != snap.state.high_water) {
            throw JournalError(
                "snapshot settle run diverged — program is not "
                "snapshot-compatible; rerun with --snapshot-every 0");
          }
          for (JournalAck& a : snap.dedup) {
            window_insert(*durable, a.req, std::move(a.response));
          }
          durable->last_req = snap.last_req;
          durable->last_committed = snap.last_req;
          durable->batch_seq = snap.seq;
          prev_seq = snap.seq;
          break;
        }
        case RecordType::Batch: {
          BatchRecord rec = decode_batch(payload, symbols);
          if (rec.seq != prev_seq + 1) {
            throw JournalError("batch sequence gap: expected " +
                               std::to_string(prev_seq + 1) + ", found " +
                               std::to_string(rec.seq));
          }
          for (const BatchSegment& seg : rec.segments) {
            for (const JournalOp& op : seg.ops) {
              if (op.kind == JournalOp::Kind::Assert) {
                session->assert_fact(op.tmpl, op.slots);
              } else {
                session->retract(op.fact);
              }
              ++rep.ops;
            }
            {
              std::scoped_lock pool_lock(pool_mutex_);
              session->run_to_quiescence();
            }
            if (session->fingerprint() != seg.fingerprint ||
                session->wm().high_water() != seg.high_water) {
              throw JournalError(
                  "replay diverged from the journaled state digest at "
                  "batch seq " +
                  std::to_string(rec.seq));
            }
          }
          for (JournalAck& a : rec.acks) {
            if (a.req > durable->last_req) durable->last_req = a.req;
            window_insert(*durable, a.req, std::move(a.response));
          }
          durable->last_committed = durable->last_req;
          durable->batch_seq = rec.seq;
          prev_seq = rec.seq;
          ++rep.batches;
          break;
        }
      }
      at_head = false;
    }

    rep.facts = session->wm().alive_count();
    rep.fingerprint = session->fingerprint();
    rep.torn_bytes = scan.torn_bytes;
    rep.torn_kind = scan.torn_kind;
    rep.torn_offset = scan.torn_offset;
    durable->journal = SessionJournal::open_append(
        path, config_.journal.fsync, &durable->jstats,
        config_.journal.fail_writes);
    durable->attached = false;  // waits for a `resume`

    std::scoped_lock lock(mutex_);
    auto entry = std::make_unique<Entry>();
    entry->id = alloc_id();
    entry->session = std::move(session);
    entry->durable = std::move(durable);
    entry->last_active_tick = tick_;
    ++stats_.sessions_opened;
    durable_by_name_[rep.name] = entry->id;
    rep.session = entry->id;
    sessions_.emplace(entry->id, std::move(entry));
    ++jstats_.recovered_sessions;
    jstats_.recovered_batches += rep.batches;
    jstats_.recovered_ops += rep.ops;
    if (rep.torn_bytes > 0) ++jstats_.torn_tails;
    rep.ok = true;
  } catch (const std::exception& e) {
    // Fail closed: the journal file is left exactly as found, and the
    // name answers `err journal-corrupt` until an operator intervenes.
    rep.ok = false;
    rep.error = e.what();
    std::scoped_lock lock(mutex_);
    quarantined_[rep.name] = rep.error;
    ++jstats_.recovery_failures;
  }
  return rep;
}

std::vector<std::string> RuleService::durable_names() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(durable_by_name_.size());
  for (const auto& [name, id] : durable_by_name_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

bool RuleService::has_durable(const std::string& name) const {
  std::scoped_lock lock(mutex_);
  return durable_by_name_.count(name) > 0 || quarantined_.count(name) > 0;
}

bool RuleService::read_journal_file(const std::string& name,
                                    std::string* bytes) {
  std::unique_lock lock(mutex_);
  auto it = durable_by_name_.find(name);
  if (it == durable_by_name_.end()) return false;
  auto sit = sessions_.find(it->second);
  if (sit == sessions_.end() || sit->second->closing) return false;
  Entry& entry = *sit->second;
  ++entry.busy;  // pins the entry while we read outside mutex_
  lock.unlock();
  bool ok = false;
  {
    std::scoped_lock session_lock(entry.session_mutex);
    std::ifstream in(journal_path(name), std::ios::binary);
    if (in) {
      bytes->assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
      ok = true;
    }
  }
  lock.lock();
  --entry.busy;
  idle_cv_.notify_all();
  return ok;
}

JournalStats RuleService::journal_stats_snapshot() const {
  std::scoped_lock lock(mutex_);
  JournalStats out = jstats_;
  for (const auto& [id, entry] : sessions_) {
    if (!entry->durable) continue;
    std::scoped_lock session_lock(entry->session_mutex);
    for (const auto& f : obs::journal_fields()) {
      out.*f.member += entry->durable->jstats.*f.member;
    }
  }
  return out;
}

ServiceStats RuleService::stats_snapshot() const {
  std::scoped_lock lock(mutex_);
  ServiceStats out = stats_;
  out.queue_depth = 0;
  for (const auto& [id, entry] : sessions_) {
    out.queue_depth += entry->queue.size();
  }
  if (!latency_ring_.empty()) {
    std::vector<std::uint64_t> sorted = latency_ring_;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&sorted](std::size_t p) {
      std::size_t idx = sorted.size() * p / 100;
      if (idx >= sorted.size()) idx = sorted.size() - 1;
      return sorted[idx];
    };
    out.latency_p50_ns = pct(50);
    out.latency_p99_ns = pct(99);
  }
  return out;
}

}  // namespace parulel::service
