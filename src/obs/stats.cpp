#include "obs/stats.hpp"

#include <algorithm>
#include <sstream>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace parulel {

const char* termination_name(TerminationReason r) {
  switch (r) {
    case TerminationReason::Quiescent: return "quiescent";
    case TerminationReason::Halted: return "halted";
    case TerminationReason::CycleLimit: return "cycle_limit";
    case TerminationReason::Unknown: break;
  }
  return "unknown";
}

void RunStats::absorb(const CycleStats& c) {
  cycles += 1;
  total_firings += c.fired;
  total_redactions += c.redacted;
  total_asserts += c.asserts;
  total_retracts += c.retracts;
  total_write_conflicts += c.write_conflicts;
  total_meta_firings += c.meta_firings;
  total_meta_rounds += c.meta_rounds;
  total_meta_witnesses += c.meta_witnesses;
  peak_conflict_set = std::max(peak_conflict_set, c.conflict_set_size);
  match_ns += c.match_ns;
  redact_ns += c.redact_ns;
  fire_ns += c.fire_ns;
  merge_ns += c.merge_ns;
  meta_reify_ns += c.meta_reify_ns;
  meta_match_ns += c.meta_match_ns;
  meta_query_ns += c.meta_query_ns;
}

std::string RunStats::summary() const {
  // Older call sites set only the bools; derive the reason from them
  // when the enum was never filled in.
  TerminationReason reason = termination;
  if (reason == TerminationReason::Unknown) {
    if (halted) reason = TerminationReason::Halted;
    else if (quiescent) reason = TerminationReason::Quiescent;
  }
  std::ostringstream os;
  os << "cycles=" << cycles << " firings=" << total_firings
     << " redactions=" << total_redactions << " asserts=" << total_asserts
     << " retracts=" << total_retracts
     << " peak_cs=" << peak_conflict_set
     << " wall_ms=" << static_cast<double>(wall_ns) / 1e6
     << " [" << termination_name(reason) << "]";
  return os.str();
}

std::string RunStats::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.field("type", "run");
  for (const auto& f : obs::run_fields()) w.field(f.name, this->*f.member);
  w.field("halted", halted);
  w.field("quiescent", quiescent);
  w.field("termination", termination_name(termination));
  w.end_object();
  return w.str();
}

void RunStats::publish(obs::MetricsRegistry& registry,
                       std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::run_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
  name.assign(prefix);
  name += "halted";
  registry.set(name, halted ? 1 : 0);
  name.assign(prefix);
  name += "quiescent";
  registry.set(name, quiescent ? 1 : 0);
  name.assign(prefix);
  name += "termination_code";
  registry.set(name, static_cast<std::uint64_t>(termination));
}

void FaultStats::publish(obs::MetricsRegistry& registry,
                         std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::fault_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

void ServiceStats::publish(obs::MetricsRegistry& registry,
                           std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::service_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

void NetStats::publish(obs::MetricsRegistry& registry,
                       std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::net_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

void JournalStats::publish(obs::MetricsRegistry& registry,
                           std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::journal_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

void RetryStats::publish(obs::MetricsRegistry& registry,
                         std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::retry_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

void ReplStats::publish(obs::MetricsRegistry& registry,
                        std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::repl_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

void ClusterStats::publish(obs::MetricsRegistry& registry,
                           std::string_view prefix) const {
  std::string name;
  for (const auto& f : obs::cluster_fields()) {
    name.assign(prefix);
    name += f.name;
    registry.set(name, this->*f.member);
  }
}

namespace obs {

namespace {

constexpr FieldDef<CycleStats> kCycleFields[] = {
    {"cycle", &CycleStats::cycle},
    {"conflict_set", &CycleStats::conflict_set_size},
    {"redacted", &CycleStats::redacted},
    {"fired", &CycleStats::fired},
    {"asserts", &CycleStats::asserts},
    {"retracts", &CycleStats::retracts},
    {"duplicate_asserts", &CycleStats::duplicate_asserts},
    {"write_conflicts", &CycleStats::write_conflicts},
    {"meta_rounds", &CycleStats::meta_rounds},
    {"meta_firings", &CycleStats::meta_firings},
    {"meta_witnesses", &CycleStats::meta_witnesses},
    {"match_ns", &CycleStats::match_ns},
    {"redact_ns", &CycleStats::redact_ns},
    {"fire_ns", &CycleStats::fire_ns},
    {"merge_ns", &CycleStats::merge_ns},
    {"meta_reify_ns", &CycleStats::meta_reify_ns},
    {"meta_match_ns", &CycleStats::meta_match_ns},
    {"meta_query_ns", &CycleStats::meta_query_ns},
};

constexpr FieldDef<RunStats> kRunFields[] = {
    {"cycles", &RunStats::cycles},
    {"firings", &RunStats::total_firings},
    {"redactions", &RunStats::total_redactions},
    {"asserts", &RunStats::total_asserts},
    {"retracts", &RunStats::total_retracts},
    {"write_conflicts", &RunStats::total_write_conflicts},
    {"meta_firings", &RunStats::total_meta_firings},
    {"meta_rounds", &RunStats::total_meta_rounds},
    {"meta_witnesses", &RunStats::total_meta_witnesses},
    {"peak_conflict_set", &RunStats::peak_conflict_set},
    {"wall_ns", &RunStats::wall_ns},
    {"match_ns", &RunStats::match_ns},
    {"quiesce_match_ns", &RunStats::quiesce_match_ns},
    {"redact_ns", &RunStats::redact_ns},
    {"fire_ns", &RunStats::fire_ns},
    {"merge_ns", &RunStats::merge_ns},
    {"meta_reify_ns", &RunStats::meta_reify_ns},
    {"meta_match_ns", &RunStats::meta_match_ns},
    {"meta_query_ns", &RunStats::meta_query_ns},
};

constexpr FieldDef<FaultStats> kFaultFields[] = {
    {"sent", &FaultStats::sent},
    {"delivered", &FaultStats::delivered},
    {"applied", &FaultStats::applied},
    {"dropped", &FaultStats::dropped},
    {"delayed", &FaultStats::delayed},
    {"retries", &FaultStats::retries},
    {"dup_suppressed", &FaultStats::dup_suppressed},
    {"wiped", &FaultStats::wiped},
    {"crashes", &FaultStats::crashes},
    {"restores", &FaultStats::restores},
    {"checkpoints", &FaultStats::checkpoints},
};

constexpr FieldDef<ServiceStats> kServiceFields[] = {
    {"requests", &ServiceStats::requests},
    {"asserts", &ServiceStats::asserts},
    {"retracts", &ServiceStats::retracts},
    {"runs", &ServiceStats::runs},
    {"queries", &ServiceStats::queries},
    {"batches", &ServiceStats::batches},
    {"batched_ops", &ServiceStats::batched_ops},
    {"rejected", &ServiceStats::rejected},
    {"quota_rejected", &ServiceStats::quota_rejected},
    {"evicted", &ServiceStats::evicted},
    {"sessions_opened", &ServiceStats::sessions_opened},
    {"sessions_closed", &ServiceStats::sessions_closed},
    {"queue_depth", &ServiceStats::queue_depth},
    {"peak_queue_depth", &ServiceStats::peak_queue_depth},
    {"latency_p50_ns", &ServiceStats::latency_p50_ns},
    {"latency_p99_ns", &ServiceStats::latency_p99_ns},
    {"latency_max_ns", &ServiceStats::latency_max_ns},
};

constexpr FieldDef<NetStats> kNetFields[] = {
    {"accepted", &NetStats::accepted},
    {"rejected_full", &NetStats::rejected_full},
    {"closed", &NetStats::closed},
    {"active", &NetStats::active},
    {"lines_in", &NetStats::lines_in},
    {"responses_out", &NetStats::responses_out},
    {"bytes_in", &NetStats::bytes_in},
    {"bytes_out", &NetStats::bytes_out},
    {"protocol_errors", &NetStats::protocol_errors},
    {"oversize_lines", &NetStats::oversize_lines},
    {"backpressure_rejects", &NetStats::backpressure_rejects},
    {"overflow_closed", &NetStats::overflow_closed},
    {"idle_closed", &NetStats::idle_closed},
    {"drained", &NetStats::drained},
    {"fault_dropped", &NetStats::fault_dropped},
    {"fault_delayed", &NetStats::fault_delayed},
    {"shards", &NetStats::shards},
    {"forwarded", &NetStats::forwarded},
    {"busy_ns", &NetStats::busy_ns},
};

constexpr FieldDef<JournalStats> kJournalFields[] = {
    {"records_written", &JournalStats::records_written},
    {"bytes_written", &JournalStats::bytes_written},
    {"fsyncs", &JournalStats::fsyncs},
    {"batches_logged", &JournalStats::batches_logged},
    {"ops_logged", &JournalStats::ops_logged},
    {"snapshots", &JournalStats::snapshots},
    {"recovered_sessions", &JournalStats::recovered_sessions},
    {"recovered_batches", &JournalStats::recovered_batches},
    {"recovered_ops", &JournalStats::recovered_ops},
    {"torn_tails", &JournalStats::torn_tails},
    {"recovery_failures", &JournalStats::recovery_failures},
    {"recovery_wall_ns", &JournalStats::recovery_wall_ns},
};

constexpr FieldDef<RetryStats> kRetryFields[] = {
    {"requests", &RetryStats::requests},
    {"retries", &RetryStats::retries},
    {"reconnects", &RetryStats::reconnects},
    {"failovers", &RetryStats::failovers},
    {"replayed", &RetryStats::replayed},
    {"resumed", &RetryStats::resumed},
    {"reopened", &RetryStats::reopened},
    {"timeouts", &RetryStats::timeouts},
    {"giveups", &RetryStats::giveups},
    {"backoff_ms", &RetryStats::backoff_ms},
};

constexpr FieldDef<ReplStats> kReplFields[] = {
    {"batches_shipped", &ReplStats::batches_shipped},
    {"bytes_shipped", &ReplStats::bytes_shipped},
    {"snapshots_shipped", &ReplStats::snapshots_shipped},
    {"acks_received", &ReplStats::acks_received},
    {"sync_commits", &ReplStats::sync_commits},
    {"async_commits", &ReplStats::async_commits},
    {"repl_degraded", &ReplStats::repl_degraded},
    {"replica_connects", &ReplStats::replica_connects},
    {"applied_batches", &ReplStats::applied_batches},
    {"applied_snapshots", &ReplStats::applied_snapshots},
    {"apply_errors", &ReplStats::apply_errors},
};

constexpr FieldDef<ClusterStats> kClusterFields[] = {
    {"barriers", &ClusterStats::barriers},
    {"spawns", &ClusterStats::spawns},
    {"kills", &ClusterStats::kills},
    {"deaths", &ClusterStats::deaths},
    {"restores", &ClusterStats::restores},
    {"sent", &ClusterStats::sent},
    {"applied", &ClusterStats::applied},
    {"dup_suppressed", &ClusterStats::dup_suppressed},
    {"retries", &ClusterStats::retries},
    {"dropped", &ClusterStats::dropped},
    {"delayed", &ClusterStats::delayed},
    {"redials", &ClusterStats::redials},
    {"batches", &ClusterStats::batches},
    {"snapshots", &ClusterStats::snapshots},
    {"firings", &ClusterStats::firings},
    {"join_ns", &ClusterStats::join_ns},
    {"barrier_ns", &ClusterStats::barrier_ns},
    {"dump_ns", &ClusterStats::dump_ns},
    {"stop_ns", &ClusterStats::stop_ns},
};


}  // namespace

std::span<const FieldDef<CycleStats>> cycle_fields() { return kCycleFields; }

std::span<const FieldDef<RunStats>> run_fields() { return kRunFields; }

std::span<const FieldDef<FaultStats>> fault_fields() { return kFaultFields; }

std::span<const FieldDef<ServiceStats>> service_fields() {
  return kServiceFields;
}

std::span<const FieldDef<NetStats>> net_fields() { return kNetFields; }

std::span<const FieldDef<JournalStats>> journal_fields() {
  return kJournalFields;
}

std::span<const FieldDef<RetryStats>> retry_fields() { return kRetryFields; }

std::span<const FieldDef<ReplStats>> repl_fields() { return kReplFields; }

std::span<const FieldDef<ClusterStats>> cluster_fields() {
  return kClusterFields;
}

}  // namespace obs

}  // namespace parulel
