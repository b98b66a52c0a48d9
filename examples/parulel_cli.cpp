// parulel_cli: load a PARULEL program from a file and run it — or serve
// the rule-service line protocol, locally or over TCP.
//
// Modes:
//   parulel_cli <program.clp> [options]    run a program file
//   parulel_cli --serve [options]          line protocol on stdin/stdout
//   parulel_cli --listen [options]         line protocol over TCP
//   parulel_cli --connect HOST:PORT[,...]  drive a TCP server from stdin
//                                          (extra endpoints: failover list)
//
// Every flag lives in one table (kFlags below): the parser, `--help`,
// and the README's flag table (`--help-markdown`) are all generated from
// it, so a flag cannot exist without being documented.
//
// Exit codes:
//   0  success
//   1  I/O error (unreadable program, unwritable output file, bind or
//      connect failure, connection lost)
//   2  usage error (bad flag, bad flag value, flag in the wrong mode)
//   3  parse error (program text or fault-plan spec)
//   4  runtime error (engine refused the configuration; in serve or
//      connect mode, one or more protocol commands answered `err`)
//   5  the run hit --max-cycles without quiescing or halting
//
// The hello-world of the repository:
//   ./parulel_cli ../examples/programs/greetings.clp --engine par
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "parulel.hpp"
#include "distrib/cluster_driver.hpp"

#include <unistd.h>

namespace {

constexpr int kExitOk = 0;
constexpr int kExitIo = 1;
constexpr int kExitUsage = 2;
constexpr int kExitParse = 3;
constexpr int kExitRuntime = 4;
constexpr int kExitCycleLimit = 5;

/// A bad flag or flag value; caught in main and mapped to kExitUsage.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An unreadable or unwritable file; mapped to kExitIo.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_count(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const std::uint64_t n = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return n;
  } catch (const std::exception&) {
    throw UsageError("value for " + flag + " must be a non-negative integer, "
                     "got '" + value + "'");
  }
}

/// Parse `tmpl=slot,...` into the PartitionScheme input map.
std::unordered_map<std::string, std::string> parse_partition(
    const std::string& spec) {
  std::unordered_map<std::string, std::string> slot_by_template;
  std::istringstream stream(spec);
  std::string pair;
  while (std::getline(stream, pair, ',')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      throw UsageError("--partition entries must be TEMPLATE=SLOT, got '" +
                       pair + "'");
    }
    slot_by_template[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return slot_by_template;
}

enum class Mode { Run, Serve, Listen, Connect };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Run: return "run";
    case Mode::Serve: return "serve";
    case Mode::Listen: return "listen";
    case Mode::Connect: return "connect";
  }
  return "?";
}

/// Everything the CLI can be told, across all four modes.
struct Options {
  Mode mode = Mode::Run;
  std::string program_path;    // run
  std::string connect_target;  // connect, "HOST:PORT"

  // run
  std::string engine_kind = "par";
  unsigned threads = parulel::ThreadPool::default_threads();
  parulel::Strategy strategy = parulel::Strategy::Lex;
  parulel::MatcherKind seq_matcher = parulel::MatcherKind::Rete;
  bool matcher_explicit = false;
  std::uint64_t max_cycles = 1'000'000;
  bool trace = false, dump_wm = false, metrics = false;
  std::string trace_json_path, metrics_json_path;
  unsigned sites = 4;
  std::unordered_map<std::string, std::string> partition;
  std::string partition_spec_raw;  // forwarded verbatim to cluster sites
  std::string fault_plan_spec;
  std::uint64_t checkpoint_every = 0;

  // run, multi-process cluster
  unsigned cluster_sites = 0;  // 0 = off; N = drive N site processes
  std::string cluster_bin;
  std::uint16_t cluster_port = 0;
  bool cluster_spawn = true;

  // serve + listen (the fronted service)
  parulel::service::ServiceConfig service;
  bool echo = false;

  // listen
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t max_conns = 64;
  std::uint64_t idle_timeout_ms = 0;
  std::uint64_t drain_timeout_ms = 2'000;
  unsigned shards = 1;
  std::string net_fault_spec;
  std::string replica_of;
  std::uint64_t repl_timeout_ms = 1'000;
  std::uint64_t promote_grace_ms = 2'000;

  // connect
  std::uint64_t connect_timeout_ms = 0;
  std::uint64_t io_timeout_ms = 0;
  unsigned retry_attempts = 0;  // 0 = plain client, no retry
  std::uint64_t retry_seed = 1;
};

// Mode-applicability bits for a flag.
constexpr unsigned kRun = 1u << 0;
constexpr unsigned kServe = 1u << 1;
constexpr unsigned kListen = 1u << 2;
constexpr unsigned kConnect = 1u << 3;

/// One CLI flag: its name, value shape, the modes it applies to, the
/// help line, and the parse action. The single source for parsing,
/// --help, and the README table (--help-markdown).
struct FlagSpec {
  const char* name;
  const char* metavar;  ///< nullptr: boolean flag, takes no value
  unsigned modes;
  const char* help;
  void (*apply)(Options&, const std::string& value);
};

const FlagSpec kFlags[] = {
    {"--engine", "seq|par|dist", kRun, "engine (default par)",
     [](Options& o, const std::string& v) {
       if (v != "seq" && v != "par" && v != "dist") {
         throw UsageError("unknown engine '" + v + "'");
       }
       o.engine_kind = v;
     }},
    {"--threads", "N", kRun | kServe | kListen,
     "worker threads: par engine / service pool (default: cores)",
     [](Options& o, const std::string& v) {
       o.threads = static_cast<unsigned>(parse_count("--threads", v));
       o.service.pool_threads = o.threads;
     }},
    {"--strategy", "lex|mea|first|random", kRun,
     "seq conflict resolution (default lex)",
     [](Options& o, const std::string& v) {
       if (v == "lex") o.strategy = parulel::Strategy::Lex;
       else if (v == "mea") o.strategy = parulel::Strategy::Mea;
       else if (v == "first") o.strategy = parulel::Strategy::First;
       else if (v == "random") o.strategy = parulel::Strategy::Random;
       else throw UsageError("unknown strategy '" + v + "'");
     }},
    {"--matcher", "rete|treat|parallel-treat", kRun,
     "match algorithm (default: rete for seq, parallel-treat for par)",
     [](Options& o, const std::string& v) {
       const auto kind = parulel::parse_matcher_kind(v);
       if (!kind) throw UsageError("unknown matcher '" + v + "'");
       o.seq_matcher = *kind;
       o.matcher_explicit = true;
     }},
    {"--max-cycles", "N", kRun, "cycle cap (default 1000000)",
     [](Options& o, const std::string& v) {
       o.max_cycles = parse_count("--max-cycles", v);
     }},
    {"--trace", nullptr, kRun, "print per-cycle stats",
     [](Options& o, const std::string&) { o.trace = true; }},
    {"--trace-json", "FILE", kRun,
     "write one JSON object per cycle (JSONL)",
     [](Options& o, const std::string& v) { o.trace_json_path = v; }},
    {"--metrics", nullptr, kRun, "print engine/matcher/pool metrics",
     [](Options& o, const std::string&) { o.metrics = true; }},
    {"--metrics-json", "FILE", kRun,
     "write the metrics registry as JSON",
     [](Options& o, const std::string& v) { o.metrics_json_path = v; }},
    {"--dump-wm", nullptr, kRun, "print final working memory",
     [](Options& o, const std::string&) { o.dump_wm = true; }},
    {"--sites", "N", kRun, "dist: number of simulated sites (default 4)",
     [](Options& o, const std::string& v) {
       o.sites = static_cast<unsigned>(parse_count("--sites", v));
       if (o.sites == 0) throw UsageError("--sites must be >= 1");
     }},
    {"--partition", "T=S,...", kRun,
     "dist: partition template T on slot S; unlisted templates are "
     "replicated",
     [](Options& o, const std::string& v) {
       o.partition = parse_partition(v);
       o.partition_spec_raw = v;
     }},
    {"--fault-plan", "SPEC", kRun,
     "dist: inject faults, e.g. loss=0.2,dup=0.05,delay=0.1,seed=7,"
     "crash=1@5+4",
     [](Options& o, const std::string& v) { o.fault_plan_spec = v; }},
    {"--checkpoint-every", "N", kRun,
     "dist: snapshot sites every N cycles; cluster: WAL batches per "
     "snapshot rewrite",
     [](Options& o, const std::string& v) {
       o.checkpoint_every = parse_count("--checkpoint-every", v);
     }},
    {"--cluster", "N", kRun,
     "run as N real site PROCESSES over TCP instead of the in-process "
     "dist engine; chaos plans deliver genuine kill -9s",
     [](Options& o, const std::string& v) {
       o.cluster_sites = static_cast<unsigned>(parse_count("--cluster", v));
       if (o.cluster_sites == 0) throw UsageError("--cluster must be >= 1");
     }},
    {"--cluster-bin", "PATH", kRun,
     "cluster: parulel_site binary (default: $PARULEL_SITE_BIN, then "
     "parulel_site next to this executable)",
     [](Options& o, const std::string& v) { o.cluster_bin = v; }},
    {"--cluster-port", "N", kRun,
     "cluster: driver control port; 0 = kernel-assigned (default 0)",
     [](Options& o, const std::string& v) {
       const std::uint64_t p = parse_count("--cluster-port", v);
       if (p > 65535) throw UsageError("--cluster-port must be <= 65535");
       o.cluster_port = static_cast<std::uint16_t>(p);
     }},
    {"--cluster-spawn", "on|off", kRun,
     "cluster: spawn site processes (on, default) or wait for manually "
     "started sites to dial in (off)",
     [](Options& o, const std::string& v) {
       if (v == "on") o.cluster_spawn = true;
       else if (v == "off") o.cluster_spawn = false;
       else throw UsageError("--cluster-spawn wants on or off, got '" + v +
                             "'");
     }},
    {"--queue-capacity", "N", kServe | kListen,
     "per-session request cap (default 256)",
     [](Options& o, const std::string& v) {
       o.service.queue_capacity = parse_count("--queue-capacity", v);
       if (o.service.queue_capacity == 0) {
         throw UsageError("--queue-capacity must be >= 1");
       }
     }},
    {"--batch-max", "N", kServe | kListen,
     "max requests per commit (default 128)",
     [](Options& o, const std::string& v) {
       o.service.batch_max = parse_count("--batch-max", v);
       if (o.service.batch_max == 0) {
         throw UsageError("--batch-max must be >= 1");
       }
     }},
    {"--max-sessions", "N", kServe | kListen,
     "open session cap (default 64)",
     [](Options& o, const std::string& v) {
       o.service.max_sessions = parse_count("--max-sessions", v);
     }},
    {"--fact-quota", "N", kServe | kListen,
     "per-session alive-fact cap (default off)",
     [](Options& o, const std::string& v) {
       o.service.fact_quota = parse_count("--fact-quota", v);
     }},
    {"--echo", nullptr, kServe | kListen | kConnect,
     "echo each protocol line before its response",
     [](Options& o, const std::string&) { o.echo = true; }},
    {"--host", "ADDR", kListen,
     "bind address (default 127.0.0.1)",
     [](Options& o, const std::string& v) { o.host = v; }},
    {"--port", "N", kListen,
     "TCP port; 0 = kernel-assigned (default 0)",
     [](Options& o, const std::string& v) {
       const std::uint64_t p = parse_count("--port", v);
       if (p > 65535) throw UsageError("--port must be <= 65535");
       o.port = static_cast<std::uint16_t>(p);
     }},
    {"--port-file", "FILE", kListen,
     "write the bound port to FILE once listening",
     [](Options& o, const std::string& v) { o.port_file = v; }},
    {"--max-conns", "N", kListen,
     "connection cap; beyond it arrivals get `err server-full` "
     "(default 64)",
     [](Options& o, const std::string& v) {
       o.max_conns = parse_count("--max-conns", v);
       if (o.max_conns == 0) throw UsageError("--max-conns must be >= 1");
     }},
    {"--idle-timeout-ms", "N", kListen,
     "close connections idle this long; 0 = never (default 0)",
     [](Options& o, const std::string& v) {
       o.idle_timeout_ms = parse_count("--idle-timeout-ms", v);
     }},
    {"--drain-timeout-ms", "N", kListen,
     "graceful-shutdown flush budget (default 2000)",
     [](Options& o, const std::string& v) {
       o.drain_timeout_ms = parse_count("--drain-timeout-ms", v);
     }},
    {"--shards", "N", kListen,
     "event-loop shards; sessions pin to shards by name hash "
     "(default 1)",
     [](Options& o, const std::string& v) {
       o.shards = static_cast<unsigned>(parse_count("--shards", v));
       if (o.shards == 0) throw UsageError("--shards must be >= 1");
     }},
    {"--journal-dir", "DIR", kRun | kServe | kListen,
     "write-ahead journal directory; enables durable sessions "
     "(open/resume survive crashes); cluster: per-site WALs, required "
     "for crash plans",
     [](Options& o, const std::string& v) { o.service.journal.dir = v; }},
    {"--snapshot-every", "N", kServe | kListen,
     "truncate each journal to one snapshot after N batches; 0 = never "
     "(default 32)",
     [](Options& o, const std::string& v) {
       o.service.journal.snapshot_every = parse_count("--snapshot-every", v);
     }},
    {"--journal-fsync", "on|off", kRun | kServe | kListen,
     "fsync each journal record before acking (default on; off trades "
     "the power-loss guarantee for throughput)",
     [](Options& o, const std::string& v) {
       if (v == "on") o.service.journal.fsync = true;
       else if (v == "off") o.service.journal.fsync = false;
       else throw UsageError("--journal-fsync wants on or off, got '" + v +
                             "'");
     }},
    {"--net-fault-plan", "SPEC", kListen,
     "inject connection faults, e.g. seed=7,drop=0.01,ackloss=0.01,"
     "delay=0.05,maxdelay=50",
     [](Options& o, const std::string& v) { o.net_fault_spec = v; }},
    {"--replica-of", "HOST:PORT", kListen,
     "run as a hot standby of this primary: apply its shipped journal "
     "records; requires --journal-dir",
     [](Options& o, const std::string& v) { o.replica_of = v; }},
    {"--repl-timeout-ms", "N", kListen,
     "semi-sync replication: wait N ms for the replica's ack before "
     "degrading to async; 0 = pure async (default 1000)",
     [](Options& o, const std::string& v) {
       o.repl_timeout_ms = parse_count("--repl-timeout-ms", v);
     }},
    {"--promote-grace-ms", "N", kListen,
     "standby promotion fence: serve a failed-over resume only after "
     "the replication link has been down N ms (default 2000)",
     [](Options& o, const std::string& v) {
       o.promote_grace_ms = parse_count("--promote-grace-ms", v);
     }},
    {"--connect-timeout-ms", "N", kConnect,
     "give up dialing after N ms; 0 = OS default (default 0)",
     [](Options& o, const std::string& v) {
       o.connect_timeout_ms = parse_count("--connect-timeout-ms", v);
     }},
    {"--io-timeout-ms", "N", kConnect,
     "per-request send/recv timeout; 0 = block forever (default 0)",
     [](Options& o, const std::string& v) {
       o.io_timeout_ms = parse_count("--io-timeout-ms", v);
     }},
    {"--retry", "N", kConnect,
     "exactly-once retry: up to N transport attempts per command, with "
     "reconnect + resume + replay (default off)",
     [](Options& o, const std::string& v) {
       o.retry_attempts = static_cast<unsigned>(parse_count("--retry", v));
       if (o.retry_attempts == 0) throw UsageError("--retry must be >= 1");
     }},
    {"--retry-seed", "N", kConnect,
     "backoff jitter seed for --retry (default 1)",
     [](Options& o, const std::string& v) {
       o.retry_seed = parse_count("--retry-seed", v);
     }},
    {"--retry-max-attempts", "N", kConnect,
     "cap on transport attempts per command (default 8); a dead cluster "
     "answers `err unavailable` after the cap instead of retrying "
     "forever (implies --retry)",
     [](Options& o, const std::string& v) {
       o.retry_attempts =
           static_cast<unsigned>(parse_count("--retry-max-attempts", v));
       if (o.retry_attempts == 0) {
         throw UsageError("--retry-max-attempts must be >= 1");
       }
     }},
};

void print_usage(std::ostream& os) {
  os << "usage:\n"
        "  parulel_cli <program.clp> [options]   run a program file\n"
        "  parulel_cli --serve [options]         line protocol on "
        "stdin/stdout\n"
        "  parulel_cli --listen [options]        line protocol over TCP\n"
        "  parulel_cli --connect HOST:PORT[,HOST:PORT...]\n"
        "                                        drive a TCP server from "
        "stdin; extra\n"
        "                                        endpoints are the failover "
        "list\n"
        "\noptions (marked with the modes that accept them):\n";
  for (const FlagSpec& f : kFlags) {
    std::string left = f.name;
    if (f.metavar) {
      left += ' ';
      left += f.metavar;
    }
    std::string modes;
    for (Mode m : {Mode::Run, Mode::Serve, Mode::Listen, Mode::Connect}) {
      if (f.modes & (1u << static_cast<unsigned>(m))) {
        if (!modes.empty()) modes += ',';
        modes += mode_name(m);
      }
    }
    os << "  " << left << ' ';
    for (std::size_t i = left.size() + 1; i < 34; ++i) os << ' ';
    os << "[" << modes << "] " << f.help << "\n";
  }
}

/// The README's flag table, generated from the same kFlags source.
void print_usage_markdown(std::ostream& os) {
  auto escape = [](std::string s) {
    std::string out;
    for (char c : s) {
      if (c == '|') out += "\\|";
      else out += c;
    }
    return out;
  };
  os << "| Flag | Modes | Description |\n|---|---|---|\n";
  for (const FlagSpec& f : kFlags) {
    std::string left = f.name;
    if (f.metavar) {
      left += ' ';
      left += f.metavar;
    }
    std::string modes;
    for (Mode m : {Mode::Run, Mode::Serve, Mode::Listen, Mode::Connect}) {
      if (f.modes & (1u << static_cast<unsigned>(m))) {
        if (!modes.empty()) modes += ", ";
        modes += mode_name(m);
      }
    }
    os << "| `" << escape(left) << "` | " << modes << " | "
       << escape(f.help) << " |\n";
  }
}

/// Parse everything after the mode selector through the flag table.
Options parse_args(int argc, char** argv) {
  Options opt;
  opt.service.pool_threads = parulel::ThreadPool::default_threads();

  int i = 1;
  if (argc < 2) throw UsageError("missing program file or mode flag");
  const std::string first = argv[1];
  if (first == "--serve") {
    opt.mode = Mode::Serve;
    i = 2;
  } else if (first == "--listen") {
    opt.mode = Mode::Listen;
    i = 2;
  } else if (first == "--connect") {
    opt.mode = Mode::Connect;
    if (argc < 3) throw UsageError("--connect needs HOST:PORT");
    opt.connect_target = argv[2];
    i = 3;
  } else if (first.rfind("--", 0) == 0) {
    throw UsageError("unknown mode or misplaced option '" + first +
                     "' (the program file must come first)");
  } else {
    opt.program_path = first;
    i = 2;
  }
  const unsigned mode_bit = 1u << static_cast<unsigned>(opt.mode);

  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : kFlags) {
      if (arg == f.name) {
        spec = &f;
        break;
      }
    }
    if (!spec) throw UsageError("unknown option '" + arg + "'");
    if (!(spec->modes & mode_bit)) {
      throw UsageError(arg + std::string(" is not valid in ") +
                       mode_name(opt.mode) + " mode");
    }
    std::string value;
    if (spec->metavar) {
      if (i + 1 >= argc) throw UsageError("missing value for " + arg);
      value = argv[++i];
    }
    spec->apply(opt, value);
  }

  if ((opt.mode == Mode::Serve || opt.mode == Mode::Listen) &&
      opt.service.pool_threads == 0) {
    throw UsageError("--threads must be >= 1");
  }
  return opt;
}

void dump_working_memory(const parulel::WorkingMemory& wm,
                         const parulel::Program& program) {
  for (parulel::FactId id = 1; id <= wm.high_water(); ++id) {
    if (wm.alive(id)) {
      std::cout << "  f-" << id << " " << wm.to_string(id, *program.symbols)
                << "\n";
    }
  }
}

/// `--serve`: the rule-service line protocol on stdin/stdout.
int run_serve(const Options& opt) {
  parulel::service::ServeOptions serve_opt;
  serve_opt.service = opt.service;
  serve_opt.service.output = &std::cout;
  serve_opt.echo = opt.echo;
  const int errors = parulel::service::serve(std::cin, std::cout, serve_opt);
  return errors == 0 ? kExitOk : kExitRuntime;
}

parulel::net::NetServer* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  // NetServer::stop() is async-signal-safe: one write on a self-pipe.
  if (g_server != nullptr) g_server->stop();
}

/// `--listen`: the same protocol over TCP, until SIGINT/SIGTERM.
int run_listen(const Options& opt) {
  parulel::net::NetServerConfig cfg;
  cfg.host = opt.host;
  cfg.port = opt.port;
  cfg.max_connections = opt.max_conns;
  cfg.idle_timeout_ms = opt.idle_timeout_ms;
  cfg.drain_timeout_ms = opt.drain_timeout_ms;
  cfg.shards = opt.shards;
  cfg.service = opt.service;
  cfg.echo = opt.echo;
  cfg.replica_of = opt.replica_of;
  cfg.repl_timeout_ms = opt.repl_timeout_ms;
  cfg.promote_grace_ms = opt.promote_grace_ms;
  if (!opt.net_fault_spec.empty()) {
    cfg.faults = parulel::net::NetFaultPlan::parse(opt.net_fault_spec);
  }

  parulel::net::NetServer server(cfg);
  if (!server.start()) throw IoError(server.error());
  for (const auto& report : server.recovery_reports()) {
    if (report.ok) {
      std::cout << "recovered " << report.name << " batches=" << report.batches
                << " ops=" << report.ops << " facts=" << report.facts;
      if (report.torn_bytes > 0) {
        // Name what the crash tore and where, not just how much.
        std::cout << " torn=" << report.torn_kind << "@" << report.torn_offset
                  << "+" << report.torn_bytes;
      }
      std::cout << "\n";
    } else {
      std::cout << "quarantined " << report.name << ": " << report.error
                << "\n";
    }
  }
  if (!opt.port_file.empty()) {
    std::ofstream pf(opt.port_file);
    if (!pf) throw IoError("cannot open " + opt.port_file + " for writing");
    pf << server.port() << "\n";
  }
  std::cout << "listening on " << opt.host << ":" << server.port() << "\n"
            << std::flush;

  g_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  server.run();
  g_server = nullptr;

  const parulel::NetStats stats = server.stats_snapshot();
  std::cout << "net:";
  for (const auto& f : parulel::obs::net_fields()) {
    std::cout << ' ' << f.name << '=' << stats.*f.member;
  }
  std::cout << "\n";
  if (opt.service.journal.enabled()) {
    // Sum the per-shard journal counters into one row (one shard owns
    // each session, so the rows partition cleanly).
    parulel::JournalStats jstats;
    for (unsigned i = 0; i < server.shards(); ++i) {
      const parulel::JournalStats row =
          server.shard_service(i).journal_stats_snapshot();
      for (const auto& f : parulel::obs::journal_fields()) {
        jstats.*f.member += row.*f.member;
      }
    }
    std::cout << "journal:";
    for (const auto& f : parulel::obs::journal_fields()) {
      std::cout << ' ' << f.name << '=' << jstats.*f.member;
    }
    std::cout << "\n";
    const parulel::ReplStats repl = server.repl_stats_snapshot();
    std::cout << "repl:";
    for (const auto& f : parulel::obs::repl_fields()) {
      std::cout << ' ' << f.name << '=' << repl.*f.member;
    }
    std::cout << "\n";
  }
  return kExitOk;
}

void print_response(const parulel::net::Response& response) {
  std::cout << response.status << "\n";
  for (const std::string& detail : response.details) {
    std::cout << detail << "\n";
  }
}

/// Split "HOST:PORT[,HOST:PORT...]" into (host, port) pairs.
std::vector<std::pair<std::string, std::uint16_t>> parse_endpoints(
    const std::string& target) {
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
  std::istringstream stream(target);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t colon = item.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == item.size()) {
      throw UsageError("--connect endpoints must be HOST:PORT, got '" + item +
                       "'");
    }
    const std::uint64_t port = parse_count("--connect", item.substr(colon + 1));
    if (port == 0 || port > 65535) {
      throw UsageError("--connect port must be 1..65535");
    }
    endpoints.emplace_back(item.substr(0, colon),
                           static_cast<std::uint16_t>(port));
  }
  if (endpoints.empty()) throw UsageError("--connect needs HOST:PORT");
  return endpoints;
}

/// `--connect HOST:PORT[,HOST:PORT...]`: read command lines from stdin,
/// print each response; same exit-code contract as --serve. With
/// `--retry N` the exactly-once RetryClient drives each line instead of
/// a plain request/response, surviving server restarts mid-script;
/// extra comma-separated endpoints are its ordered failover list. When
/// every endpoint stays dead through the attempt cap, the script gets
/// one terminal `err unavailable` and the process exits with the I/O
/// code.
int run_connect(const Options& opt) {
  const auto endpoints = parse_endpoints(opt.connect_target);
  if (endpoints.size() > 1 && opt.retry_attempts == 0) {
    throw UsageError("multiple --connect endpoints need --retry or "
                     "--retry-max-attempts (failover is the retry "
                     "client's job)");
  }
  const std::string& host = endpoints.front().first;
  const std::uint16_t port = endpoints.front().second;

  int errors = 0;
  std::string line;

  if (opt.retry_attempts > 0) {
    parulel::net::RetryConfig rcfg;
    rcfg.host = host;
    rcfg.port = port;
    rcfg.endpoints.assign(endpoints.begin() + 1, endpoints.end());
    rcfg.max_attempts = opt.retry_attempts;
    if (opt.connect_timeout_ms > 0) {
      rcfg.connect_timeout_ms = opt.connect_timeout_ms;
    }
    if (opt.io_timeout_ms > 0) rcfg.io_timeout_ms = opt.io_timeout_ms;
    rcfg.seed = opt.retry_seed;
    parulel::net::RetryClient client(rcfg);
    bool unavailable = false;
    while (std::getline(std::cin, line)) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      if (opt.echo) std::cout << "> " << line << "\n";
      parulel::net::Response response;
      if (!client.exec(line, response)) {
        // Every endpoint refused for the whole attempt budget: the
        // cluster is dead. One terminal client-side error, then stop —
        // retrying the rest of the script would just burn the same
        // budget per line.
        std::cout << "err unavailable: " << client.error() << "\n";
        ++errors;
        unavailable = true;
        break;
      }
      print_response(response);
      if (!response.ok()) ++errors;
      if (response.status == "ok quit") break;
    }
    const parulel::RetryStats& rs = client.stats();
    std::cerr << "retry:";
    for (const auto& f : parulel::obs::retry_fields()) {
      std::cerr << ' ' << f.name << '=' << rs.*f.member;
    }
    std::cerr << "\n";
    if (unavailable) return kExitIo;
    return errors == 0 ? kExitOk : kExitRuntime;
  }

  parulel::net::NetClient::Options copts;
  copts.connect_timeout_ms = opt.connect_timeout_ms;
  copts.io_timeout_ms = opt.io_timeout_ms;
  parulel::net::NetClient client(copts);
  if (!client.connect(host, port)) {
    throw IoError(client.error());
  }

  while (std::getline(std::cin, line)) {
    // Blank and comment-only lines produce no response; skip them so
    // request:response stays 1:1.
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    if (opt.echo) std::cout << "> " << line << "\n";
    parulel::net::Response response;
    if (!client.request(line, response)) throw IoError(client.error());
    print_response(response);
    if (!response.ok()) ++errors;
    if (response.status == "ok quit") break;  // server closes after this
  }
  return errors == 0 ? kExitOk : kExitRuntime;
}

/// The parulel_site binary for spawn-mode clusters: explicit flag, then
/// $PARULEL_SITE_BIN, then `parulel_site` next to this executable.
std::string resolve_site_bin(const std::string& flag_value) {
  if (!flag_value.empty()) return flag_value;
  if (const char* env = std::getenv("PARULEL_SITE_BIN"); env && *env) {
    return env;
  }
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    std::string dir(self);
    const auto slash = dir.rfind('/');
    if (slash != std::string::npos) {
      return dir.substr(0, slash + 1) + "parulel_site";
    }
  }
  return "parulel_site";  // hope for $PATH
}

int run_cli(const Options& opt) {
  std::ifstream in(opt.program_path);
  if (!in) throw IoError("cannot open " + opt.program_path);
  std::stringstream buffer;
  buffer << in.rdbuf();

  const parulel::Program program = parulel::parse_program(buffer.str());
  std::cout << "loaded: " << program.rules.size() << " rules, "
            << program.meta_rules.size() << " meta-rules, "
            << program.schema.size() << " templates, "
            << program.initial_facts.size() << " initial facts\n";

  std::ofstream trace_file;
  std::unique_ptr<parulel::obs::TraceSink> trace_sink;
  if (!opt.trace_json_path.empty()) {
    trace_file.open(opt.trace_json_path);
    if (!trace_file) {
      throw IoError("cannot open " + opt.trace_json_path + " for writing");
    }
    trace_sink = std::make_unique<parulel::obs::TraceSink>(trace_file);
  }
  parulel::obs::MetricsRegistry registry;
  const bool want_metrics = opt.metrics || !opt.metrics_json_path.empty();

  parulel::TerminationReason termination = parulel::TerminationReason::Unknown;

  if (opt.cluster_sites > 0) {
    parulel::ClusterConfig cfg;
    cfg.sites = opt.cluster_sites;
    cfg.program_path = opt.program_path;
    cfg.port = opt.cluster_port;
    cfg.spawn = opt.cluster_spawn;
    if (cfg.spawn) cfg.site_bin = resolve_site_bin(opt.cluster_bin);
    cfg.journal_dir = opt.service.journal.dir;
    cfg.partition_spec = opt.partition_spec_raw;
    cfg.fault_spec = opt.fault_plan_spec;
    if (!opt.fault_plan_spec.empty()) {
      cfg.faults = parulel::FaultPlan::parse(opt.fault_plan_spec);
    }
    cfg.max_cycles = opt.max_cycles;
    if (opt.checkpoint_every > 0) cfg.checkpoint_every = opt.checkpoint_every;
    cfg.fsync = opt.service.journal.fsync;
    cfg.log = opt.trace ? &std::cout : nullptr;

    parulel::ClusterDriver driver(program, cfg);
    const parulel::ClusterOutcome out = driver.run();

    std::cout << "[cluster] " << cfg.sites << " site processes, "
              << out.cycles << " barriers, "
              << (out.halted ? "halted"
                             : out.quiescent ? "quiescent" : "cycle-limit")
              << ", " << out.facts << " facts\n";
    const parulel::ClusterStats& cs = out.stats;
    std::cout << "cluster: sent " << cs.sent << ", applied " << cs.applied
              << ", dup-suppressed " << cs.dup_suppressed << ", retries "
              << cs.retries << ", dropped " << cs.dropped << ", kills "
              << cs.kills << ", restores " << cs.restores << ", batches "
              << cs.batches << ", snapshots " << cs.snapshots << "\n";
    std::cout << "cluster phases: join_ns " << cs.join_ns << ", barrier_ns "
              << cs.barrier_ns << ", dump_ns " << cs.dump_ns << ", stop_ns "
              << cs.stop_ns << "\n";
    std::cout << "global fingerprint: " << std::hex << out.fingerprint
              << std::dec << "\n";
    if (want_metrics) cs.publish(registry);
    if (opt.metrics) std::cout << "metrics:\n" << registry.to_text();
    if (!opt.metrics_json_path.empty()) {
      std::ofstream mf(opt.metrics_json_path);
      if (!mf) {
        throw IoError("cannot open " + opt.metrics_json_path +
                      " for writing");
      }
      mf << registry.to_json() << "\n";
    }
    if (!out.halted && !out.quiescent) {
      std::cerr << "run truncated: hit --max-cycles before quiescence\n";
      return kExitCycleLimit;
    }
    return kExitOk;
  }

  if (opt.engine_kind == "dist") {
    parulel::DistConfig cfg;
    cfg.sites = opt.sites;
    cfg.max_cycles = opt.max_cycles;
    cfg.trace_cycles = opt.trace;
    cfg.output = &std::cout;
    cfg.checkpoint_every = opt.checkpoint_every;
    if (!opt.fault_plan_spec.empty()) {
      cfg.faults = parulel::FaultPlan::parse(opt.fault_plan_spec);
    }
    cfg.trace = trace_sink.get();
    if (want_metrics) cfg.metrics = &registry;

    parulel::PartitionScheme scheme(program, opt.partition);
    parulel::DistributedEngine engine(program, std::move(scheme), cfg);
    engine.assert_initial_facts();
    const parulel::DistStats stats = engine.run();
    termination = stats.run.termination;

    std::cout << "[distributed] " << stats.run.summary() << "\n";
    std::cout << "dist: " << opt.sites << " sites, " << stats.messages
              << " messages, " << stats.broadcasts << " broadcasts\n";
    if (cfg.faults.enabled() || cfg.checkpoint_every > 0) {
      const auto& f = stats.faults;
      std::cout << "faults: sent " << f.sent << ", delivered " << f.delivered
                << ", dropped " << f.dropped << ", retries " << f.retries
                << ", dup-suppressed " << f.dup_suppressed << ", crashes "
                << f.crashes << ", restores " << f.restores
                << ", checkpoints " << f.checkpoints << "\n";
    }
    std::cout << "global fingerprint: " << std::hex
              << engine.global_fingerprint() << std::dec << "\n";
    if (opt.dump_wm) {
      for (unsigned s = 0; s < engine.site_count(); ++s) {
        const auto& wm = engine.site_wm(s);
        std::cout << "site " << s << " working memory (" << wm.alive_count()
                  << " facts):\n";
        dump_working_memory(wm, program);
      }
    }
  } else {
    parulel::EngineConfig cfg;
    cfg.threads = opt.threads;
    cfg.max_cycles = opt.max_cycles;
    cfg.trace_cycles = opt.trace;
    cfg.strategy = opt.strategy;
    cfg.output = &std::cout;
    cfg.trace = trace_sink.get();
    if (want_metrics) cfg.metrics = &registry;

    std::unique_ptr<parulel::Engine> engine;
    if (opt.engine_kind == "par") {
      // Any TREAT-family matcher works under the parallel engine; the
      // sharded parallel matcher is only the default.
      cfg.matcher = opt.matcher_explicit
                        ? opt.seq_matcher
                        : parulel::MatcherKind::ParallelTreat;
      engine = std::make_unique<parulel::ParallelEngine>(program, cfg);
    } else {
      cfg.matcher = opt.seq_matcher;
      engine = std::make_unique<parulel::SequentialEngine>(program, cfg);
    }

    engine->assert_initial_facts();
    const parulel::RunStats stats = engine->run();
    termination = stats.termination;
    std::cout << "[" << engine->name() << "] " << stats.summary() << "\n";

    if (opt.trace) {
      std::cout << "cycle  conflict-set  redacted  fired  asserts  retracts"
                   "  wconf\n";
      for (const auto& c : stats.per_cycle) {
        std::cout << "  " << c.cycle << "\t" << c.conflict_set_size << "\t\t"
                  << c.redacted << "\t  " << c.fired << "\t " << c.asserts
                  << "\t  " << c.retracts << "\t  " << c.write_conflicts
                  << "\n";
      }
    }
    if (opt.dump_wm) {
      const auto& wm = engine->wm();
      std::cout << "final working memory (" << wm.alive_count()
                << " facts):\n";
      dump_working_memory(wm, program);
    }
  }

  if (trace_sink) {
    std::cout << "trace: " << trace_sink->events() << " events -> "
              << opt.trace_json_path << "\n";
  }
  if (opt.metrics) std::cout << "metrics:\n" << registry.to_text();
  if (!opt.metrics_json_path.empty()) {
    std::ofstream mf(opt.metrics_json_path);
    if (!mf) {
      throw IoError("cannot open " + opt.metrics_json_path + " for writing");
    }
    mf << registry.to_json() << "\n";
  }

  if (termination == parulel::TerminationReason::CycleLimit) {
    std::cerr << "run truncated: hit --max-cycles before quiescence\n";
    return kExitCycleLimit;
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0)) {
      print_usage(std::cout);
      return kExitOk;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--help-markdown") == 0) {
      print_usage_markdown(std::cout);
      return kExitOk;
    }
    const Options opt = parse_args(argc, argv);
    switch (opt.mode) {
      case Mode::Serve: return run_serve(opt);
      case Mode::Listen: return run_listen(opt);
      case Mode::Connect: return run_connect(opt);
      case Mode::Run: break;
    }
    return run_cli(opt);
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n\n";
    print_usage(std::cerr);
    return kExitUsage;
  } catch (const IoError& e) {
    std::cerr << "io error: " << e.what() << "\n";
    return kExitIo;
  } catch (const parulel::ParseError& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return kExitParse;
  } catch (const parulel::RuntimeError& e) {
    std::cerr << "runtime error: " << e.what() << "\n";
    return kExitRuntime;
  }
}
