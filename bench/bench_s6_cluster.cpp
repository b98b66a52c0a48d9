// R-S6 — Multi-process cluster: what real sockets and real crashes
// cost relative to the in-process simulator.
//
// Part A: barrier throughput vs site count. The same transitive-closure
// workload is driven to quiescence by a ClusterDriver over 1..4
// parulel_site processes (fault-free, volatile sites), next to the
// single-process DistributedEngine running the identical partition.
// Every cluster leg must reproduce the simulator's global fingerprint
// bit for bit — a mismatch aborts the bench, because every other
// number in the table would then be measuring a broken cluster. The
// driver's own phase split (join, barriers, dump, stop; they sum to
// its run() time) follows each leg.
//
// Part B: the recovery-cost knob. A 3-site journaled cluster takes a
// real SIGKILL at a barrier boundary and the killed site rejoins from
// its WAL, at snapshot intervals from every-batch to effectively-never.
// Small intervals buy short replay at the price of constant snapshot
// rewrites; the table shows both sides (wall time, snapshots written,
// batches journaled) so the trade is explicit. Fingerprints are
// checked here too: a recovery that converges to the wrong state is a
// bench bug, not a data point.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "distrib/cluster_driver.hpp"
#include "support/timer.hpp"
#include "workloads/workloads.hpp"

using namespace parulel;
using namespace parulel::bench;
namespace fs = std::filesystem;

namespace {

struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("parulel_bench_s6_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string write_program(const TempDir& dir, const std::string& source) {
  const fs::path p = dir.path / "prog.clp";
  std::ofstream(p) << source;
  return p.string();
}

std::string partition_spec_of(const workloads::Workload& wl) {
  std::string spec;
  for (const auto& [tmpl, slot] : wl.partition) {
    if (!spec.empty()) spec += ",";
    spec += tmpl + "=" + slot;
  }
  return spec;
}

struct ClusterRun {
  ClusterOutcome out;
  double wall_ms = 0;
};

ClusterRun run_cluster(const workloads::Workload& wl, unsigned sites,
                       const std::string& fault_spec,
                       std::uint64_t checkpoint_every, bool journal) {
  TempDir dir;  // fresh per run: WALs must not leak across legs
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
  cfg.checkpoint_every = checkpoint_every;
  cfg.fsync = false;  // ordering still holds; fsync cost is R-S3's story
  ClusterDriver driver(program, cfg);
  ClusterRun r;
  Timer t;
  r.out = driver.run();
  r.wall_ms = ms(t.elapsed_ns());
  return r;
}

std::uint64_t simulator_fingerprint(const workloads::Workload& wl,
                                    unsigned sites, double* wall_ms) {
  const Program program = parse_program(wl.source);
  DistConfig cfg;
  cfg.sites = sites;
  cfg.max_cycles = 10'000;
  PartitionScheme scheme(program, wl.partition);
  DistributedEngine engine(program, std::move(scheme), cfg);
  engine.assert_initial_facts();
  Timer t;
  engine.run();
  if (wall_ms) *wall_ms = ms(t.elapsed_ns());
  return engine.global_fingerprint();
}

void require_match(std::uint64_t got, std::uint64_t want, const char* leg) {
  if (got != want) {
    std::fprintf(stderr,
                 "R-S6 FATAL: %s fingerprint %016llx != reference %016llx\n",
                 leg, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    std::exit(1);
  }
}

}  // namespace

int main() {
  const auto wl = workloads::make_tc(14, 30, 5);
  JsonReport json("R-S6");

  // ---------------------------------------------------- Part A: scaling
  header("R-S6a", "cluster barrier throughput vs site count  (" + wl.name +
                      ", fault-free, volatile sites)");
  std::printf("%-22s %9s %9s %9s %9s %11s\n", "config", "wall ms", "barriers",
              "sent", "firings", "barriers/s");
  for (unsigned sites = 1; sites <= 4; ++sites) {
    double sim_ms = 0;
    const std::uint64_t want = simulator_fingerprint(wl, sites, &sim_ms);
    const ClusterRun r = run_cluster(wl, sites, "", /*checkpoint_every=*/32,
                                     /*journal=*/false);
    require_match(r.out.fingerprint, want,
                  ("cluster x" + std::to_string(sites)).c_str());
    const double per_s =
        r.wall_ms > 0 ? 1e3 * static_cast<double>(r.out.cycles) / r.wall_ms
                      : 0;
    std::printf("%-22s %9.1f %9llu %9llu %9llu %11.0f\n",
                ("processes x" + std::to_string(sites)).c_str(), r.wall_ms,
                static_cast<unsigned long long>(r.out.cycles),
                static_cast<unsigned long long>(r.out.stats.sent),
                static_cast<unsigned long long>(r.out.stats.firings), per_s);
    const ClusterStats& st = r.out.stats;
    std::printf("%-22s join %.1f, barriers %.1f, dump %.1f, stop %.1f ms\n",
                "  phases", ms(st.join_ns), ms(st.barrier_ns), ms(st.dump_ns),
                ms(st.stop_ns));
    std::printf("%-22s %9.1f %9s %9s %9s %11s\n",
                ("  simulator x" + std::to_string(sites)).c_str(), sim_ms,
                "-", "-", "-", "-");
    json.add_row("cluster_x" + std::to_string(sites),
                 {{"sites", static_cast<double>(sites)},
                  {"wall_ms", r.wall_ms},
                  {"sim_wall_ms", sim_ms},
                  {"barriers", static_cast<double>(r.out.cycles)},
                  {"facts", static_cast<double>(r.out.facts)},
                  {"sent", static_cast<double>(r.out.stats.sent)},
                  {"applied", static_cast<double>(r.out.stats.applied)},
                  {"firings", static_cast<double>(r.out.stats.firings)},
                  {"barriers_per_s", per_s},
                  {"join_ms", ms(st.join_ns)},
                  {"barrier_ms", ms(st.barrier_ns)},
                  {"dump_ms", ms(st.dump_ns)},
                  {"stop_ms", ms(st.stop_ns)}});
  }

  // ------------------------------------------- Part B: recovery knob
  const char* kCrashPlan = "crash=1@2+2";
  header("R-S6b", std::string("recovery cost vs snapshot interval  (3 sites, "
                              "journaled, ") +
                      kCrashPlan + ")");
  const std::uint64_t want3 = simulator_fingerprint(wl, 3, nullptr);
  std::printf("%-22s %9s %9s %9s %9s %9s\n", "checkpoint-every", "wall ms",
              "barriers", "batches", "snapshots", "restores");
  for (std::uint64_t every : {1ull, 4ull, 16ull, 64ull}) {
    const ClusterRun r = run_cluster(wl, 3, kCrashPlan, every,
                                     /*journal=*/true);
    require_match(r.out.fingerprint, want3,
                  ("checkpoint=" + std::to_string(every)).c_str());
    std::printf("%-22llu %9.1f %9llu %9llu %9llu %9llu\n",
                static_cast<unsigned long long>(every), r.wall_ms,
                static_cast<unsigned long long>(r.out.cycles),
                static_cast<unsigned long long>(r.out.stats.batches),
                static_cast<unsigned long long>(r.out.stats.snapshots),
                static_cast<unsigned long long>(r.out.stats.restores));
    json.add_row("checkpoint_" + std::to_string(every),
                 {{"checkpoint_every", static_cast<double>(every)},
                  {"wall_ms", r.wall_ms},
                  {"barriers", static_cast<double>(r.out.cycles)},
                  {"batches", static_cast<double>(r.out.stats.batches)},
                  {"snapshots", static_cast<double>(r.out.stats.snapshots)},
                  {"kills", static_cast<double>(r.out.stats.kills)},
                  {"restores", static_cast<double>(r.out.stats.restores)}});
  }

  std::printf("\nall cluster fingerprints matched the simulator reference\n");
  return 0;
}
