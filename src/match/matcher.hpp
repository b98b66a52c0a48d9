// Matcher interface: incremental maintenance of the conflict set.
//
// Engines drive matchers with working-memory deltas; matchers keep the
// conflict set exactly equal to the set of currently satisfied, not-yet-
// fired instantiations. Three implementations:
//   TreatMatcher          — sequential TREAT (no beta memories)
//   ReteMatcher           — sequential RETE (beta memories, classic)
//   ParallelTreatMatcher  — TREAT with rule x delta-chunk parallelism
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "match/conflict_set.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

class ThreadPool;
struct Program;

/// Which match algorithm to construct. The single source of truth for
/// the string spelling is matcher_kind_name()/parse_matcher_kind();
/// construction goes through make_matcher() below — engines, the CLI,
/// the service layer, benches, and tests all share one switch.
enum class MatcherKind : std::uint8_t { Rete, Treat, ParallelTreat };

/// Stable export/CLI name: "rete", "treat", "parallel-treat".
const char* matcher_kind_name(MatcherKind kind);

/// Inverse of matcher_kind_name(); nullopt for unknown spellings.
std::optional<MatcherKind> parse_matcher_kind(std::string_view name);

/// Every constructible kind, in a stable order. Benches and CLI help
/// iterate this so a new matcher kind propagates everywhere for free.
std::span<const MatcherKind> all_matcher_kinds();

/// Matcher-side counters (for the match-algorithm comparison benches
/// and the obs layer's per-cycle trace events).
struct MatchStats {
  std::uint64_t deltas_processed = 0;
  std::uint64_t insts_derived = 0;
  std::uint64_t insts_invalidated = 0;
  std::uint64_t alpha_activations = 0;  ///< fact x alpha-memory routing events
  std::uint64_t full_rematches = 0;   ///< TREAT negative-retract fallbacks
  /// Emissions the conflict set refused as duplicates or refracted: join
  /// work spent on a match that already existed. Once-only derivation
  /// keeps this at 0 for TREAT deltas without quantified CEs.
  std::uint64_t derive_rejects = 0;
  std::uint64_t tokens_created = 0;   ///< RETE only
  std::uint64_t tokens_deleted = 0;   ///< RETE only

  /// Approximate resident state in entries (beta tokens or conflict set).
  std::uint64_t state_entries = 0;

  /// Externally injected batches folded in via apply_external_delta
  /// (service layer). Stays 0 on pure batch runs; on a retained session
  /// it counts one per ingested batch while the network itself is never
  /// rebuilt.
  std::uint64_t external_deltas = 0;
};

class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Fold one WM delta into the conflict set. The engine guarantees the
  /// delta's removed facts are still readable via wm.view() (tombstones).
  virtual void apply_delta(const WorkingMemory& wm, const Delta& delta) = 0;

  /// Fold a delta injected from OUTSIDE the recognize-act loop — the
  /// service layer's incremental batch ingestion (src/service/). The
  /// match work is identical to apply_delta; the separate entry point
  /// counts external batches so tests can prove a retained network is
  /// being reused across batches instead of rebuilt.
  void apply_external_delta(const WorkingMemory& wm, const Delta& delta) {
    apply_delta(wm, delta);
    ++stats_mut().external_deltas;
  }

  virtual ConflictSet& conflict_set() = 0;
  const ConflictSet& conflict_set() const {
    return const_cast<Matcher*>(this)->conflict_set();
  }

  virtual const MatchStats& stats() const = 0;
  virtual const char* name() const = 0;

 protected:
  /// Mutable counter access for the base-class external-delta hook.
  virtual MatchStats& stats_mut() = 0;

  /// Debug-asserts the invariant the conflict set's refraction rests on
  /// (match/conflict_set.hpp): every fact a delta adds is newer than
  /// any this matcher has seen, so a retracted fact id never returns.
  /// Each apply_delta calls it first; a clear() of the matcher resets it
  /// via forget_fact_ids().
  void check_fact_ids([[maybe_unused]] const Delta& delta) {
#ifndef NDEBUG
    if (delta.added.empty()) return;
    assert(delta.added.front() > newest_fact_ &&
           "a FactId reached the matcher twice");
    newest_fact_ = delta.added.back();
#endif
  }
  void forget_fact_ids() { newest_fact_ = kInvalidFact; }

 private:
  FactId newest_fact_ = kInvalidFact;  ///< read by debug builds only
};

/// Construct a matcher over `program`'s object-level rules and alphas.
/// ParallelTreat requires `pool` (it fans derivation out as fork-join
/// batches); the other kinds ignore it. Throws RuntimeError when
/// ParallelTreat is requested without a pool. `program` (and `pool`,
/// when used) must outlive the matcher.
std::unique_ptr<Matcher> make_matcher(MatcherKind kind,
                                      const Program& program,
                                      ThreadPool* pool = nullptr);

}  // namespace parulel
