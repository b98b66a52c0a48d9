// Alpha memories: per-pattern fact extents with hash join indexes.
//
// One AlphaMemory per distinct (template, constant tests, intra-pattern
// equalities) pattern shape, shared across rules (classic alpha-network
// sharing). Each memory can carry any number of secondary hash indexes,
// one per distinct join-key slot set required by some rule position —
// this is what turns the TREAT/RETE join inner loops into hash probes.
//
// Memories store dense FactRow handles, not FactIds: rows are 4-byte,
// resolve to slot columns without the id -> row map hop, and preserve
// recency order (row order == id order). Key hashes compose from the
// store's cached per-slot hash column, so routing a fact into N
// memories never rehashes a value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lang/program.hpp"
#include "support/flat_group_map.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

/// Seed for join-key hashing. Anyone composing a key hash out of cached
/// per-value hashes (the join's probe path, RETE's token probes) must
/// start from this seed and use hash_combine, or their probes miss the
/// index.
inline constexpr std::size_t kJoinKeySeed = 0x2545f4914f6cdd1dULL;

/// Hash of a tuple of slot values (the join key).
inline std::size_t join_key_hash(std::span<const Value> values) {
  std::size_t h = kJoinKeySeed;
  for (const Value& v : values) h = hash_combine(h, v.hash());
  return h;
}

/// One alpha memory: alive facts passing an AlphaSpec, plus indexes.
///
/// Join indexes are flat open-addressing tables (key hash -> group of
/// fact rows in insertion order) rather than node-based multimaps: the
/// probe is the innermost operation of every join, and pointer-chasing
/// per candidate dominated match time. Groups persist after emptying,
/// so steady-state churn neither allocates nor rehashes.
class AlphaMemory {
 public:
  /// Ensure an index over `slots` exists; returns its handle.
  /// Call before any facts are inserted (matcher construction time).
  int ensure_index(std::vector<int> slots);

  void insert(const FactView& fact);
  void erase(const FactView& fact);

  /// Drop every row, keeping the registered indexes and all capacity.
  /// O(rows held + index groups created since the last clear).
  void clear();

  bool contains(FactRow row) const {
    return row < pos_.size() && pos_[row] != kNotMember;
  }
  const std::vector<FactRow>& rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }

  /// One join-index group: fact rows in insertion order, small sizes
  /// stored inline.
  using Group = FlatGroupMap<FactRow>::Group;

  /// Candidates for a precomputed key hash, appended to `out` in
  /// insertion order. May hold hash-collision false positives: callers
  /// re-verify slot equality.
  void probe_hash(int index_handle, std::size_t hash,
                  std::vector<FactRow>& out) const {
    const Index& index = indexes_[static_cast<std::size_t>(index_handle)];
    if (const Group* g = index.map.find(hash)) {
      out.insert(out.end(), g->begin(), g->end());
    }
  }

  /// Direct view of one index group (no copy, iteration in insertion
  /// order) — the zero-copy probe path both matchers use: memories are
  /// never mutated while a join enumerates, so iterating the group in
  /// place is safe. Nullptr when the key was never inserted.
  const Group* probe_group(int index_handle, std::size_t hash) const {
    return indexes_[static_cast<std::size_t>(index_handle)].map.find(hash);
  }

  /// A probe hit with the group's canonical-key metadata. For a pure
  /// group (every member shares the key-slot values), `rep` is one of
  /// its members: comparing the rep's key slots against the probe key
  /// verifies the whole group at once. `rep` is kNoFactRow when the
  /// group is empty or a 64-bit key collision put distinct value tuples
  /// into one group — callers then re-verify per candidate.
  struct ProbeHit {
    const Group* group = nullptr;  ///< nullptr: key never seen
    FactRow rep = kNoFactRow;      ///< pure-group representative
    const int* rep_slots = nullptr;  ///< the index's key slot list
  };

  ProbeHit probe_group_canon(int index_handle, std::size_t hash) const {
    const Index& index = indexes_[static_cast<std::size_t>(index_handle)];
    const std::size_t gid = index.map.find_group_id(hash);
    if (gid == FlatGroupMap<FactRow>::npos) return {};
    const Group& g = index.map.group(gid);
    const bool pure = index.canon_pure[gid] != 0 && !g.empty();
    return {&g, pure ? *g.begin() : kNoFactRow, index.slots.data()};
  }

 private:
  struct Index {
    std::vector<int> slots;
    FlatGroupMap<FactRow> map;  ///< key hash -> rows, insertion order
    /// Flat per-group purity pool: canon_pure[gid] means every member
    /// of group gid shares its key-slot values, so any member serves as
    /// the group's canonical key (probe_group_canon hands out the
    /// first — the values live in the fact store's slot columns, not in
    /// a side copy). Since groups are keyed by the full 64-bit key
    /// hash, impurity means a genuine hash collision between distinct
    /// key tuples — vanishingly rare, but handled: probes then
    /// re-verify per candidate. An emptied group re-canonicalizes on
    /// its next insert.
    std::vector<std::uint8_t> canon_pure;
  };

  static constexpr std::uint32_t kNotMember = 0xffffffffu;

  std::vector<FactRow> rows_;
  /// fact row -> index in rows_, or kNotMember. Direct-indexed by the
  /// dense row handle: rows arrive in increasing order, so the table
  /// grows by amortized appends and membership is one load — the hash
  /// probe this replaces was the top cost of routing a delta.
  std::vector<std::uint32_t> pos_;
  std::vector<Index> indexes_;
};

/// All alpha memories for one rule level (object or meta), with routing
/// from template id to the memories that may accept its facts.
class AlphaStore {
 public:
  AlphaStore(std::span<const AlphaSpec> specs, std::size_t template_count);

  AlphaMemory& memory(std::uint32_t alpha) { return memories_[alpha]; }
  const AlphaMemory& memory(std::uint32_t alpha) const {
    return memories_[alpha];
  }
  const AlphaSpec& spec(std::uint32_t alpha) const { return specs_[alpha]; }
  std::size_t count() const { return memories_.size(); }

  /// Alphas whose spec accepts this fact (template routed, tests applied).
  void matching_alphas(const FactView& fact,
                       std::vector<std::uint32_t>& out) const;

  /// Route a fact into / out of every accepting memory.
  void on_assert(const FactView& fact);
  void on_retract(const FactView& fact);

  /// Empty every memory (AlphaMemory::clear).
  void clear();

 private:
  std::vector<AlphaSpec> specs_;
  std::vector<AlphaMemory> memories_;
  std::vector<std::vector<std::uint32_t>> by_template_;
};

}  // namespace parulel
