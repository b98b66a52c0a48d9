// Working memory: the fact store the engines and matchers share.
//
// Design points:
//  - *Set semantics.* Asserting a fact whose (template, slots) content
//    already exists alive is absorbed (returns kInvalidFact). This is
//    CLIPS's default and is what makes saturation workloads (transitive
//    closure etc.) terminate.
//  - *Stable storage.* Fact records are kept (tombstoned, not freed) for
//    the lifetime of the store, so matchers may hold FactIds across
//    retraction and still read slot values while draining deltas.
//  - *Handles, not records.* Consumers read facts through FactView
//    handles from view(id); the store underneath is columnar
//    (wm/fact_store.hpp) and its layout is not part of the API. There
//    is deliberately no `const Fact&` / fact-array escape hatch.
//  - *Delta log.* Every mutation appends to the pending delta, which the
//    engine hands to its matcher once per cycle; `drain_delta()` moves it
//    out.
//  - *Single-writer.* WM mutation is only ever performed by the engine's
//    merge phase on one thread; parallel RHS execution writes to per-
//    worker FiringBuffers (engine/actions.hpp), never to WM directly.
#pragma once

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/flat_group_map.hpp"
#include "wm/fact_store.hpp"
#include "wm/schema.hpp"

namespace parulel {

/// The changes applied to working memory since the matcher last ran.
struct Delta {
  std::vector<FactId> added;
  std::vector<FactId> removed;

  bool empty() const { return added.empty() && removed.empty(); }
  void clear() {
    added.clear();
    removed.clear();
  }
};

class WorkingMemory {
 public:
  explicit WorkingMemory(const Schema& schema);

  /// Assert a fact. Returns its new FactId, or kInvalidFact when an alive
  /// fact with identical content absorbed it (set semantics). The slots
  /// are copied into the store; the caller keeps its buffer.
  FactId assert_fact(TemplateId tmpl, std::span<const Value> slots);
  FactId assert_fact(TemplateId tmpl, std::initializer_list<Value> slots) {
    return assert_fact(tmpl, std::span<const Value>(slots.begin(), slots.size()));
  }

  /// assert_fact with the hashing already done: `slot_hashes` holds
  /// each slot's Value::hash() and `content_hash` is
  /// fact_content_hash(tmpl, slots), as hash_fact_slots computes them.
  /// assert_fact is hash_fact_slots + this; the buffered engines hash
  /// while firing and call it from their serial merge. Debug builds
  /// recompute both hashes and assert they agree.
  FactId assert_hashed(TemplateId tmpl, std::span<const Value> slots,
                       std::span<const std::size_t> slot_hashes,
                       std::size_t content_hash);

  /// Empty the store back to its just-constructed state: no facts, no
  /// pending delta, ids restarting at 1. Capacity is kept, and the cost
  /// is O(facts asserted since the last clear) — the meta level reuses
  /// one store across cycles this way (meta/meta_engine.hpp). Views and
  /// ids handed out before the clear are invalid after it.
  void clear();

  /// Retract by id. Returns false when the id is unknown or already dead.
  bool retract(FactId id);

  /// Assert a fact under a caller-chosen id — the journal-recovery path
  /// (service/journal.hpp), which must rebuild a store whose FactIds
  /// match the pre-crash run exactly (clients hold ids across restarts,
  /// and replay determinism depends on the time-tag order). `id` must be
  /// above high_water(); skipped ids in between become permanent
  /// tombstones, exactly as if those facts had lived and been retracted.
  /// Unlike assert_fact, a live duplicate is an error (the journal never
  /// records absorbed asserts), so this throws RuntimeError instead of
  /// absorbing.
  FactId assert_fact_at(FactId id, TemplateId tmpl, std::vector<Value> slots);

  /// Advance the id counter so high_water() == `high_water`, tombstoning
  /// the skipped ids. Recovery calls this last so post-restore asserts
  /// continue the pre-crash numbering.
  void reserve_ids(FactId high_water);

  /// OPS5 modify: retract `id` and assert a copy with `slot` replaced.
  /// Returns the new FactId (or kInvalidFact if absorbed / id dead).
  FactId modify(FactId id, const std::vector<std::pair<int, Value>>& updates);

  /// Typed view of the fact record for `id`; valid for alive and
  /// retracted (tombstoned) facts. Debug builds assert the id names a
  /// materialized record — reserved-id tombstones have none. Inline:
  /// this is the per-candidate load of every join loop.
  FactView view(FactId id) const {
    assert(id != kInvalidFact && id < next_id_ && "view: unknown FactId");
    assert(store_.row_of(id) != kNoFactRow &&
           "view: reserved id has no fact record");
    return store_.view_row(store_.row_of(id));
  }

  /// The columnar store behind the views, for code that iterates rows.
  /// Read-only.
  const FactStore& store() const { return store_; }

  bool alive(FactId id) const;

  /// Find the alive fact with this exact content, if any.
  std::optional<FactId> find(TemplateId tmpl,
                             const std::vector<Value>& slots) const;
  /// Find the alive fact with `fact`'s content — a view into this or any
  /// other store of the same schema — probing with its cached hash.
  std::optional<FactId> find(const FactView& fact) const;

  /// All alive facts of a template (unordered).
  const std::vector<FactId>& extent(TemplateId tmpl) const;

  /// Count of alive facts across all templates.
  std::size_t alive_count() const { return alive_count_; }

  /// Largest id handed out so far.
  FactId high_water() const { return next_id_ - 1; }

  /// Move out the pending delta (added/removed since last drain).
  Delta drain_delta();

  /// Peek at the pending delta without consuming it.
  const Delta& pending_delta() const { return pending_; }

  const Schema& schema() const { return schema_; }

  /// Render a fact as "(tmpl (slot val) ...)" for diagnostics.
  std::string to_string(FactId id, const SymbolTable& symbols) const;

  /// A stable fingerprint of the alive fact *contents* (ids excluded):
  /// two stores with the same alive facts hash equal regardless of the
  /// order or time tags of assertion. Used by determinism/equivalence
  /// tests between engines. O(1): kept as a running XOR that every
  /// assert and retract updates.
  std::uint64_t content_fingerprint() const;

  /// content_fingerprint() of an empty store.
  static constexpr std::uint64_t kFingerprintSeed = 0x5bd1e995u;

 private:
  const Schema& schema_;
  FactStore store_;
  std::vector<std::vector<FactId>> extents_;  // per template, alive only
  std::vector<std::size_t> extent_pos_;       // fact id - 1 -> index in extent
  // content hash -> alive fact rows (set-semantics duplicate detection).
  FlatGroupMap<FactRow> content_index_;
  FactId next_id_ = 1;
  FactId drain_floor_ = 0;  ///< ids at or below this predate the pending delta
  std::size_t alive_count_ = 0;
  /// XOR of fingerprint_mix(content hash) over alive facts, seeded.
  std::uint64_t fingerprint_ = kFingerprintSeed;
  Delta pending_;
  std::vector<std::size_t> hash_scratch_;  ///< per-slot hashes of one assert
};

}  // namespace parulel
