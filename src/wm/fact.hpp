// Facts: immutable tuples with monotone time tags.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/value.hpp"
#include "wm/schema.hpp"

namespace parulel {

/// Monotone fact identifier, doubling as the OPS5 "time tag": larger id
/// means more recently asserted. Ids are never reused within a run, so a
/// FactId uniquely names one assert event — which is what refraction and
/// the recency-based conflict-resolution strategies need.
using FactId = std::uint64_t;
constexpr FactId kInvalidFact = 0;  // valid ids start at 1

/// Dense 32-bit handle of one fact record inside a FactStore (see
/// wm/fact_store.hpp). Rows are assigned in assert order and never
/// reused, so row order == id order == recency order; unlike FactIds,
/// rows are contiguous (reserved-id tombstones get no row), which is
/// what lets alpha memories and join indexes store 4-byte handles.
using FactRow = std::uint32_t;
constexpr FactRow kNoFactRow = 0xffffffffu;

/// Canonical structural hash of fact content (template + slots), time
/// tag excluded. The single definition shared by the store's content
/// index, the checkpoint/journal fingerprint digests and the
/// distributed global fingerprint — these must agree bit-for-bit, so
/// none of them may re-derive the recipe locally.
inline std::size_t fact_content_hash(TemplateId tmpl,
                                     std::span<const Value> slots) {
  std::size_t h = std::hash<std::uint32_t>{}(tmpl);
  for (const Value& v : slots) h = hash_combine(h, v.hash());
  return h;
}

/// fact_content_hash in the same pass that appends each slot's
/// Value::hash() to `slot_hashes` — the store's cached hash column.
/// Whoever asserts (WorkingMemory::assert_fact, or a firing buffer that
/// hashes while firing) computes both through this one function.
inline std::size_t hash_fact_slots(TemplateId tmpl,
                                   std::span<const Value> slots,
                                   std::vector<std::size_t>& slot_hashes) {
  std::size_t h = std::hash<std::uint32_t>{}(tmpl);
  for (const Value& v : slots) {
    const std::size_t vh = v.hash();
    slot_hashes.push_back(vh);
    h = hash_combine(h, vh);
  }
  return h;
}

/// Re-mix a content hash before XOR-accumulating it into an
/// order-independent fingerprint (structured hash pairs would cancel
/// under plain XOR). Shared by WorkingMemory::content_fingerprint and
/// DistributedEngine::global_fingerprint, which equivalence tests and
/// journal batch records compare across engines.
inline std::uint64_t fingerprint_mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// One working-memory element as an owned record. The live store keeps
/// facts columnar (FactStore) and hands out FactViews; this struct
/// survives only at serialization boundaries — exact snapshots, the
/// journal codec — where a self-contained (id, tmpl, slots) tuple is
/// the wire/disk shape. Slots are immutable; `modify` is retract-plus-
/// assert producing a fresh FactId (OPS5 semantics).
struct Fact {
  FactId id = kInvalidFact;
  TemplateId tmpl = kInvalidTemplate;
  std::vector<Value> slots;

  /// Structural key (template + slots), ignoring the time tag.
  std::size_t content_hash() const { return fact_content_hash(tmpl, slots); }

  bool same_content(const Fact& other) const {
    return tmpl == other.tmpl && slots == other.slots;
  }
};

}  // namespace parulel
