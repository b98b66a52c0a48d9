#include "wm/working_memory.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "support/error.hpp"

namespace parulel {

WorkingMemory::WorkingMemory(const Schema& schema) : schema_(schema) {
  extents_.resize(schema.size());
}

void WorkingMemory::clear() {
  store_.clear();
  for (auto& extent : extents_) extent.clear();
  extent_pos_.clear();
  content_index_.clear();
  next_id_ = 1;
  drain_floor_ = 0;
  alive_count_ = 0;
  fingerprint_ = kFingerprintSeed;
  pending_.clear();
}

FactId WorkingMemory::assert_fact(TemplateId tmpl,
                                  std::span<const Value> slots) {
  hash_scratch_.clear();
  const std::size_t h = hash_fact_slots(tmpl, slots, hash_scratch_);
  return assert_hashed(tmpl, slots, hash_scratch_, h);
}

FactId WorkingMemory::assert_hashed(TemplateId tmpl,
                                    std::span<const Value> slots,
                                    std::span<const std::size_t> slot_hashes,
                                    std::size_t content_hash) {
  assert(tmpl < schema_.size());
  if (static_cast<int>(slots.size()) != schema_.at(tmpl).arity()) {
    throw RuntimeError("assert arity mismatch for template '" +
                       std::string("?") + "'");
  }
#ifndef NDEBUG
  assert(slot_hashes.size() == slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    assert(slot_hashes[i] == slots[i].hash() && "stale slot hash");
  }
  assert(content_hash == fact_content_hash(tmpl, slots) &&
         "stale content hash");
#endif
  // Set semantics: absorb duplicates of alive facts.
  auto& group = content_index_.group_for(content_hash);
  for (const FactRow other : group) {
    if (store_.view_row(other).same_content(tmpl, slots)) return kInvalidFact;
  }

  const FactId id = next_id_++;
  const FactRow row = store_.append(id, tmpl, slots, slot_hashes, content_hash);
  extent_pos_.push_back(extents_[tmpl].size());
  extents_[tmpl].push_back(id);
  group.push_back(row);
  ++alive_count_;
  fingerprint_ ^= fingerprint_mix(content_hash);
  pending_.added.push_back(id);
  return id;
}

FactId WorkingMemory::assert_fact_at(FactId id, TemplateId tmpl,
                                     std::vector<Value> slots) {
  assert(tmpl < schema_.size());
  if (id <= high_water()) {
    throw RuntimeError("assert_fact_at: id not above high-water mark");
  }
  if (static_cast<int>(slots.size()) != schema_.at(tmpl).arity()) {
    throw RuntimeError("assert_fact_at: arity mismatch");
  }
  hash_scratch_.clear();
  const std::size_t h = hash_fact_slots(tmpl, slots, hash_scratch_);
  auto& group = content_index_.group_for(h);
  for (const FactRow other : group) {
    if (store_.view_row(other).same_content(tmpl, slots)) {
      throw RuntimeError("assert_fact_at: duplicate alive content");
    }
  }

  reserve_ids(id - 1);
  next_id_ = id + 1;
  const FactRow row = store_.append(id, tmpl, slots, hash_scratch_, h);
  extent_pos_.push_back(extents_[tmpl].size());
  extents_[tmpl].push_back(id);
  group.push_back(row);
  ++alive_count_;
  fingerprint_ ^= fingerprint_mix(h);
  pending_.added.push_back(id);
  return id;
}

void WorkingMemory::reserve_ids(FactId high_water) {
  while (next_id_ <= high_water) {
    // Permanent tombstone: no fact record at all — never alive, never in
    // an extent or the content index, so no code path beyond alive() can
    // see it (view() asserts against it in debug builds).
    store_.append_reserved(next_id_);
    extent_pos_.push_back(0);
    ++next_id_;
  }
}

bool WorkingMemory::retract(FactId id) {
  if (id == kInvalidFact || id >= next_id_) return false;
  const FactRow row = store_.row_of(id);
  if (row == kNoFactRow || !store_.alive_row(row)) return false;
  store_.set_alive(row, false);
  --alive_count_;
  fingerprint_ ^= fingerprint_mix(store_.content_hash_of(row));

  // Swap-remove from extent; fix the moved fact's position.
  auto& ext = extents_[store_.tmpl_of(row)];
  const std::size_t pos = extent_pos_[id - 1];
  const FactId moved = ext.back();
  ext[pos] = moved;
  extent_pos_[moved - 1] = pos;
  ext.pop_back();

  // Remove from content index (groups hold alive rows only).
  auto* g = content_index_.find(store_.content_hash_of(row));
  g->erase(std::find(g->begin(), g->end(), row));

  // A fact asserted and retracted within the same (undrained) delta
  // cancels out: matchers must never see it at all. Only ids above the
  // last drain's high-water mark can be pending additions.
  if (id > drain_floor_) {
    if (auto it =
            std::find(pending_.added.begin(), pending_.added.end(), id);
        it != pending_.added.end()) {
      pending_.added.erase(it);
      return true;
    }
  }
  pending_.removed.push_back(id);
  return true;
}

FactId WorkingMemory::modify(FactId id,
                             const std::vector<std::pair<int, Value>>& updates) {
  if (!alive(id)) return kInvalidFact;
  const FactView fact = view(id);
  std::vector<Value> slots = fact.copy_slots();
  for (const auto& [slot, value] : updates) {
    assert(slot >= 0 && slot < static_cast<int>(slots.size()));
    slots[static_cast<std::size_t>(slot)] = value;
  }
  const TemplateId tmpl = fact.tmpl();
  retract(id);
  return assert_fact(tmpl, std::move(slots));
}

bool WorkingMemory::alive(FactId id) const {
  if (id == kInvalidFact || id >= next_id_) return false;
  const FactRow row = store_.row_of(id);
  return row != kNoFactRow && store_.alive_row(row);
}

std::optional<FactId> WorkingMemory::find(
    TemplateId tmpl, const std::vector<Value>& slots) const {
  if (const auto* g = content_index_.find(fact_content_hash(tmpl, slots))) {
    for (const FactRow row : *g) {
      const FactView fact = store_.view_row(row);
      if (fact.same_content(tmpl, slots)) return fact.id();
    }
  }
  return std::nullopt;
}

std::optional<FactId> WorkingMemory::find(const FactView& fact) const {
  if (const auto* g = content_index_.find(fact.content_hash())) {
    for (const FactRow row : *g) {
      const FactView mine = store_.view_row(row);
      if (mine.same_content(fact)) return mine.id();
    }
  }
  return std::nullopt;
}

const std::vector<FactId>& WorkingMemory::extent(TemplateId tmpl) const {
  assert(tmpl < extents_.size());
  return extents_[tmpl];
}

Delta WorkingMemory::drain_delta() {
  Delta out = std::move(pending_);
  pending_ = Delta{};
  drain_floor_ = next_id_ - 1;
  return out;
}

std::string WorkingMemory::to_string(FactId id,
                                     const SymbolTable& symbols) const {
  const FactView fact = view(id);
  const TemplateDef& def = schema_.at(fact.tmpl());
  std::ostringstream os;
  os << "(" << symbols.name(def.name);
  for (std::uint32_t i = 0; i < fact.slot_count(); ++i) {
    os << " (" << symbols.name(def.slot_names[i]) << " "
       << fact.slot(i).to_string(symbols) << ")";
  }
  os << ")";
  return os.str();
}

std::uint64_t WorkingMemory::content_fingerprint() const {
#ifndef NDEBUG
  // The running value must equal a scan of every alive row.
  std::uint64_t scan = kFingerprintSeed;
  for (std::size_t row = 0; row < store_.rows(); ++row) {
    if (!store_.alive_row(static_cast<FactRow>(row))) continue;
    scan ^= fingerprint_mix(store_.content_hash_of(static_cast<FactRow>(row)));
  }
  assert(scan == fingerprint_);
#endif
  return fingerprint_;
}

}  // namespace parulel
