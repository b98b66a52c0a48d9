#include "match/conflict_set.hpp"

#include <algorithm>
#include <cassert>

namespace parulel {

InstId ConflictSet::add(RuleId rule, std::span<const FactId> facts,
                        std::span<const std::size_t> quant_keys) {
  const std::size_t h = inst_key_hash(rule, facts);

  // Duplicate of an alive instantiation, or refracted by a fired one?
  auto& key_group = by_key_.group_for(h);
  for (const std::uint32_t other : key_group) {
    if (recs_[other].rule == rule &&
        std::ranges::equal(facts_of(recs_[other]), facts)) {
      return kInvalidInst;
    }
  }
  assert(facts.size() <= UINT16_MAX && quant_keys.size() <= UINT16_MAX);

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(recs_.size());
    recs_.emplace_back();
  }
  const std::size_t words = facts.size() + quant_keys.size();
  if (free_blocks_.size() <= words) free_blocks_.resize(words + 1);
  std::uint32_t offset;
  if (auto& blocks = free_blocks_[words]; !blocks.empty()) {
    offset = blocks.back();
    blocks.pop_back();
  } else {
    offset = static_cast<std::uint32_t>(words_.size());
    words_.resize(words_.size() + words);
  }
  std::copy(facts.begin(), facts.end(), words_.begin() + offset);
  std::copy(quant_keys.begin(), quant_keys.end(),
            words_.begin() + offset + static_cast<std::ptrdiff_t>(facts.size()));

  const InstId id = next_id_++;
  Record& rec = recs_[slot];
  rec.id = id;
  rec.key_hash = h;
  rec.offset = offset;
  rec.rule = rule;
  rec.n_facts = static_cast<std::uint16_t>(facts.size());
  rec.n_quant = static_cast<std::uint16_t>(quant_keys.size());
  rec.fired = false;

  key_group.push_back(slot);
  for (const FactId f : facts) by_fact_.group_for(f).push_back(slot);
  for (std::size_t n = 0; n < quant_keys.size(); ++n) {
    by_quant_.group_for(quant_probe(rule, n, quant_keys[n])).push_back(slot);
  }
  quant_entries_ += quant_keys.size();
  slot_of_.insert(id, slot);
  listed_.push_back({slot, id});
  ++alive_count_;
  return id;
}

void ConflictSet::unpost(FlatGroupMap<std::uint32_t>& map, std::size_t key,
                         std::uint32_t slot) {
  auto* g = map.find(key);
  assert(g != nullptr);
  g->erase(std::find(g->begin(), g->end(), slot));
  if (g->empty()) map.erase(key);
}

void ConflictSet::retire(std::uint32_t slot) {
  const Record& rec = recs_[slot];
  const auto keys = quant_keys(rec);
  for (std::size_t n = 0; n < keys.size(); ++n) {
    unpost(by_quant_, quant_probe(rec.rule, n, keys[n]), slot);
  }
  quant_entries_ -= keys.size();
  --alive_count_;
}

void ConflictSet::purge_listed() {
  // Purge once the retired ids in the list outnumber the alive ones:
  // the purge is O(listed) <= O(2 x retired), paid once per batch.
  if (listed_.size() - alive_count_ > alive_count_) {
    std::erase_if(listed_, [this](const Posting& p) { return !alive_at(p); });
  }
}

void ConflictSet::release(std::uint32_t slot, FactId skip) {
  Record& rec = recs_[slot];
  unpost(by_key_, rec.key_hash, slot);
  // A fact can appear twice in one instantiation (self-joins); the slot
  // was posted once per occurrence, so erase one per occurrence.
  for (const FactId f : facts_of(rec)) {
    if (f != skip) unpost(by_fact_, f, slot);
  }
  slot_of_.erase(rec.id);
  free_blocks_[rec.n_facts + rec.n_quant].push_back(rec.offset);
  rec.id = kInvalidInst;
  free_slots_.push_back(slot);
}

void ConflictSet::remove(InstId id) {
  const std::uint32_t* slot = slot_of_.find(id);
  if (slot == nullptr || recs_[*slot].fired) return;
  const std::uint32_t s = *slot;
  retire(s);
  release(s);
  purge_listed();
}

std::size_t ConflictSet::find_key(RuleId rule, std::span<const FactId> facts,
                                  std::size_t hash) const {
  if (const auto* g = by_key_.find(hash)) {
    for (const std::uint32_t slot : *g) {
      const Record& rec = recs_[slot];
      if (rec.rule == rule && std::ranges::equal(facts_of(rec), facts)) {
        return slot;
      }
    }
  }
  return FlatGroupMap<std::uint32_t>::npos;
}

bool ConflictSet::remove_by_key(RuleId rule, std::span<const FactId> facts) {
  const std::size_t slot = find_key(rule, facts, inst_key_hash(rule, facts));
  if (slot == FlatGroupMap<std::uint32_t>::npos || recs_[slot].fired) {
    return false;
  }
  const auto s = static_cast<std::uint32_t>(slot);
  retire(s);
  release(s);
  purge_listed();
  return true;
}

std::size_t ConflictSet::remove_by_fact(FactId fact) {
  const auto* g = by_fact_.find(fact);
  if (g == nullptr) return 0;
  // Copy first: releasing a record erases it from its other facts'
  // postings. This fact's own posting goes whole at the end. Count the
  // alive ones now, once per occurrence (self-joins).
  scratch_.clear();
  std::size_t removed = 0;
  for (const std::uint32_t slot : *g) {
    scratch_.push_back({slot, recs_[slot].id});
    if (!recs_[slot].fired) ++removed;
  }
  for (const Posting& p : scratch_) {
    // A self-join's second occurrence finds its record already dropped.
    if (recs_[p.slot].id != p.id) continue;
    if (!recs_[p.slot].fired) retire(p.slot);
    release(p.slot, fact);
  }
  by_fact_.erase(fact);
  purge_listed();
  return removed;
}

void ConflictSet::mark_fired(InstId id) {
  assert(alive(id));
  const std::uint32_t slot = *slot_of_.find(id);
  retire(slot);
  recs_[slot].fired = true;
  purge_listed();
}

void ConflictSet::clear() {
  recs_.clear();
  free_slots_.clear();
  words_.clear();
  for (auto& blocks : free_blocks_) blocks.clear();
  next_id_ = 0;
  alive_count_ = 0;
  quant_entries_ = 0;
  slot_of_.clear();
  listed_.clear();
  by_key_.clear();
  by_fact_.clear();
  by_quant_.clear();
}

bool ConflictSet::has_fired(RuleId rule, std::span<const FactId> facts) const {
  // A key entry that is not alive can only be a fired one.
  const std::size_t slot = find_key(rule, facts, inst_key_hash(rule, facts));
  return slot != FlatGroupMap<std::uint32_t>::npos && recs_[slot].fired;
}

Instantiation ConflictSet::get(InstId id) const {
  const std::uint32_t* slot = slot_of_.find(id);
  assert(slot != nullptr);
  const Record& rec = recs_[*slot];
  return {rec.rule, rec.id, facts_of(rec)};
}

void ConflictSet::for_each(
    const std::function<void(const Instantiation&)>& fn) const {
  for (const Posting& p : listed_) {
    if (alive_at(p)) {
      const Record& rec = recs_[p.slot];
      fn({rec.rule, rec.id, facts_of(rec)});
    }
  }
}

std::vector<InstId> ConflictSet::of_rule(RuleId rule) const {
  std::vector<InstId> out;
  for (const Posting& p : listed_) {
    if (alive_at(p) && recs_[p.slot].rule == rule) out.push_back(p.id);
  }
  return out;
}

std::vector<InstId> ConflictSet::alive_ids() const {
  std::vector<InstId> out;
  out.reserve(alive_count_);
  for (const Posting& p : listed_) {
    if (alive_at(p)) out.push_back(p.id);
  }
  return out;
}

ConflictSet::Footprint ConflictSet::footprint() const {
  Footprint fp;
  fp.records = slot_of_.size();
  fp.key_groups = by_key_.size();
  fp.reserved = recs_.capacity() + free_slots_.capacity() +
                words_.capacity() + free_blocks_.capacity() +
                slot_of_.capacity() + listed_.capacity() +
                by_key_.capacity() + by_fact_.capacity() +
                by_quant_.capacity() + scratch_.capacity() +
                quant_scratch_.capacity();
  for (const auto& blocks : free_blocks_) fp.reserved += blocks.capacity();
  return fp;
}

}  // namespace parulel
