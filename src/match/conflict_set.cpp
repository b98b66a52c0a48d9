#include "match/conflict_set.hpp"

#include <algorithm>
#include <cassert>

namespace parulel {

InstId ConflictSet::add(Instantiation inst) {
  const std::size_t h = inst.key_hash();

  // Duplicate of an alive instantiation, or refracted by a fired one?
  auto& key_group = by_key_.group_for(h);
  for (const InstId other : key_group) {
    if (insts_[other].same_key(inst)) return kInvalidInst;
  }

  const InstId id = static_cast<InstId>(insts_.size());
  inst.id = id;
  key_group.push_back(id);
  for (FactId f : inst.facts) by_fact_.group_for(f).push_back(id);
  insts_.push_back(std::move(inst));
  alive_.push_back(1);
  ++alive_count_;
  listed_.push_back(id);
  return id;
}

void ConflictSet::remove(InstId id) {
  if (!alive(id)) return;
  if (auto* g = by_key_.find(insts_[id].key_hash())) {
    g->erase(std::find(g->begin(), g->end(), id));
  }
  retire(id);
}

void ConflictSet::retire(InstId id) {
  alive_[id] = 0;
  --alive_count_;
  for (FactId f : insts_[id].facts) {
    // A fact can appear twice in one instantiation (self-joins); the
    // id was indexed once per occurrence, so erase one per occurrence.
    auto* g = by_fact_.find(f);
    g->erase(std::find(g->begin(), g->end(), id));
  }
  // Purge once the retired ids in the list outnumber the alive ones:
  // the purge is O(listed) <= O(2 x retired), paid once per batch.
  if (listed_.size() - alive_count_ > alive_count_) {
    std::erase_if(listed_, [this](InstId i) { return alive_[i] == 0; });
  }
}

InstId ConflictSet::find_key(const Instantiation& probe) const {
  if (const auto* g = by_key_.find(probe.key_hash())) {
    for (const InstId id : *g) {
      if (insts_[id].same_key(probe)) return id;
    }
  }
  return kInvalidInst;
}

bool ConflictSet::remove_by_key(const Instantiation& probe) {
  const InstId id = find_key(probe);
  if (id == kInvalidInst || !alive_[id]) return false;
  remove(id);
  return true;
}

void ConflictSet::remove_by_fact(FactId fact,
                                 std::vector<InstId>* removed_out) {
  // Collect first: remove() mutates by_fact_.
  const auto* g = by_fact_.find(fact);
  if (!g) return;
  scratch_.assign(g->begin(), g->end());
  for (InstId id : scratch_) {
    // Self-join duplicates appear once per occurrence; the first
    // removal kills the id, later ones no-op in remove().
    remove(id);
    if (removed_out) removed_out->push_back(id);
  }
}

void ConflictSet::mark_fired(InstId id) {
  assert(alive(id));
  retire(id);
}

void ConflictSet::clear() {
  insts_.clear();
  alive_.clear();
  alive_count_ = 0;
  listed_.clear();
  by_key_.clear();
  by_fact_.clear();
}

bool ConflictSet::has_fired(const Instantiation& inst) const {
  // A key entry that is not alive can only be a fired one.
  const InstId id = find_key(inst);
  return id != kInvalidInst && !alive_[id];
}

const Instantiation& ConflictSet::get(InstId id) const {
  assert(id < insts_.size());
  return insts_[id];
}

void ConflictSet::for_each(
    const std::function<void(const Instantiation&)>& fn) const {
  for (const InstId id : listed_) {
    if (alive_[id]) fn(insts_[id]);
  }
}

std::vector<InstId> ConflictSet::of_rule(RuleId rule) const {
  std::vector<InstId> out;
  for (const InstId id : listed_) {
    if (alive_[id] && insts_[id].rule == rule) out.push_back(id);
  }
  return out;
}

std::vector<InstId> ConflictSet::alive_ids() const {
  std::vector<InstId> out;
  out.reserve(alive_count_);
  for (const InstId id : listed_) {
    if (alive_[id]) out.push_back(id);
  }
  return out;
}

}  // namespace parulel
