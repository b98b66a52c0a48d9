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
  if (inst.rule >= by_rule_.size()) by_rule_.resize(inst.rule + 1);
  by_rule_[inst.rule].push_back(id);
  insts_.push_back(std::move(inst));
  alive_.push_back(true);
  ++alive_count_;
  return id;
}

void ConflictSet::remove(InstId id) {
  if (id >= insts_.size() || !alive_[id]) return;
  if (auto* g = by_key_.find(insts_[id].key_hash())) {
    g->erase(std::find(g->begin(), g->end(), id));
  }
  retire(id);
}

void ConflictSet::retire(InstId id) {
  alive_[id] = false;
  --alive_count_;
  for (FactId f : insts_[id].facts) {
    // A fact can appear twice in one instantiation (self-joins); the
    // id was indexed once per occurrence, so erase one per occurrence.
    auto* g = by_fact_.find(f);
    g->erase(std::find(g->begin(), g->end(), id));
  }
  // by_rule_ entries are purged lazily in of_rule().
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
  scratch_rule_.assign(g->begin(), g->end());
  for (InstId id : scratch_rule_) {
    // Self-join duplicates appear once per occurrence; the first
    // removal kills the id, later ones no-op in remove().
    remove(id);
    if (removed_out) removed_out->push_back(id);
  }
}

void ConflictSet::mark_fired(InstId id) {
  assert(id < insts_.size() && alive_[id]);
  retire(id);
}

bool ConflictSet::has_fired(const Instantiation& inst) const {
  // A key entry that is not alive can only be a fired one.
  const InstId id = find_key(inst);
  return id != kInvalidInst && !alive_[id];
}

bool ConflictSet::alive(InstId id) const {
  return id < insts_.size() && alive_[id];
}

const Instantiation& ConflictSet::get(InstId id) const {
  assert(id < insts_.size());
  return insts_[id];
}

void ConflictSet::for_each(
    const std::function<void(const Instantiation&)>& fn) const {
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    if (alive_[i]) fn(insts_[i]);
  }
}

std::vector<InstId> ConflictSet::of_rule(RuleId rule) const {
  std::vector<InstId> out;
  if (rule < by_rule_.size()) {
    for (InstId id : by_rule_[rule]) {
      if (alive_[id]) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
  }
  return out;
}

std::vector<InstId> ConflictSet::alive_ids() const {
  std::vector<InstId> out;
  out.reserve(alive_count_);
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    if (alive_[i]) out.push_back(static_cast<InstId>(i));
  }
  return out;
}

}  // namespace parulel
