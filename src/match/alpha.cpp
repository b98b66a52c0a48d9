#include "match/alpha.hpp"

#include <algorithm>
#include <cassert>

namespace parulel {

int AlphaMemory::ensure_index(std::vector<int> slots) {
  for (std::size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i].slots == slots) return static_cast<int>(i);
  }
  assert(rows_.empty() && "indexes must be registered before facts");
  indexes_.push_back(Index{});
  indexes_.back().slots = std::move(slots);
  return static_cast<int>(indexes_.size() - 1);
}

namespace {

/// Key hash over `slots` composed from the store's cached per-slot
/// hashes — never rehashes a value.
std::size_t key_from(const FactView& fact, std::span<const int> slots) {
  std::size_t h = kJoinKeySeed;
  for (int s : slots) {
    h = hash_combine(h, fact.slot_hash(static_cast<std::size_t>(s)));
  }
  return h;
}

}  // namespace

void AlphaMemory::insert(const FactView& fact) {
  const FactRow row = fact.row();
  if (row >= pos_.size()) pos_.resize(row + 1, kNotMember);
  if (pos_[row] != kNotMember) return;
  pos_[row] = static_cast<std::uint32_t>(rows_.size());
  rows_.push_back(row);
  for (auto& index : indexes_) {
    const std::size_t gid =
        index.map.group_id_for(key_from(fact, index.slots));
    auto& g = index.map.group(gid);
    if (gid >= index.canon_pure.size()) index.canon_pure.resize(gid + 1);
    if (g.empty()) {
      index.canon_pure[gid] = 1;
    } else if (index.canon_pure[gid]) {
      // Purity holds while every member shares the key-slot values;
      // compare against any current member (the probe-side
      // representative). Impurity is a full-64-bit-hash collision.
      const FactView rep = fact.store_->view_row(*g.begin());
      for (int s : index.slots) {
        if (rep.slot(static_cast<std::size_t>(s)) !=
            fact.slot(static_cast<std::size_t>(s))) {
          index.canon_pure[gid] = 0;
          break;
        }
      }
    }
    g.push_back(row);
  }
}

void AlphaMemory::erase(const FactView& fact) {
  const FactRow row = fact.row();
  if (row >= pos_.size() || pos_[row] == kNotMember) return;
  const std::uint32_t p = pos_[row];
  const FactRow moved = rows_.back();
  rows_[p] = moved;
  pos_[moved] = p;
  rows_.pop_back();
  pos_[row] = kNotMember;
  for (auto& index : indexes_) {
    // The ordered erase keeps probe order = insertion order.
    auto* g = index.map.find(key_from(fact, index.slots));
    g->erase(std::find(g->begin(), g->end(), row));
  }
}

void AlphaMemory::clear() {
  for (const FactRow row : rows_) pos_[row] = kNotMember;
  rows_.clear();
  for (auto& index : indexes_) {
    index.map.clear();
    index.canon_pure.clear();
  }
}

AlphaStore::AlphaStore(std::span<const AlphaSpec> specs,
                       std::size_t template_count)
    : specs_(specs.begin(), specs.end()),
      memories_(specs.size()),
      by_template_(template_count) {
  for (std::uint32_t a = 0; a < specs_.size(); ++a) {
    by_template_[specs_[a].tmpl].push_back(a);
  }
}

void AlphaStore::matching_alphas(const FactView& fact,
                                 std::vector<std::uint32_t>& out) const {
  out.clear();
  for (std::uint32_t a : by_template_[fact.tmpl()]) {
    if (specs_[a].accepts(fact)) out.push_back(a);
  }
}

void AlphaStore::on_assert(const FactView& fact) {
  for (std::uint32_t a : by_template_[fact.tmpl()]) {
    if (specs_[a].accepts(fact)) memories_[a].insert(fact);
  }
}

void AlphaStore::on_retract(const FactView& fact) {
  for (std::uint32_t a : by_template_[fact.tmpl()]) {
    if (specs_[a].accepts(fact)) memories_[a].erase(fact);
  }
}

void AlphaStore::clear() {
  for (auto& memory : memories_) memory.clear();
}

}  // namespace parulel
