// FlatGroupMap: an open-addressing multimap from a size_t key to a
// small group of values, tuned for the hot loops of the match layer
// and working memory.
//
// The node-based unordered_multimaps previously backing the alpha join
// indexes and the conflict set dominated match time (one allocation and
// one pointer chase per entry, per probe). Here the table is two flat
// arrays (key, group handle) probed linearly, and each distinct key
// owns a contiguous vector of values in insertion order. A group keeps
// its table slot when emptied, so churn on a fixed key set (erase +
// re-insert of the same keys) allocates nothing. A map whose keys come
// and go for good (the conflict set's, keyed by instantiation and by
// fact) erases them instead: erase() uses backward-shift deletion, so
// the table needs no tombstones, and the freed group object, spilled
// storage included, serves the next new key. Such a map holds as many
// groups as it has live keys, never one per key it has ever seen.
//
// clear() empties the map and keeps every allocation — the table, the
// group objects and their spilled storage — so a map rebuilt each cycle
// (the meta working memory's) stops allocating once it has seen its
// largest cycle. It costs one zeroing pass over the control array (4
// bytes a slot) plus O(groups), and adds nothing to maps never cleared.
//
// Determinism: iteration within a group is insertion order, so every
// consumer enumerates candidates in the same order on every run and in
// every matcher — the property the engines' bit-determinism rests on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/small_group.hpp"

namespace parulel {

template <typename V>
class FlatGroupMap {
 public:
  /// Groups store their first elements inline — no allocation for the
  /// singleton/pair groups that dominate content and join indexes.
  using Group = SmallGroup<V>;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// The group for `key`, created empty if absent. Amortized O(1).
  Group& group_for(std::size_t key) {
    return groups_[group_id_for(key)];
  }

  /// Group id for `key`, created if absent. Ids are stable until the
  /// key is erased or the map cleared, so callers can keep per-group
  /// metadata in a parallel array — see AlphaMemory's canonical-key
  /// cache. Without erase() they are dense and assigned in creation
  /// order; an erased key's id goes back to a free list for reuse.
  std::size_t group_id_for(std::size_t key) {
    if (ctrl_.empty()) {
      ctrl_.assign(kInitialTable, 0);
      keys_.assign(kInitialTable, 0);
    } else if ((live_ + 1) * 4 > ctrl_.size() * 3) {
      grow();
    }
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (ctrl_[i] != 0) {
      if (keys_[i] == key) return ctrl_[i] - 1;
      i = (i + 1) & mask;
    }
    // Reuse a group object an erase() or clear() left behind before
    // growing.
    std::size_t id;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
    } else {
      if (used_ == groups_.size()) groups_.emplace_back();
      id = used_++;
    }
    ctrl_[i] = static_cast<std::uint32_t>(id + 1);
    keys_[i] = key;
    ++live_;
    return id;
  }

  /// Remove `key` and empty its group; no-op when absent. Backward-shift
  /// deletion: later entries of the probe cluster slide up, so lookups
  /// never degrade under churn. The group object is kept for reuse.
  void erase(std::size_t key) {
    if (ctrl_.empty()) return;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (ctrl_[i] != 0 && keys_[i] != key) i = (i + 1) & mask;
    if (ctrl_[i] == 0) return;
    const std::size_t id = ctrl_[i] - 1;
    groups_[id].clear();
    free_ids_.push_back(static_cast<std::uint32_t>(id));
    --live_;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (ctrl_[j] == 0) break;
      // Move j up only if its home slot does not lie in (i, j] — i.e.
      // the probe that found j would also have found i.
      const std::size_t home = mix(keys_[j]) & mask;
      if (((j - home) & mask) >= ((j - i) & mask)) {
        ctrl_[i] = ctrl_[j];
        keys_[i] = keys_[j];
        i = j;
      }
    }
    ctrl_[i] = 0;
  }

  /// Remove every key and group. Group ids restart at 0.
  void clear() {
    if (used_ == 0) return;
    std::fill(ctrl_.begin(), ctrl_.end(), 0);
    for (std::size_t g = 0; g < used_; ++g) groups_[g].clear();
    used_ = 0;
    live_ = 0;
    free_ids_.clear();
  }

  /// Keys present.
  std::size_t size() const { return live_; }

  /// Table slots plus group objects held — what the map has reserved,
  /// in entries (spilled group storage aside).
  std::size_t capacity() const {
    return ctrl_.size() + groups_.size() + free_ids_.capacity();
  }

  /// Group id for `key`, or npos when none was ever created.
  std::size_t find_group_id(std::size_t key) const {
    if (ctrl_.empty()) return npos;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (ctrl_[i] != 0) {
      if (keys_[i] == key) return ctrl_[i] - 1;
      i = (i + 1) & mask;
    }
    return npos;
  }

  Group& group(std::size_t id) { return groups_[id]; }
  const Group& group(std::size_t id) const { return groups_[id]; }

  /// The group for `key`, or nullptr when none was ever created.
  const Group* find(std::size_t key) const {
    const std::size_t id = find_group_id(key);
    return id == npos ? nullptr : &groups_[id];
  }

  Group* find(std::size_t key) {
    return const_cast<Group*>(
        static_cast<const FlatGroupMap*>(this)->find(key));
  }

 private:
  static constexpr std::size_t kInitialTable = 16;

  /// Spread sequential keys (fact ids) across the table; already-mixed
  /// hash keys pass through this unharmed.
  static std::size_t mix(std::size_t key) {
    return key * 0x9e3779b97f4a7c15ull;
  }

  void grow() {
    const std::size_t cap = ctrl_.size() * 2;
    std::vector<std::size_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_ctrl = std::move(ctrl_);
    ctrl_.assign(cap, 0);
    keys_.assign(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] == 0) continue;
      std::size_t j = mix(old_keys[i]) & mask;
      while (ctrl_[j] != 0) j = (j + 1) & mask;
      ctrl_[j] = old_ctrl[i];
      keys_[j] = old_keys[i];
    }
  }

  std::vector<std::size_t> keys_;
  std::vector<std::uint32_t> ctrl_;  ///< group id + 1; 0 = empty slot
  /// groups_[0, used_) have been handed out (live, or erased and listed
  /// in free_ids_); later ones are clear() leftovers kept for their
  /// storage.
  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_ids_;
  std::size_t used_ = 0;
  std::size_t live_ = 0;  ///< keys in the table
};

}  // namespace parulel
