// FlatIdMap: an open-addressing map from a dense integer id to a small
// value, tuned for the alpha memories' fact-position tables.
//
// The node-based unordered_map previously tracking each fact's position
// inside an alpha memory cost one heap allocation per insert per
// accepting memory — the single largest slice of delta application
// after the join itself. Here the table is two flat arrays probed
// linearly; erasure uses backward-shift deletion, so there are no
// tombstones and lookups never degrade under churn.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace parulel {

template <typename V>
class FlatIdMap {
 public:
  /// Insert `key` -> `value`; `key` must not be present. Amortized O(1).
  void insert(std::size_t key, V value) {
    if (ctrl_.empty()) {
      ctrl_.assign(kInitialTable, 0);
      slots_.resize(kInitialTable);
    } else if ((size_ + 1) * 4 > ctrl_.size() * 3) {
      grow();
    }
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (ctrl_[i]) i = (i + 1) & mask;
    ctrl_[i] = 1;
    slots_[i] = {key, value};
    ++size_;
  }

  /// Pointer to the value for `key`, or nullptr.
  V* find(std::size_t key) {
    if (ctrl_.empty()) return nullptr;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (ctrl_[i]) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  const V* find(std::size_t key) const {
    return const_cast<FlatIdMap*>(this)->find(key);
  }

  bool contains(std::size_t key) const { return find(key) != nullptr; }

  /// Remove `key` if present. Backward-shift deletion: later entries of
  /// the probe cluster slide up so no tombstone is needed.
  void erase(std::size_t key) {
    if (ctrl_.empty()) return;
    const std::size_t mask = ctrl_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (ctrl_[i]) {
      if (slots_[i].key == key) break;
      i = (i + 1) & mask;
    }
    if (!ctrl_[i]) return;
    --size_;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (!ctrl_[j]) break;
      // Move j up only if its home slot does not lie in (i, j] — i.e.
      // the probe that found j would also have found i.
      const std::size_t home = mix(slots_[j].key) & mask;
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    ctrl_[i] = 0;
  }

  std::size_t size() const { return size_; }

  /// Table slots reserved (the table never shrinks).
  std::size_t capacity() const { return ctrl_.size(); }

  /// Remove every entry, keeping the table.
  void clear() {
    if (size_ == 0) return;
    std::fill(ctrl_.begin(), ctrl_.end(), 0);
    size_ = 0;
  }

 private:
  static constexpr std::size_t kInitialTable = 16;

  struct Slot {
    std::size_t key;
    V value;
  };

  /// Spread sequential ids across the table.
  static std::size_t mix(std::size_t key) {
    return key * 0x9e3779b97f4a7c15ull;
  }

  void grow() {
    const std::size_t cap = ctrl_.size() * 2;
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_ctrl = std::move(ctrl_);
    ctrl_.assign(cap, 0);
    slots_.resize(cap);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < old_ctrl.size(); ++i) {
      if (!old_ctrl[i]) continue;
      std::size_t j = mix(old_slots[i].key) & mask;
      while (ctrl_[j]) j = (j + 1) & mask;
      ctrl_[j] = 1;
      slots_[j] = old_slots[i];
    }
  }

  std::vector<std::uint8_t> ctrl_;  ///< 1 = occupied
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace parulel
