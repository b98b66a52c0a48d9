// SmallGroup: a vector-like sequence with inline storage for its first
// few elements, used as the group type of FlatGroupMap.
//
// Most groups in this codebase are tiny: the working memory's content
// index keys by full content hash (groups are almost always
// singletons), and alpha join-index groups for selective keys hold a
// handful of facts. A std::vector per group means one heap allocation
// on every first push — for a fresh workload that is one malloc per
// fact per index, a measurable slice of delta application. SmallGroup
// keeps up to kInline elements in place and only spills to a heap
// vector beyond that; once spilled it stays spilled, so churned groups
// never re-allocate (the same steady-state guarantee FlatGroupMap's
// table makes).
//
// Elements stay in insertion order through push_back and ordered
// erase — the determinism property every consumer relies on.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace parulel {

template <typename V>
class SmallGroup {
 public:
  using value_type = V;
  using iterator = V*;
  using const_iterator = const V*;

  V* data() { return spilled() ? spill_.data() : inline_; }
  const V* data() const { return spilled() ? spill_.data() : inline_; }
  std::size_t size() const { return spilled() ? spill_.size() : size_; }
  bool empty() const { return size() == 0; }

  iterator begin() { return data(); }
  iterator end() { return data() + size(); }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size(); }

  void push_back(V v) {
    if (spilled()) {
      spill_.push_back(v);
    } else if (size_ < kInline) {
      inline_[size_++] = v;
    } else {
      spill_.reserve(kInline * 4);
      spill_.assign(inline_, inline_ + kInline);
      spill_.push_back(v);
    }
  }

  /// Empty the group. A spilled group keeps its heap capacity, so a
  /// group refilled after clear() allocates no more than it did.
  void clear() {
    size_ = 0;
    spill_.clear();
  }

  /// Ordered erase (later elements shift down), preserving insertion
  /// order among the survivors.
  void erase(iterator it) {
    if (spilled()) {
      spill_.erase(spill_.begin() + (it - spill_.data()));
    } else {
      std::move(it + 1, inline_ + size_, it);
      --size_;
    }
  }

 private:
  static constexpr std::uint32_t kInline = 2;

  /// Spill capacity is never released, so a non-empty capacity is the
  /// storage discriminant even for groups churned back to empty.
  bool spilled() const { return spill_.capacity() != 0; }

  V inline_[kInline];
  std::uint32_t size_ = 0;
  std::vector<V> spill_;
};

}  // namespace parulel
