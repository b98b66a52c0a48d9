// FactStore: cache-conscious struct-of-arrays storage for facts.
//
// The previous store kept one heap-allocated `std::vector<Value>` per
// fact, so every slot test in the match layer chased two pointers and
// landed on a cache line private to that fact. Here all fact state
// lives in flat columns:
//
//   per row:   id, template, cached content hash, alive flag, and the
//              row's offset into the slot arenas (prefix array)
//   per slot:  kind byte, 64-bit payload image, cached value hash —
//              three parallel arenas appended in assert order
//
// Rows are dense 32-bit handles (FactRow) assigned in assert order and
// never reused; the id -> row map is a flat array indexed by id - 1
// (FactIds are consecutive), with kNoFactRow marking reserved-id
// tombstones that never materialized a record. Row order == id order,
// so recency comparisons and candidate-enumeration determinism carry
// over from the id-based store unchanged.
//
// Consumers never touch the columns directly: WorkingMemory::view(id)
// returns a FactView — a 16-byte handle resolving slot reads straight
// into the arenas. Retracted facts keep their row (stable storage), so
// views of tombstoned facts stay readable while matchers drain deltas.
//
// Cached hashes: the per-slot value hash is computed once at assert
// (the content hash already needs it) and reused by every alpha-memory
// index insertion and join-key composition afterwards — the
// "hash once per fact, not once per accepting memory" rule that used
// to require threading scratch buffers through the match layer.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "wm/fact.hpp"

namespace parulel {

class AlphaMemory;
class FactStore;

/// Read-only view of one fact record inside a FactStore. A trivially
/// copyable handle (store pointer + row + cached slot-arena offset):
/// cheap to pass by value, resolves every accessor with one arena or
/// column load. Valid as long as the store exists — including for
/// retracted (tombstoned) facts, per the stable-storage contract.
class FactView {
 public:
  FactView() = default;

  inline FactId id() const;
  inline TemplateId tmpl() const;
  inline std::uint32_t slot_count() const;
  inline Value slot(std::size_t i) const;
  /// Cached Value::hash() of slot i (computed once at assert).
  inline std::size_t slot_hash(std::size_t i) const;
  /// Cached canonical content hash (see fact_content_hash).
  inline std::uint64_t content_hash() const;
  inline bool alive() const;
  FactRow row() const { return row_; }

  inline bool same_content(TemplateId tmpl,
                           std::span<const Value> slots) const;
  inline bool same_content(const FactView& other) const;

  /// Materialize the slots as an owned vector (serialization paths).
  inline std::vector<Value> copy_slots() const;

 private:
  friend class FactStore;
  // Alpha memories resolve pure-group representatives through the
  // inserted fact's store (no store reference of their own).
  friend class AlphaMemory;
  FactView(const FactStore* store, FactRow row, std::uint32_t begin)
      : store_(store), row_(row), begin_(begin) {}

  const FactStore* store_ = nullptr;
  FactRow row_ = kNoFactRow;
  std::uint32_t begin_ = 0;  ///< first slot's offset into the arenas
};

class FactStore {
 public:
  /// Append the record for `id` (must be the next consecutive id) and
  /// return its row. `slot_hashes` are the per-slot Value::hash()
  /// values and `content_hash` the canonical structural hash — the
  /// caller (WorkingMemory) computes both during duplicate detection,
  /// so the store never rehashes.
  FactRow append(FactId id, TemplateId tmpl, std::span<const Value> slots,
                 std::span<const std::size_t> slot_hashes,
                 std::uint64_t content_hash) {
    assert(id == row_of_.size() + 1 && "ids must be appended in order");
    const FactRow row = static_cast<FactRow>(id_.size());
    id_.push_back(id);
    tmpl_.push_back(tmpl);
    chash_.push_back(content_hash);
    alive_.push_back(1);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      kind_pool_.push_back(static_cast<std::uint8_t>(slots[i].kind()));
      payload_pool_.push_back(slots[i].raw_payload());
      hash_pool_.push_back(slot_hashes[i]);
    }
    slot_begin_.push_back(static_cast<std::uint32_t>(kind_pool_.size()));
    row_of_.push_back(row);
    return row;
  }

  /// Advance the id sequence past `id` without materializing a record —
  /// a reserved-id tombstone (journal recovery). Such ids have no row;
  /// only alive()/row_of() may be asked about them.
  void append_reserved(FactId id) {
    assert(id == row_of_.size() + 1 && "ids must be appended in order");
    (void)id;
    row_of_.push_back(kNoFactRow);
  }

  /// Drop every row and id; the next append() takes id 1 and row 0.
  /// Column capacity is kept.
  void clear() {
    id_.clear();
    tmpl_.clear();
    chash_.clear();
    alive_.clear();
    slot_begin_.resize(1);
    kind_pool_.clear();
    payload_pool_.clear();
    hash_pool_.clear();
    row_of_.clear();
  }

  void set_alive(FactRow row, bool alive) {
    alive_[row] = alive ? 1 : 0;
  }

  /// Row for `id`, or kNoFactRow for reserved-id tombstones.
  /// Precondition: 1 <= id <= ids().
  FactRow row_of(FactId id) const {
    return row_of_[static_cast<std::size_t>(id - 1)];
  }

  FactView view_row(FactRow row) const {
    return FactView(this, row, slot_begin_[row]);
  }

  FactId id_of(FactRow row) const { return id_[row]; }
  TemplateId tmpl_of(FactRow row) const { return tmpl_[row]; }
  std::uint64_t content_hash_of(FactRow row) const { return chash_[row]; }
  bool alive_row(FactRow row) const { return alive_[row] != 0; }

  /// Count of materialized rows (excludes reserved-id tombstones).
  std::size_t rows() const { return id_.size(); }
  /// Count of ids handed out (== WorkingMemory high-water mark).
  std::size_t ids() const { return row_of_.size(); }

 private:
  friend class FactView;

  // Per-row columns (index = FactRow).
  std::vector<FactId> id_;
  std::vector<TemplateId> tmpl_;
  std::vector<std::uint64_t> chash_;   ///< cached content hashes
  std::vector<std::uint8_t> alive_;
  /// rows() + 1 prefix offsets into the arenas: row r's slots live at
  /// [slot_begin_[r], slot_begin_[r + 1]). The leading 0 keeps a row's
  /// slot count one subtraction, with no branch for row 0.
  std::vector<std::uint32_t> slot_begin_{0};

  // Slot arenas, appended in assert order.
  std::vector<std::uint8_t> kind_pool_;
  std::vector<std::uint64_t> payload_pool_;
  std::vector<std::uint64_t> hash_pool_;  ///< cached Value::hash per slot

  /// id - 1 -> row (FactIds are consecutive, so a flat array beats any
  /// hash map here); kNoFactRow for reserved-id tombstones.
  std::vector<FactRow> row_of_;
};

inline FactId FactView::id() const { return store_->id_[row_]; }
inline TemplateId FactView::tmpl() const { return store_->tmpl_[row_]; }
inline bool FactView::alive() const { return store_->alive_[row_] != 0; }

inline std::uint32_t FactView::slot_count() const {
  return store_->slot_begin_[row_ + 1] - begin_;
}

inline Value FactView::slot(std::size_t i) const {
  const std::size_t o = begin_ + i;
  return Value::from_raw(static_cast<ValueKind>(store_->kind_pool_[o]),
                         store_->payload_pool_[o]);
}

inline std::size_t FactView::slot_hash(std::size_t i) const {
  return store_->hash_pool_[begin_ + i];
}

inline std::uint64_t FactView::content_hash() const {
  return store_->chash_[row_];
}

inline bool FactView::same_content(TemplateId tmpl,
                                   std::span<const Value> slots) const {
  if (this->tmpl() != tmpl || slot_count() != slots.size()) return false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slot(i) != slots[i]) return false;
  }
  return true;
}

inline bool FactView::same_content(const FactView& other) const {
  const std::uint32_t n = slot_count();
  if (tmpl() != other.tmpl() || n != other.slot_count()) return false;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (slot(i) != other.slot(i)) return false;
  }
  return true;
}

inline std::vector<Value> FactView::copy_slots() const {
  const std::uint32_t n = slot_count();
  std::vector<Value> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(slot(i));
  return out;
}

}  // namespace parulel
