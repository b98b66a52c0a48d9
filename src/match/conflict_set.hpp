// The conflict set: all currently satisfied, not-yet-fired instantiations.
//
// Shared by every matcher. Also owns refraction memory (OPS5 refraction,
// which PARULEL keeps): a fired instantiation keeps its record, its
// structural-key entry and its fact postings, so the duplicate check in
// add() rejects its re-derivation and looping on unchanged matches is
// impossible. It keeps them only until one of its facts is retracted:
// remove_by_fact() then drops it like an alive one, because no match of
// a retracted fact can ever be derived again.
//
// That rests on one invariant: a FactId is never reused within one
// matcher's (and so one conflict set's) lifetime. Working memory hands
// ids out monotonically; WorkingMemory::clear() restarts them only
// together with the matcher's own clear() (the meta workspace), and
// every restore (Session::restore*, DistributedEngine::restore_site)
// builds a fresh matcher. Matcher::check_fact_ids() debug-asserts it on
// every delta.
//
// Storage costs what is live, not what has been seen: each alive or
// still-refracting instantiation is one record in a slot array, its
// facts and its quantified-CE keys one block in a flat arena, and the
// key, fact and quantifier indexes erase their entries as records go. A
// removed record, and a fired one whose fact was retracted, give their
// slot and block back for the next add(); once the tables have grown to
// their peak, add/fire/remove allocate nothing.
//
// Ids are handed out monotonically and are the deterministic order. The
// alive set is kept as a list of ascending ids; a retired id stays
// listed until retired ids outnumber the alive ones, then one purge
// drops them all. alive_ids(), of_rule() and for_each() therefore cost
// O(alive + retired since the last purge). Purging happens only in the
// mutating calls, so the const readers never write.
//
// Quantified-CE keys: an instantiation of a rule with (not ...) or
// (exists ...) CEs may carry one key per such CE (the hash of its
// join-key values, see QuantIndex), and for_each_quant() finds the alive
// instantiations whose key matches a fact entering or leaving that CE's
// alpha memory. The entries leave with the instantiation's alive state.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "match/instantiation.hpp"
#include "support/flat_group_map.hpp"
#include "support/flat_id_map.hpp"

namespace parulel {

class ConflictSet {
 public:
  /// Add an instantiation of `rule` over `facts` unless (a) one with
  /// the same key (rule + facts) is alive or (b) it has fired and all
  /// its facts are still alive (refraction). `quant_keys` are its
  /// quantified-CE keys, one per CE of the rule, or empty. Returns the
  /// new id, or kInvalidInst when rejected.
  InstId add(RuleId rule, std::span<const FactId> facts,
             std::span<const std::size_t> quant_keys = {});

  /// Remove one alive instantiation by id. No-op on other ids.
  void remove(InstId id);

  /// Remove the alive instantiation with this key, if any. Returns
  /// whether one was removed.
  bool remove_by_key(RuleId rule, std::span<const FactId> facts);

  /// `fact` was retracted: remove every alive instantiation containing
  /// it and forget every fired one. Returns how many alive ones it held,
  /// counted once per occurrence (a self-join holding the fact twice
  /// counts twice).
  std::size_t remove_by_fact(FactId fact);

  /// Mark an instantiation as fired: it leaves the alive set and the
  /// quantifier index but stays in the key index and its fact postings,
  /// which refracts it until one of its facts is retracted.
  void mark_fired(InstId id);

  /// Forget everything, refraction memory included: the set returns to
  /// its just-constructed state and ids restart at 0. Capacity is kept.
  void clear();

  /// Would this key be rejected by refraction?
  bool has_fired(RuleId rule, std::span<const FactId> facts) const;

  bool alive(InstId id) const {
    const std::uint32_t* slot = slot_of_.find(id);
    return slot != nullptr && !recs_[*slot].fired;
  }

  /// The alive or still-refracting instantiation `id`. The view is
  /// valid until the next add(), or until its storage is dropped (it is
  /// removed, or it fired and one of its facts was retracted).
  Instantiation get(InstId id) const;

  std::size_t size() const { return alive_count_; }
  bool empty() const { return alive_count_ == 0; }

  /// Iterate alive instantiations in ascending id order (deterministic).
  void for_each(const std::function<void(const Instantiation&)>& fn) const;

  /// Alive instantiation ids of one rule, ascending.
  std::vector<InstId> of_rule(RuleId rule) const;

  /// Snapshot of alive ids in ascending order.
  std::vector<InstId> alive_ids() const;

  /// Instantiations added since construction or the last clear() (ids
  /// are [0, high_water)).
  InstId high_water() const { return next_id_; }

  /// Visit the alive instantiations of `rule` whose key for quantified
  /// CE `n` equals `key`. `fn(id)` may remove them (or any other).
  template <typename Fn>
  void for_each_quant(RuleId rule, std::size_t n, std::size_t key, Fn&& fn) {
    const auto* group = by_quant_.find(quant_probe(rule, n, key));
    if (group == nullptr) return;
    // Copy first: fn's removals erase from the group.
    quant_scratch_.clear();
    for (const std::uint32_t slot : *group) {
      const Record& rec = recs_[slot];
      if (rec.rule == rule && n < rec.n_quant &&
          quant_keys(rec)[n] == key) {
        quant_scratch_.push_back({slot, rec.id});
      }
    }
    for (const Posting& p : quant_scratch_) {
      if (alive_at(p)) fn(p.id);
    }
  }

  /// Quantified-CE keys held (alive instantiations only).
  std::size_t quant_entries() const { return quant_entries_; }

  /// What the set holds and has reserved. Both are bounded by the peak
  /// of alive + refracting instantiations, not by high_water().
  struct Footprint {
    std::size_t records = 0;     ///< alive + fired-and-still-refracting
    std::size_t key_groups = 0;  ///< distinct key hashes among them
    std::size_t reserved = 0;    ///< elements reserved across its tables
  };
  Footprint footprint() const;

 private:
  static_assert(std::is_same_v<FactId, std::uint64_t> &&
                    std::is_same_v<std::size_t, std::uint64_t>,
                "facts and quantifier keys share one 64-bit arena");

  /// One alive or refracting instantiation. A free slot has id ==
  /// kInvalidInst.
  struct Record {
    InstId id = kInvalidInst;
    std::size_t key_hash = 0;
    std::uint32_t offset = 0;  ///< block in words_: facts, then quant keys
    RuleId rule = 0;
    std::uint16_t n_facts = 0;
    std::uint16_t n_quant = 0;
    bool fired = false;
  };

  /// A record as seen at one moment: still the same alive record when
  /// its slot still holds that id (slots are reused).
  struct Posting {
    std::uint32_t slot;
    InstId id;
  };

  std::span<const FactId> facts_of(const Record& rec) const {
    return {words_.data() + rec.offset, rec.n_facts};
  }
  std::span<const std::size_t> quant_keys(const Record& rec) const {
    return {words_.data() + rec.offset + rec.n_facts, rec.n_quant};
  }
  bool alive_at(const Posting& p) const {
    return recs_[p.slot].id == p.id && !recs_[p.slot].fired;
  }

  /// Key of (rule, quantified CE n, join-key hash) in by_quant_.
  static std::size_t quant_probe(RuleId rule, std::size_t n,
                                 std::size_t key) {
    return hash_combine(key, (static_cast<std::size_t>(rule) << 16) ^ n);
  }

  /// Slot of the alive or fired record with this key, or npos.
  std::size_t find_key(RuleId rule, std::span<const FactId> facts,
                       std::size_t hash) const;

  /// Take an alive record out of the alive count and the quantifier
  /// index; marking it fired or releasing it is the caller's business.
  void retire(std::uint32_t slot);

  /// Drop the retired ids from listed_ once they outnumber the alive
  /// ones. Runs after the records' state changed.
  void purge_listed();

  /// Drop a retired record: its key entry, its fact postings (except
  /// `skip`'s, which the caller erases whole) and its storage.
  void release(std::uint32_t slot, FactId skip = kInvalidFact);

  /// Erase one occurrence of `slot` from `key`'s group in `map`, and
  /// the key once its group is empty.
  static void unpost(FlatGroupMap<std::uint32_t>& map, std::size_t key,
                     std::uint32_t slot);

  std::vector<Record> recs_;
  std::vector<std::uint32_t> free_slots_;
  /// Fact ids and quantifier keys of every record, one block each.
  std::vector<std::uint64_t> words_;
  /// free_blocks_[n]: offsets of free blocks of n words.
  std::vector<std::vector<std::uint32_t>> free_blocks_;

  InstId next_id_ = 0;
  std::size_t alive_count_ = 0;
  std::size_t quant_entries_ = 0;
  /// id -> slot of every alive or refracting record.
  FlatIdMap<std::uint32_t> slot_of_;
  /// Every alive id, ascending, plus the ids retired since the last
  /// purge (see the header comment).
  std::vector<Posting> listed_;

  /// Structural key hash -> alive and refracting records (bucket by
  /// hash, verify by key).
  FlatGroupMap<std::uint32_t> by_key_;
  /// fact -> alive and refracting records holding it, once per
  /// occurrence.
  FlatGroupMap<std::uint32_t> by_fact_;
  /// quant_probe(rule, n, key) -> alive records.
  FlatGroupMap<std::uint32_t> by_quant_;
  std::vector<Posting> scratch_;        ///< remove_by_fact's posting copy
  std::vector<Posting> quant_scratch_;  ///< for_each_quant's group copy
};

}  // namespace parulel
