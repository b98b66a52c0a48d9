// The conflict set: all currently satisfied, not-yet-fired instantiations.
//
// Shared by every matcher. Also owns refraction memory: a fired
// instantiation stays in its slot and in the structural-key index (only
// its fact postings go), so the duplicate check in add() rejects its
// re-addition too and looping on unchanged matches is impossible (OPS5
// refraction, which PARULEL keeps).
//
// The alive set is kept as a list of ascending ids. Ids are assigned in
// ascending order, so add() appends; a retired id stays listed until
// retired ids outnumber the alive ones, then one purge drops them all.
// alive_ids(), of_rule() and for_each() therefore cost O(alive + retired
// since the last purge), not O(every instantiation ever added) — the
// engines take alive_ids() once per cycle, and a service session's
// conflict set lives for the whole session. Purging happens only in the
// mutating calls, so the const readers never write.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "support/flat_group_map.hpp"
#include "match/instantiation.hpp"

namespace parulel {

class ConflictSet {
 public:
  /// Add an instantiation unless (a) an identical key is already present
  /// or (b) it has already fired (refraction). Assigns inst.id on
  /// success. Returns the id, or kInvalidInst when rejected.
  InstId add(Instantiation inst);

  /// Remove one instantiation by id. No-op on unknown/dead ids.
  void remove(InstId id);

  /// Remove the alive instantiation with this structural key, if any.
  /// Returns whether one was removed.
  bool remove_by_key(const Instantiation& probe);

  /// Remove every instantiation whose fact vector contains `fact`.
  /// Appends the removed ids to `removed_out` when non-null.
  void remove_by_fact(FactId fact, std::vector<InstId>* removed_out = nullptr);

  /// Mark an instantiation as fired: it leaves the alive set and its
  /// fact postings but keeps its key entry, which refracts it.
  void mark_fired(InstId id);

  /// Forget everything, refraction memory included: the set returns to
  /// its just-constructed state and ids restart at 0. Capacity is kept.
  void clear();

  /// Would this key be rejected by refraction?
  bool has_fired(const Instantiation& inst) const;

  bool alive(InstId id) const {
    return id < alive_.size() && alive_[id] != 0;
  }
  const Instantiation& get(InstId id) const;

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
  InstId high_water() const { return static_cast<InstId>(insts_.size()); }

 private:
  /// Take an alive instantiation out of the alive set and the fact
  /// postings; its key entry is the caller's business.
  void retire(InstId id);

  /// The alive or fired instantiation with this key (at most one
  /// exists), or kInvalidInst.
  InstId find_key(const Instantiation& probe) const;

  // Dense storage; dead entries keep their slot (ids stay stable).
  std::vector<Instantiation> insts_;
  std::vector<std::uint8_t> alive_;
  std::size_t alive_count_ = 0;
  /// Every alive id, ascending, plus the ids retired since the last
  /// purge (see the header comment).
  std::vector<InstId> listed_;

  // Structural key -> alive or fired inst (bucket by hash, verify by
  // same_key). Plainly removed insts leave; fired ones stay (refraction).
  FlatGroupMap<InstId> by_key_;
  // fact -> alive inst ids containing it.
  FlatGroupMap<InstId> by_fact_;
  std::vector<InstId> scratch_;  ///< remove_by_fact's copy of a posting
};

}  // namespace parulel
